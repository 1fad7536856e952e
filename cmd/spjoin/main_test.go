package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"spjoin/internal/flight"
	"spjoin/internal/geom"
	"spjoin/internal/metrics"
	"spjoin/internal/partjoin"
	"spjoin/internal/rtree"
	"spjoin/internal/tiger"
)

// TestPartitionCLIOutput pins the -engine partition summary: the curated
// table of the Result (headline figures plus the per-worker pair
// distribution) must appear in the command output when -metrics is on.
func TestPartitionCLIOutput(t *testing.T) {
	streets, mixed := tiger.Maps(0.01, 42)
	obs := &observability{reg: metrics.NewRegistry()}
	var out bytes.Buffer
	runPartition(&out, streets, mixed, 4, 0, 0, obs, nil, nil)
	text := out.String()
	for _, want := range []string{
		"partition join with 4 goroutines",
		"Partition engine metrics (partjoin.*)",
		"filter kernel",
		"non-empty partitions",
		"comparisons",
		"duplicates suppressed",
		"pairs/worker min/mean/max",
		"pairs/worker skew (max/mean)",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("partition output missing %q:\n%s", want, text)
		}
	}
	if !strings.Contains(text, geom.KernelName()) {
		t.Fatalf("summary does not name the active kernel %q:\n%s", geom.KernelName(), text)
	}
}

// TestKernelSummaryRow pins the -kernel flag's effect on the summary: under
// the forced scalar path the table must say "purego" regardless of CPU.
func TestKernelSummaryRow(t *testing.T) {
	defer geom.SetKernel("auto")
	if err := geom.SetKernel("purego"); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	renderPartitionSummary(&out, &partjoin.Result{Partitions: 1}, nil)
	if !strings.Contains(out.String(), "purego") {
		t.Fatalf("summary missing forced kernel path:\n%s", out.String())
	}
}

// Without a registry (-metrics off) the summary table is absent but the
// plain report still prints.
func TestPartitionCLIOutputNoRegistry(t *testing.T) {
	streets, mixed := tiger.Maps(0.01, 42)
	var out bytes.Buffer
	runPartition(&out, streets, mixed, 2, 0, 0, &observability{}, nil, nil)
	if strings.Contains(out.String(), "Partition engine metrics") {
		t.Fatalf("summary table printed without a registry:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "candidates:") {
		t.Fatalf("plain report missing:\n%s", out.String())
	}
}

func TestRenderPartitionSummarySkew(t *testing.T) {
	var out bytes.Buffer
	renderPartitionSummary(&out, &partjoin.Result{Partitions: 7, PerWorker: []int{100, 300}}, nil)
	// mean 200, max 300 -> skew 1.50.
	if !strings.Contains(out.String(), "100 / 200.0 / 300") || !strings.Contains(out.String(), "1.50") {
		t.Fatalf("distribution rows wrong:\n%s", out.String())
	}
}

// TestMetricsEndpoint pins the /metrics handler: OpenMetrics content type
// and a payload the exposition parser round-trips.
func TestMetricsEndpoint(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("sim.disk.reads.directory").Add(123)
	reg.Gauge("sim.response_s").Set(154.5)
	srv := httptest.NewServer(metricsHandler(reg))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/openmetrics-text") {
		t.Fatalf("content type = %q", ct)
	}
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := body.String()
	for _, want := range []string{
		"# TYPE sim_disk_reads_directory counter",
		"sim_disk_reads_directory_total 123",
		"sim_response_s 154.5",
		"# EOF",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

// Guard against accidental engine coupling: the handler serves whatever
// registry the run populated, including tree-engine counters.
func TestMetricsEndpointTreeCounters(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("sim.join.candidates").Add(9)
	rec := httptest.NewRecorder()
	metricsHandler(reg).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "sim_join_candidates_total 9") {
		t.Fatalf("tree counter missing:\n%s", rec.Body.String())
	}
}

// TestPartitionExplainReport pins -explain: the EXPLAIN ANALYZE report
// follows the partition summary and the execution lands in the flight
// recorder with the captured plan attached.
func TestPartitionExplainReport(t *testing.T) {
	streets, mixed := tiger.Maps(0.01, 42)
	intro := &introspection{
		flights: flight.NewRecorder(4),
		planRec: flight.Plan{Source: "forced", Engine: "partition", Workers: 4},
		explain: true,
	}
	var out bytes.Buffer
	runPartition(&out, streets, mixed, 4, 0, 0, &observability{}, nil, intro)
	text := out.String()
	for _, want := range []string{
		"JOIN #1", "engine=partition",
		"plan (forced): engine=partition",
		"phases (measured", "partition", "sweep",
		"workers (pairs):",
		"top work units",
		"tile cost heat",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("explain output missing %q:\n%s", want, text)
		}
	}
	last, ok := intro.flights.Last()
	if !ok || last.Engine != "partition" || last.Plan.Source != "forced" {
		t.Fatalf("flight record not captured: ok=%v %+v", ok, last)
	}
	if last.Candidates == 0 || last.WallNS <= 0 || len(last.WorkerPairs) != 4 {
		t.Fatalf("flight record incomplete: %+v", last)
	}
	if len(last.TopTiles) == 0 || last.HeatW == 0 {
		t.Fatalf("introspection payload missing: %+v", last)
	}
}

// Without -explain the join is still recorded (always-on) but no report
// is printed; a generous -slowlog threshold stays silent too.
func TestPartitionFlightAlwaysOnSilent(t *testing.T) {
	streets, mixed := tiger.Maps(0.01, 42)
	intro := &introspection{flights: flight.NewRecorder(4), slowlog: time.Hour}
	var out bytes.Buffer
	runPartition(&out, streets, mixed, 2, 0, 0, &observability{}, nil, intro)
	if strings.Contains(out.String(), "JOIN #") || strings.Contains(out.String(), "slowlog:") {
		t.Fatalf("silent run printed a report:\n%s", out.String())
	}
	if intro.flights.Len() != 1 {
		t.Fatalf("flight recorder holds %d records, want 1", intro.flights.Len())
	}
	// A 0 threshold that every join breaches prints via the slowlog path.
	intro2 := &introspection{flights: flight.NewRecorder(4), slowlog: time.Nanosecond}
	out.Reset()
	runPartition(&out, streets, mixed, 2, 0, 0, &observability{}, nil, intro2)
	if !strings.Contains(out.String(), "slowlog: join exceeded") ||
		!strings.Contains(out.String(), "JOIN #1") {
		t.Fatalf("slowlog breach did not print the report:\n%s", out.String())
	}
}

// TestJoinsEndpoint pins /debug/joins: JSON array, oldest first, with the
// phase timings and plan visible to a scraper.
func TestJoinsEndpoint(t *testing.T) {
	streets, mixed := tiger.Maps(0.01, 42)
	intro := &introspection{
		flights: flight.NewRecorder(4),
		planRec: flight.Plan{Source: "auto", Engine: "partition", Grid: 12, Workers: 2, Skew: 3.3},
	}
	var out bytes.Buffer
	runPartition(&out, streets, mixed, 2, 0, 0, &observability{}, nil, intro)
	rec := httptest.NewRecorder()
	joinsHandler(intro.flights).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/joins", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	var got []flight.Record
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("decode /debug/joins: %v\n%s", err, rec.Body.String())
	}
	if len(got) != 1 || got[0].Engine != "partition" || got[0].Plan.Grid != 12 {
		t.Fatalf("unexpected payload: %+v", got)
	}
	var phaseSum int64
	for _, ns := range got[0].PhaseNS {
		phaseSum += ns
	}
	if phaseSum <= 0 {
		t.Fatalf("phase timings absent from the JSON payload: %+v", got[0].PhaseNS)
	}
}

// TestExplainObservesMetrics pins the OpenMetrics wiring: a recorded join
// feeds the phase histograms and plan gauges scraped at /metrics.
func TestExplainObservesMetrics(t *testing.T) {
	streets, mixed := tiger.Maps(0.01, 42)
	obs := &observability{reg: metrics.NewRegistry()}
	intro := &introspection{
		flights: flight.NewRecorder(4),
		planRec: flight.Plan{
			Source: "auto", Engine: "partition", Grid: 12, Workers: 2,
			NR: len(streets), NS: len(mixed), Skew: 3.3, Rep: 1.1,
		},
	}
	var out bytes.Buffer
	runPartition(&out, streets, mixed, 2, 0, 0, obs, nil, intro)
	if got := obs.reg.Counter("flight.joins").Load(); got != 1 {
		t.Fatalf("flight.joins=%d", got)
	}
	if got := obs.reg.Gauge("plan.grid").Load(); got != 12 {
		t.Fatalf("plan.grid=%v", got)
	}
	rec := httptest.NewRecorder()
	metricsHandler(obs.reg).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, want := range []string{"flight_joins_total 1", "plan_grid 12", "flight_phase_us_sweep"} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, rec.Body.String())
		}
	}
	// The partition summary surfaces the plan rows.
	if !strings.Contains(out.String(), "plan engine") || !strings.Contains(out.String(), "plan skew") {
		t.Fatalf("summary missing plan rows:\n%s", out.String())
	}
}

// TestExplainSVGOutput pins -explain-svg: a standalone SVG heatmap lands
// at the requested path.
func TestExplainSVGOutput(t *testing.T) {
	streets, mixed := tiger.Maps(0.01, 42)
	path := filepath.Join(t.TempDir(), "heat.svg")
	intro := &introspection{flights: flight.NewRecorder(4), svgPath: path}
	var out bytes.Buffer
	runPartition(&out, streets, mixed, 2, 0, 0, &observability{}, nil, intro)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("heatmap SVG not written: %v", err)
	}
	if !strings.HasPrefix(string(buf), "<svg xmlns=") {
		t.Fatalf("not an SVG document:\n%.120s", buf)
	}
	if !strings.Contains(out.String(), "heatmap:") {
		t.Fatalf("output does not mention the heatmap path:\n%s", out.String())
	}
}

// engineSeries returns every counter and gauge of snap named under prefix.
func engineSeries(snap metrics.Snapshot, prefix string) map[string]float64 {
	got := make(map[string]float64)
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, prefix) {
			got[name] = float64(v)
		}
	}
	for name, v := range snap.Gauges {
		if strings.HasPrefix(name, prefix) {
			got[name] = v
		}
	}
	return got
}

// requireSeries compares the engine series of a run's registry with the
// figures its Result and record give: same names, same values.
func requireSeries(t *testing.T, got, want map[string]float64) {
	t.Helper()
	for name, v := range want {
		if g, ok := got[name]; !ok || g != v {
			t.Errorf("%s = %v (present %v), want %v", name, g, ok, v)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("unexpected series %s = %v", name, got[name])
		}
	}
}

// TestEngineMetricsFromResult pins the engine content of -metrics: after a
// partition run and a native tree run, every partjoin.* and native.* series
// in the registry is a figure of that join's Result (the wall gauge is the
// driver's wall time on the recorded join).
func TestEngineMetricsFromResult(t *testing.T) {
	streets, mixed := tiger.Maps(0.02, 42)

	obs := &observability{reg: metrics.NewRegistry()}
	intro := &introspection{flights: flight.NewRecorder(2)}
	pres := runPartition(io.Discard, streets, mixed, 3, 0, 0, obs, nil, intro)
	prec, _ := intro.flights.Last()
	want := map[string]float64{
		"partjoin.partitions":            float64(pres.Partitions),
		"partjoin.duplicates_suppressed": float64(pres.Duplicates),
		"partjoin.comparisons":           float64(pres.Comparisons),
		"partjoin.candidates":            float64(len(pres.Candidates)),
		"partjoin.refined_tiles":         float64(pres.RefinedTiles),
		"partjoin.subtiles":              float64(pres.Subtiles),
		"partjoin.grid_tiles":            float64(pres.GX * pres.GY),
		"partjoin.wall_ms":               float64(prec.WallNS) / 1e6,
	}
	for w, n := range pres.PerWorker {
		want[fmt.Sprintf("partjoin.worker.%d.pairs", w)] = float64(n)
	}
	if pres.Comparisons == 0 || len(pres.Candidates) == 0 || len(pres.PerWorker) != 3 {
		t.Fatalf("partition run did no work: %+v", pres)
	}
	requireSeries(t, engineSeries(obs.reg.Snapshot(), "partjoin."), want)

	r := rtree.BulkLoadSTRParallel(rtree.DefaultParams(), streets, 0.73, 0)
	s := rtree.BulkLoadSTRParallel(rtree.DefaultParams(), mixed, 0.73, 0)
	obs = &observability{reg: metrics.NewRegistry()}
	nres := runNative(io.Discard, r, s, 2, obs, nil, intro)
	nrec, _ := intro.flights.Last()
	want = map[string]float64{
		"native.join.pairs_expanded": float64(nres.PairsExpanded),
		"native.join.comparisons":    float64(nres.Comparisons),
		"native.join.candidates":     float64(len(nres.Candidates) + nres.FalseHits),
		"native.tasks.created":       float64(nres.Tasks),
		"native.wall_ms":             float64(nrec.WallNS) / 1e6,
	}
	for w, n := range nres.PerWorker {
		want[fmt.Sprintf("native.worker.%d.pairs", w)] = float64(n)
	}
	if nres.PairsExpanded == 0 || nres.Comparisons == 0 || len(nres.Candidates) == 0 {
		t.Fatalf("tree run did no work: %+v", nres)
	}
	if nrec.Comparisons != nres.Comparisons || nrec.PairsExpanded != nres.PairsExpanded {
		t.Errorf("record comparisons/pairs %d/%d, Result %d/%d",
			nrec.Comparisons, nrec.PairsExpanded, nres.Comparisons, nres.PairsExpanded)
	}
	requireSeries(t, engineSeries(obs.reg.Snapshot(), "native."), want)
}
