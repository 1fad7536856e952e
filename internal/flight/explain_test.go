package flight

import (
	"strings"
	"testing"

	"spjoin/internal/metrics"
	"spjoin/internal/partjoin"
	"spjoin/internal/timeline"
)

func TestExplainPartitionReport(t *testing.T) {
	rec := sampleRecord(0)
	rec.Seq = 3
	rec.RefinedTiles = 2
	rec.Subtiles = 18
	rec.Reuse, rec.DeltaRects = partjoin.ReuseDelta, 3
	var sb strings.Builder
	Explain(&sb, &rec)
	out := sb.String()
	for _, want := range []string{
		"JOIN #3", "engine=partition",
		"plan (auto): engine=partition grid=24x24",
		"skew=5.50", "selectivity=0.0001",
		"est. pairs", "drift",
		"filter: candidates=300",
		"partition: grid=24x24", "split_tiles=2 split_units=18",
		"reuse: tier=delta delta_rects=3\n",
		"phases (measured",
		"sweep", "prep",
		"workers (pairs):",
		"W0",
		"top work units", "tile (3,4) cost=500  split",
		"tile cost heat (24x24 grid -> 2x2 cells",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q\n%s", want, out)
		}
	}
	// Skipped phases stay out of the waterfall.
	if strings.Contains(out, "\n  sort") {
		t.Errorf("skipped sort phase rendered\n%s", out)
	}
	// Heatmap: hottest cell renders '@', zero would be ' ' (none here).
	if !strings.Contains(out, "@") {
		t.Errorf("heatmap missing hottest glyph\n%s", out)
	}
	// Deterministic: same record, same bytes.
	var sb2 strings.Builder
	Explain(&sb2, &rec)
	if sb2.String() != out {
		t.Fatalf("Explain is not deterministic")
	}
}

func TestExplainTreeReport(t *testing.T) {
	rec := Record{
		Seq: 1, WallNS: 2e6, Engine: "tree",
		Plan: Plan{Source: "forced", Engine: "tree", Workers: 4},
		NR:   500, NS: 600,
		Candidates:  123,
		Tasks:       40,
		WorkerPairs: []int64{30, 40, 20, 33},
	}
	rec.PhaseNS[timeline.PhasePrep] = 1e5
	rec.PhaseNS[timeline.PhasePartition] = 2e5
	rec.PhaseNS[timeline.PhaseSweep] = 1.5e6
	rec.PhaseNS[timeline.PhaseMerge] = 1e5
	var sb strings.Builder
	Explain(&sb, &rec)
	out := sb.String()
	for _, want := range []string{
		"engine=tree",
		"plan (forced): engine=tree workers=4",
		"tree: tasks=40\n",
		"sweep", "merge",
		"  W1  ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q\n%s", want, out)
		}
	}
	if strings.Contains(out, "grid=") {
		t.Errorf("tree report leaked partition fields\n%s", out)
	}
	if strings.Contains(out, "tile cost heat") {
		t.Errorf("tree report rendered a heatmap\n%s", out)
	}
}

func TestExplainEmptyRecord(t *testing.T) {
	var sb strings.Builder
	Explain(&sb, &Record{Seq: 1, Engine: "partition"})
	out := sb.String()
	if !strings.Contains(out, "plan: (not captured)") {
		t.Errorf("missing plan placeholder\n%s", out)
	}
	if strings.Contains(out, "phases") || strings.Contains(out, "workers") {
		t.Errorf("empty record rendered timing sections\n%s", out)
	}
}

func TestObserveExportsMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	rec := sampleRecord(0)
	Observe(reg, &rec)
	Observe(reg, &rec)
	if got := reg.Counter("flight.joins").Load(); got != 2 {
		t.Fatalf("flight.joins=%d, want 2", got)
	}
	if got := reg.Histogram("flight.phase_us.sweep", phaseBounds).Count(); got != 2 {
		t.Fatalf("sweep histogram count=%d, want 2", got)
	}
	// Skipped phases observe nothing.
	if got := reg.Histogram("flight.phase_us.sort", phaseBounds).Count(); got != 0 {
		t.Fatalf("sort histogram count=%d, want 0", got)
	}
	if got := reg.Gauge("plan.engine_partition").Load(); got != 1 {
		t.Fatalf("plan.engine_partition=%v", got)
	}
	if got := reg.Gauge("plan.grid").Load(); got != 24 {
		t.Fatalf("plan.grid=%v", got)
	}
	if got := reg.Gauge("plan.skew").Load(); got != 5.5 {
		t.Fatalf("plan.skew=%v", got)
	}
	if got := reg.Gauge("plan.replication").Load(); got != 1.2 {
		t.Fatalf("plan.replication=%v", got)
	}
	// A record without a captured plan leaves the plan gauges alone.
	rec2 := sampleRecord(1)
	rec2.Plan = Plan{}
	rec2.Plan.Engine = ""
	Observe(reg, &rec2)
	if got := reg.Gauge("plan.grid").Load(); got != 24 {
		t.Fatalf("plan.grid overwritten by planless record: %v", got)
	}
	// The engine counters total the partition records (two of sample 0, one
	// of sample 1); the gauges hold the last one's figures.
	for name, want := range map[string]int64{
		"partjoin.partitions":            2*100 + 101,
		"partjoin.candidates":            2*300 + 301,
		"partjoin.duplicates_suppressed": 3 * 10,
		"partjoin.worker.3.pairs":        2*60 + 61,
	} {
		if got := reg.Counter(name).Load(); got != want {
			t.Errorf("%s=%d, want %d", name, got, want)
		}
	}
	if got := reg.Gauge("partjoin.grid_tiles").Load(); got != 24*24 {
		t.Errorf("partjoin.grid_tiles=%v", got)
	}
	if got := reg.Gauge("partjoin.wall_ms").Load(); got != 2 {
		t.Errorf("partjoin.wall_ms=%v, want the last record's 2", got)
	}
	// A tree record feeds the native.* series and leaves partjoin.* alone.
	tree := Record{
		WallNS: 3e6, Engine: "tree",
		Candidates: 56, Comparisons: 4000, Tasks: 12, PairsExpanded: 10,
		WorkerPairs: []int64{7, 5},
	}
	Observe(reg, &tree)
	for name, want := range map[string]int64{
		"native.join.pairs_expanded": 10,
		"native.join.comparisons":    4000,
		"native.join.candidates":     56,
		"native.tasks.created":       12,
		"native.worker.0.pairs":      7,
		"native.worker.1.pairs":      5,
		"partjoin.partitions":        2*100 + 101,
	} {
		if got := reg.Counter(name).Load(); got != want {
			t.Errorf("%s=%d, want %d", name, got, want)
		}
	}
	if got := reg.Gauge("native.wall_ms").Load(); got != 3 {
		t.Errorf("native.wall_ms=%v, want 3", got)
	}
	// The export must survive a Prometheus render (name sanitization).
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	for _, want := range []string{"flight_joins", "flight_phase_us_sweep", "plan_grid",
		"partjoin_comparisons", "native_join_pairs_expanded"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}
}

func TestFmtDur(t *testing.T) {
	cases := []struct {
		ns   int64
		want string
	}{
		{500, "500ns"},
		{1500, "1.5µs"},
		{2_340_000, "2.34ms"},
		{1_500_000_000, "1.50s"},
	}
	for _, c := range cases {
		if got := fmtDur(c.ns); got != c.want {
			t.Errorf("fmtDur(%d)=%q, want %q", c.ns, got, c.want)
		}
	}
}
