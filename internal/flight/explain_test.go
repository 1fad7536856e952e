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
		"W0", "(steals 1)",
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
		Candidates: 123,
		Tasks:      40, Steals: 3, StealAttempts: 9,
		WorkerPairs:  []int64{30, 40, 20, 33},
		WorkerSteals: []int64{1, 0, 2, 0},
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
		"tree: tasks=40 steals=3 attempts=9",
		"sweep", "merge",
		"(steals 2)",
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
	// The export must survive a Prometheus render (name sanitization).
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	for _, want := range []string{"flight_joins", "flight_phase_us_sweep", "plan_grid"} {
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
