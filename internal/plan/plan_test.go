package plan_test

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"spjoin/internal/geom"
	"spjoin/internal/partjoin"
	"spjoin/internal/plan"
	"spjoin/internal/rtree"
	"spjoin/internal/tiger"
)

var update = flag.Bool("update", false, "rewrite testdata/decisions.json from the current planner")

// corpus is the committed planner workload set: every regime the decision
// rules distinguish, generated deterministically so the golden file is
// stable. The same set feeds the planner contract test and its benchmark.
func corpus() []struct {
	name string
	r, s []rtree.Item
} {
	bigRects := func(n int, seed int64) []rtree.Item {
		// Rectangles spanning ~1/8 of the world: every one overlaps a
		// 2–3-tile block of the probe grid, the replication regime where
		// the grid engine drowns in duplicates.
		items := tiger.Uniform(n, 1, seed)
		for i := range items {
			items[i].Rect.MaxX = items[i].Rect.MinX + tiger.World/8
			items[i].Rect.MaxY = items[i].Rect.MinY + tiger.World/8
		}
		return items
	}
	return []struct {
		name string
		r, s []rtree.Item
	}{
		{"tiger-maps", nil, nil}, // filled below: tiger.Maps needs both at once
		{"uniform", tiger.Uniform(24000, 0.3, 1), tiger.Uniform(24000, 0.3, 2)},
		{"clustered-mild", tiger.GaussianClusters(24000, 8, 60, 0.3, 7, 1), tiger.GaussianClusters(24000, 8, 60, 0.3, 7, 2)},
		{"clustered-extreme", tiger.GaussianClusters(24000, 4, 2, 0.05, 41, 42), tiger.GaussianClusters(24000, 4, 2, 0.05, 41, 43)},
		{"diagonal", tiger.DiagonalLine(24000, 3, 0.3, 1), tiger.DiagonalLine(24000, 3, 0.3, 2)},
		{"big-rects", bigRects(3000, 5), bigRects(3000, 6)},
		{"tiny", tiger.Uniform(400, 0.5, 9), tiger.Uniform(400, 0.5, 10)},
	}
}

func fullCorpus() []struct {
	name string
	r, s []rtree.Item
} {
	c := corpus()
	c[0].r, c[0].s = tiger.Maps(0.05, 42)
	return c
}

// goldenEntry is one committed planner verdict: the (rounded) statistics
// Analyze measured and the Decision derived from them at maxWorkers=8.
type goldenEntry struct {
	Name    string  `json:"name"`
	NR      int     `json:"nr"`
	NS      int     `json:"ns"`
	Skew    float64 `json:"skew"`
	Rep     float64 `json:"rep"`
	Engine  string  `json:"engine"`
	Grid    int     `json:"grid"`
	Refine  int64   `json:"refine"`
	Workers int     `json:"workers"`
}

func round3(v float64) float64 { return math.Round(v*1000) / 1000 }

func observe() []goldenEntry {
	var out []goldenEntry
	for _, c := range fullCorpus() {
		st := plan.Analyze(c.r, c.s)
		d := plan.Decide(st, 8)
		out = append(out, goldenEntry{
			Name: c.name, NR: st.NR, NS: st.NS,
			Skew: round3(st.Skew), Rep: round3(st.Rep),
			Engine: d.Engine.String(), Grid: d.Grid,
			Refine: d.RefineThreshold, Workers: d.Workers,
		})
	}
	return out
}

// TestGoldenDecisions pins the planner end to end: input statistics and
// the derived plan for every corpus workload, committed in
// testdata/decisions.json. Run with -update after a deliberate tuning
// change and review the diff — an unreviewed drift here is a planner
// regression.
func TestGoldenDecisions(t *testing.T) {
	got := observe()
	path := filepath.Join("testdata", "decisions.json")
	if *update {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d entries", path, len(got))
		return
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	var want []goldenEntry
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("parse golden: %v", err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d entries, corpus has %d (re-run with -update)", len(want), len(got))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s:\n  got  %+v\n  want %+v", got[i].Name, got[i], want[i])
		}
	}
}

// TestDecideRules pins the individual decision rules against synthetic
// statistics, independent of the generators.
func TestDecideRules(t *testing.T) {
	cases := []struct {
		name string
		st   plan.Stats
		max  int
		want plan.Decision
	}{
		{
			"uniform-large",
			plan.Stats{NR: 50000, NS: 50000, Skew: 1.3, Rep: 1.1, Probe: 16},
			8,
			plan.Decision{Engine: plan.EnginePartition, Grid: partjoin.AutoGrid(100000, 6), RefineThreshold: partjoin.RefineDisabled, Workers: 6},
		},
		{
			"skewed-large",
			plan.Stats{NR: 50000, NS: 50000, Skew: 20, Rep: 1.1, Probe: 16},
			8,
			plan.Decision{Engine: plan.EnginePartition, Grid: partjoin.AutoGridSkewed(100000, 6, 20), RefineThreshold: 0, Workers: 6},
		},
		{
			"replicated",
			plan.Stats{NR: 50000, NS: 50000, Skew: 1.5, Rep: 9, Probe: 16},
			8,
			plan.Decision{Engine: plan.EngineTree, Workers: 6},
		},
		{
			"tiny",
			plan.Stats{NR: 300, NS: 300, Skew: 1.2, Rep: 1.0, Probe: 16},
			8,
			plan.Decision{Engine: plan.EnginePartition, Grid: partjoin.AutoGrid(600, 1), RefineThreshold: partjoin.RefineDisabled, Workers: 1},
		},
		{
			"zero-workers-clamped",
			plan.Stats{NR: 50000, NS: 50000, Skew: 1.3, Rep: 1.1, Probe: 16},
			0,
			plan.Decision{Engine: plan.EnginePartition, Grid: partjoin.AutoGrid(100000, 1), RefineThreshold: partjoin.RefineDisabled, Workers: 1},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := plan.Decide(c.st, c.max); got != c.want {
				t.Errorf("Decide(%+v, %d) = %+v, want %+v", c.st, c.max, got, c.want)
			}
		})
	}
}

// TestAnalyzeDegenerate checks Analyze survives the inputs that would
// poison the statistics: empty sides, NaN rectangles, inverted extents,
// and a zero-extent world (all rectangles identical points).
func TestAnalyzeDegenerate(t *testing.T) {
	if st := plan.Analyze(nil, nil); st.Skew != 1 || st.Rep != 1 {
		t.Errorf("empty input: %+v, want neutral skew/rep", st)
	}
	nan := math.NaN()
	bad := []rtree.Item{
		{ID: 0, Rect: geom.NewRect(nan, nan, nan, nan)},
		{ID: 1, Rect: geom.Rect{MinX: 5, MinY: 5, MaxX: 1, MaxY: 1}},
	}
	if st := plan.Analyze(bad, nil); st.Skew != 1 || st.Rep != 1 {
		t.Errorf("all-invalid input: %+v, want neutral skew/rep", st)
	}
	pt := geom.NewRect(7, 7, 7, 7)
	same := []rtree.Item{{ID: 0, Rect: pt}, {ID: 1, Rect: pt}}
	st := plan.Analyze(same, same)
	if math.IsNaN(st.Skew) || math.IsNaN(st.Rep) {
		t.Errorf("zero-extent world produced NaN stats: %+v", st)
	}
	mixed := append([]rtree.Item{}, bad...)
	mixed = append(mixed, tiger.Uniform(1000, 0.5, 1)...)
	st = plan.Analyze(mixed, tiger.Uniform(1000, 0.5, 2))
	if st.Rep < 1 || math.IsNaN(st.Skew) {
		t.Errorf("mixed valid/invalid input produced bad stats: %+v", st)
	}
}

// TestAnalyzeMatchesThreePassForm pins Analyze's Stats bit for bit against
// the form it replaced (AnalyzeThreePass, export_test.go) on the planner
// corpus and on the inputs where an open-coded min/max could part ways with
// math.Min/Max: invalid rects, an empty side, signed zeros on the MBR edge,
// infinite extents.
func TestAnalyzeMatchesThreePassForm(t *testing.T) {
	cases := fullCorpus()
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	odd := []rtree.Item{
		{ID: 0, Rect: geom.NewRect(nan, nan, nan, nan)},
		{ID: 1, Rect: geom.Rect{MinX: 5, MinY: 5, MaxX: 1, MaxY: 1}},
		{ID: 2, Rect: geom.Rect{MinX: 0, MinY: negZero, MaxX: 3, MaxY: 4}},
		{ID: 3, Rect: geom.Rect{MinX: negZero, MinY: 0, MaxX: 2, MaxY: 9}},
		{ID: 4, Rect: geom.Rect{MinX: negZero, MinY: negZero, MaxX: negZero, MaxY: 0}},
	}
	inf := append([]rtree.Item{{ID: 9, Rect: geom.Rect{MinX: math.Inf(-1), MinY: 0, MaxX: math.Inf(1), MaxY: 1}}},
		tiger.Uniform(100, 0.5, 3)...)
	cases = append(cases, []struct {
		name string
		r, s []rtree.Item
	}{
		{"empty", nil, nil},
		{"empty-r", nil, tiger.Uniform(500, 0.5, 1)},
		{"odd", odd, tiger.Uniform(500, 0.5, 2)},
		{"odd-only", odd[:2], odd[:1]},
		{"zeros", odd[2:], odd[2:]},
		{"infinite", inf, odd},
	}...)
	bits := func(st plan.Stats) [5]uint64 {
		return [5]uint64{uint64(st.NR), uint64(st.NS),
			math.Float64bits(st.Skew), math.Float64bits(st.Rep), math.Float64bits(st.Selectivity)}
	}
	for _, c := range cases {
		got, want := plan.Analyze(c.r, c.s), plan.AnalyzeThreePass(c.r, c.s)
		if bits(got) != bits(want) || got.Probe != want.Probe {
			t.Errorf("%s: Analyze = %+v, three-pass form = %+v", c.name, got, want)
		}
	}
}

// TestAutoWithinFactorOfBest is the planner's contract — on every corpus
// workload the auto plan stays out of each engine's failure mode — pinned on
// counters the engines return and that repeat exactly, not on wall time
// (BenchmarkAutoVsFixed in bench_test.go is the timed version, three fixed
// plans against the auto plan).
//
//   - A tree decision must be the replication regime: the grid engine on
//     that input suppresses more than one duplicate per two pairs it emits,
//     and since that regime is few rectangles and many pairs, the plan takes
//     every worker it is offered.
//   - A partition decision must not be: duplicates stay under a tenth of the
//     pairs. Its refinement setting is then compared with the opposite one at
//     the plan's own grid and workers, on the two quantities that bound the
//     join — the comparisons summed over all work units (CPU time) and the
//     hottest unit of the schedule (the straggler that bounds wall time): the
//     chosen setting is within 1.5× of the other on both.
func TestAutoWithinFactorOfBest(t *testing.T) {
	const maxWorkers = 4
	for _, c := range fullCorpus() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			d := plan.Decide(plan.Analyze(c.r, c.s), maxWorkers)
			if wantTree := c.name == "big-rects"; (d.Engine == plan.EngineTree) != wantTree {
				t.Fatalf("auto plan %v, want tree engine: %v", d, wantTree)
			}
			if d.Engine == plan.EngineTree {
				grid := partjoin.Join(c.r, c.s, partjoin.Config{Workers: maxWorkers})
				if 2*grid.Duplicates <= len(grid.Candidates) {
					t.Errorf("auto plan %v, but the grid engine suppresses only %d duplicates for %d pairs",
						d, grid.Duplicates, len(grid.Candidates))
				}
				if d.Workers != maxWorkers {
					t.Errorf("auto plan %v on %d pairs, want all %d workers",
						d, len(grid.Candidates), maxWorkers)
				}
				return
			}
			run := func(thr int64) partjoin.Result {
				return partjoin.Join(c.r, c.s, partjoin.Config{
					Workers: d.Workers, Grid: d.Grid, RefineThreshold: thr,
				})
			}
			chosen, other := run(partjoin.RefineDisabled), run(0)
			if d.RefineThreshold == 0 {
				chosen, other = other, chosen
			}
			if 10*chosen.Duplicates > len(chosen.Candidates) {
				t.Errorf("auto plan %v suppresses %d duplicates for %d pairs: replication regime on the grid engine",
					d, chosen.Duplicates, len(chosen.Candidates))
			}
			hotC, hotO := chosen.TopTiles[0].Cost, other.TopTiles[0].Cost
			t.Logf("auto(%v): comparisons %d vs %d, hottest unit %d vs %d",
				d, chosen.Comparisons, other.Comparisons, hotC, hotO)
			if 2*chosen.Comparisons > 3*other.Comparisons {
				t.Errorf("auto plan %v: %d comparisons, more than 1.5x the opposite refinement setting's %d",
					d, chosen.Comparisons, other.Comparisons)
			}
			if 2*hotC > 3*hotO {
				t.Errorf("auto plan %v: hottest unit %d, more than 1.5x the opposite refinement setting's %d",
					d, hotC, hotO)
			}
		})
	}
}

// TestAnalyzeSelectivity checks the §3.4 selectivity figure rides along in
// the planner statistics: in (0, 1] for a real workload, 0 for unusable
// input, never NaN.
func TestAnalyzeSelectivity(t *testing.T) {
	r, s := tiger.Maps(0.02, 42)
	st := plan.Analyze(r, s)
	if math.IsNaN(st.Selectivity) || st.Selectivity <= 0 || st.Selectivity > 1 {
		t.Errorf("selectivity %g, want in (0, 1]", st.Selectivity)
	}
	if est := st.Selectivity * float64(st.NR) * float64(st.NS); est < 1 {
		t.Errorf("expected pairs %g, want >= 1 on overlapping maps", est)
	}
	if st := plan.Analyze(nil, nil); st.Selectivity != 0 {
		t.Errorf("empty input selectivity %g, want 0", st.Selectivity)
	}
}
