package partjoin

import (
	"fmt"
	"math/rand"
	"testing"

	"spjoin/internal/geom"
	"spjoin/internal/rtree"
)

// requireFreshJoin holds a resident Joiner's join of (r, s) — the result res
// and the cache it left behind — against brute force and against a fresh
// Joiner's cold join of the same inputs under cfg: the same pair sequence
// (both sorted by the caller) always; the same cached structures wherever the grids
// coincide (the delta tier keeps its grid frozen); and the same schedule,
// unit for unit, with the counters that follow from it, wherever the two were
// built under the same bounds (see freshStateDiff). It reports whether the
// schedules were compared.
func requireFreshJoin(t *testing.T, stage string, j *Joiner, res Result, r, s []rtree.Item, cfg Config) bool {
	t.Helper()
	requireBrute(t, stage, res, r, s)
	var f Joiner
	defer f.Close()
	want := f.Join(r, s, cfg)
	gotC, wantC := sortedCands(res.Candidates), sortedCands(want.Candidates)
	if len(gotC) != len(wantC) {
		t.Fatalf("%s (%s): %d pairs, a fresh join %d", stage, res.Reuse, len(gotC), len(wantC))
	}
	for i := range wantC {
		if gotC[i] != wantC[i] {
			t.Fatalf("%s (%s): candidate %d is %+v, a fresh join's %+v",
				stage, res.Reuse, i, gotC[i], wantC[i])
		}
	}
	diff, _, sched := stateDiff(j, &f)
	if diff != "" {
		t.Fatalf("%s (%s): %s", stage, res.Reuse, diff)
	}
	if sched && (res.Partitions != want.Partitions || res.RefinedTiles != want.RefinedTiles ||
		res.Subtiles != want.Subtiles || res.Duplicates != want.Duplicates) {
		t.Fatalf("%s (%s): counters differ from a fresh join: parts %d/%d refined %d/%d subs %d/%d dups %d/%d",
			stage, res.Reuse, res.Partitions, want.Partitions, res.RefinedTiles, want.RefinedTiles,
			res.Subtiles, want.Subtiles, res.Duplicates, want.Duplicates)
	}
	return sched
}

// TestPipelinedMatchesBarrier (named for the two builds it compared before
// there was one) drives a resident Joiner through repeated builds across
// worker counts and grid sizes, pinning every round against brute force and
// a fresh Joiner's cold join. Each round mutates the inputs so the
// tiers exercise the per-side repair sort (one side's order broken), full
// disorder (both sides), and clean re-joins in between. Run under -race this
// is the join phase's concurrency stress: the early units, the refinement
// hand-off and the late units all operate with real worker parallelism.
func TestPipelinedMatchesBarrier(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, workers := range []int{1, 2, 3, 4, 8} {
		for _, grid := range []int{0, 1, 5, 23} {
			r := items(randomRects(rng, 900, 200, 12), 0)
			s := items(randomRects(rng, 900, 200, 12), 10000)
			cfg := Config{Workers: workers, Grid: grid}
			var j Joiner

			compare := func(stage string) bool {
				t.Helper()
				stage = fmt.Sprintf("w=%d g=%d %s", workers, grid, stage)
				return requireFreshJoin(t, stage, &j, j.Join(r, s, cfg), r, s, cfg)
			}

			if !compare("cold") || !compare("clean-rejoin") {
				t.Fatalf("w=%d g=%d: unchanged inputs, yet the schedules were not comparable", workers, grid)
			}
			// Break one side's order: only R re-sorts and recounts.
			r[len(r)/3].Rect.MinX -= 150
			compare("r-order-broken")
			// Break both sides at once.
			r[len(r)/2].Rect.MinX -= 75
			s[len(s)/4].Rect.MinX -= 125
			compare("both-broken")
			// In-place growth (cross-tile): segments rebuilt, order intact.
			s[len(s)/2].Rect.MaxX += 90
			s[len(s)/2].Rect.MaxY += 90
			compare("s-grown")
			j.Close()
		}
	}
}

// TestPipelinedRefinementStress (the name is as old as the other's) forces
// deep refinement on a clustered workload and checks the refinement
// composes with the hand-off: subtiles
// appear, the schedule is a fresh build's, and the clean fast path reuses it
// allocation-free.
func TestPipelinedRefinementStress(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	// A dense cluster in one corner plus background noise.
	var rects []geom.Rect
	for i := 0; i < 1200; i++ {
		x := rng.Float64() * 10
		y := rng.Float64() * 10
		rects = append(rects, geom.NewRect(x, y, x+0.5, y+0.5))
	}
	for i := 0; i < 300; i++ {
		x := rng.Float64() * 200
		y := rng.Float64() * 200
		rects = append(rects, geom.NewRect(x, y, x+2, y+2))
	}
	r := items(rects[:700], 0)
	s := items(rects[700:], 10000)

	for _, workers := range []int{1, 3} {
		cfg := Config{Workers: workers, Grid: 8, RefineThreshold: 64}
		var j Joiner
		res := j.Join(r, s, cfg)
		if res.Subtiles == 0 {
			t.Fatalf("w=%d: clustered workload did not refine", workers)
		}
		if !requireFreshJoin(t, fmt.Sprintf("w=%d", workers), &j, res, r, s, cfg) {
			t.Fatalf("w=%d: explicit threshold, yet the schedules were not comparable", workers)
		}
		// The schedule the build left must serve the clean fast path with
		// zero allocations.
		j.Join(r, s, cfg)
		if avg := testing.AllocsPerRun(10, func() {
			j.Join(r, s, cfg)
		}); avg != 0 {
			t.Errorf("w=%d: steady state after a cold build allocates %.1f/run, want 0",
				workers, avg)
		}
		j.Close()
	}
}

// TestHandoffCorners pins the corners of the join phase's hand-off — worker 0
// refining the hot tiles while the others sweep, then publishing what the
// tiles became — each with one worker and with more workers than units,
// against brute force and a fresh Joiner.
func TestHandoffCorners(t *testing.T) {
	stack := func(n int, base rtree.EntryID) []rtree.Item {
		rects := make([]geom.Rect, n)
		for i := range rects {
			rects[i] = geom.NewRect(3, 3, 5, 5)
		}
		return items(rects, base)
	}
	corner := func(n int, x, y float64, base rtree.EntryID) []rtree.Item {
		rects := make([]geom.Rect, n)
		for i := range rects {
			d := float64(i) / float64(n)
			rects[i] = geom.NewRect(x+d, y+d, x+d+0.5, y+d+0.5)
		}
		return items(rects, base)
	}
	for _, workers := range []int{1, 8} {
		name := func(c string) string { return fmt.Sprintf("w=%d %s", workers, c) }
		run := func(c string, r, s []rtree.Item, cfg Config) (*Joiner, Result) {
			t.Helper()
			cfg.Workers = workers
			j := new(Joiner)
			t.Cleanup(j.Close)
			res := j.Join(r, s, cfg)
			if !requireFreshJoin(t, name(c), j, res, r, s, cfg) {
				t.Fatalf("%s: schedules not comparable", name(c))
			}
			return j, res
		}

		// (a) A stack of identical rects cannot be split: the one tile is
		// hot, its split is refused, and it is joined once, as a root unit.
		j, res := run("refused split", stack(6, 0), stack(5, 100), Config{Grid: 1, RefineThreshold: 1})
		if res.Partitions != 1 || res.RefinedTiles != 0 || len(res.Candidates) != 30 ||
			len(j.earlyUnits) != 0 || len(j.units) != 1 || j.units[0].node != -1 {
			t.Fatalf("%s: %d units joined, %d refined tiles, %d pairs, schedule %v after %d early units",
				name("refused split"), res.Partitions, res.RefinedTiles, len(res.Candidates), j.units, len(j.earlyUnits))
		}

		// (b) R in one corner of the only tile, S in the opposite one: the
		// split commits, no subcell holds both sides, no unit is left.
		j, res = run("pruned split", corner(6, 0, 0, 0), corner(6, 90, 90, 100), Config{Grid: 1, RefineThreshold: 1})
		if res.Partitions != 0 || res.RefinedTiles != 1 || res.Subtiles != 0 || len(j.units) != 0 {
			t.Fatalf("%s: %d units joined, %d refined tiles, %d subtiles, schedule %v",
				name("pruned split"), res.Partitions, res.RefinedTiles, res.Subtiles, j.units)
		}

		// (c) Every root tile hot: no early units, the workers wait for the
		// refinement and everything joined comes out of it.
		rng := rand.New(rand.NewSource(79))
		r := items(randomRects(rng, 300, 100, 6), 0)
		s := items(randomRects(rng, 300, 100, 6), 10000)
		j, res = run("all hot", r, s, Config{Grid: 3, RefineThreshold: 1})
		if len(j.earlyUnits) != 0 || res.RefinedTiles == 0 || res.Partitions != len(j.units) {
			t.Fatalf("%s: %d early units, %d refined tiles, %d of %d units joined",
				name("all hot"), len(j.earlyUnits), res.RefinedTiles, res.Partitions, len(j.units))
		}

		// (d) Hot and cold tiles side by side, fewer units than workers at
		// eight: a dense corner tile over a sparse background.
		r = append(corner(40, 1, 1, 0), corner(2, 60, 60, 50)...)
		s = append(corner(40, 1, 1, 100), corner(2, 60, 60, 150)...)
		j, res = run("mixed", r, s, Config{Grid: 2, RefineThreshold: 20})
		if len(j.earlyUnits) != 1 || res.RefinedTiles != 1 || res.Partitions != len(j.units) {
			t.Fatalf("%s: %d early units, %d refined tiles, %d of %d units joined",
				name("mixed"), len(j.earlyUnits), res.RefinedTiles, res.Partitions, len(j.units))
		}

		// (e) The warm schedule rebuild is the same build: first a changed
		// threshold on unchanged inputs, then a delta whose change takes a
		// cold tile across the trigger. Tile (1,1) holds two rects a side,
		// cost 8; one more R rect makes it 11.
		cfg := Config{Workers: workers, Grid: 2, RefineThreshold: RefineDisabled}
		j.Join(r, s, cfg)
		cfg.RefineThreshold = 10
		res = j.Join(r, s, cfg)
		if res.Reuse != ReuseClean || res.RefinedTiles != 1 || len(j.earlyUnits) != 1 {
			t.Fatalf("%s: tier %q, %d refined tiles, %d early units",
				name("threshold changed"), res.Reuse, res.RefinedTiles, len(j.earlyUnits))
		}
		if !requireFreshJoin(t, name("threshold changed"), j, res, r, s, cfg) {
			t.Fatalf("%s: schedules not comparable", name("threshold changed"))
		}
		r[5].Rect = geom.NewRect(50, 50, 50.5, 50.5)
		res = j.Join(r, s, cfg)
		if res.Reuse != ReuseDelta || res.RefinedTiles != 2 || len(j.earlyUnits) != 0 {
			t.Fatalf("%s: tier %q, %d refined tiles, %d early units",
				name("across the trigger"), res.Reuse, res.RefinedTiles, len(j.earlyUnits))
		}
		if !requireFreshJoin(t, name("across the trigger"), j, res, r, s, cfg) {
			t.Fatalf("%s: schedules not comparable", name("across the trigger"))
		}
	}
}
