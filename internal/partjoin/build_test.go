package partjoin

import (
	"fmt"
	"math/rand"
	"testing"

	"spjoin/internal/geom"
	"spjoin/internal/rtree"
	"spjoin/internal/timeline"
)

// requireFreshJoin holds a resident Joiner's join of (r, s) — the result res
// and the cache it left behind — against brute force and against a fresh
// Joiner's cold join of the same inputs under cfg: the same pair sequence
// (both sorted by the caller) always; the same cached structures wherever the grids
// coincide (the delta tier keeps its grid frozen); the fresh schedule cut
// into the resident one's frozen part counts wherever the two were built
// under the same trigger; and, where the part counts agree too, the same
// counters (see freshStateDiff). It reports whether the schedules were the
// same, part counts included.
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
// is the join phase's concurrency stress: the workers claim whole tiles and
// the units of split tiles off one cursor with real parallelism.
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
// a fine split on a clustered workload: units appear, every join does the
// unsplit join's work, the schedule is a fresh build's, and the clean fast
// path reuses it allocation-free.
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
			t.Fatalf("w=%d: clustered workload did not split", workers)
		}
		stage := fmt.Sprintf("w=%d", workers)
		requireUnsplitWork(t, stage, res, r, s, cfg)
		if !requireFreshJoin(t, stage, &j, res, r, s, cfg) {
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

// TestHandoffCorners (named for the refinement hand-off the split replaced)
// pins the split's corner cases, each with one worker and with more workers
// than units, against brute force, a fresh Joiner and the unsplit join's
// work.
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
			requireUnsplitWork(t, name(c), res, r, s, cfg)
			if res.Partitions != len(j.units) {
				t.Fatalf("%s: %d of %d units joined", name(c), res.Partitions, len(j.units))
			}
			return j, res
		}

		// (a) A small stack of identical rects: the one tile is hot, but the
		// batch path joins it, so it stays one whole unit.
		_, res := run("batch tile", stack(6, 0), stack(5, 100), Config{Grid: 1, RefineThreshold: 1})
		if res.Partitions != 1 || res.RefinedTiles != 0 || len(res.Candidates) != 30 {
			t.Fatalf("%s: %d units, %d split tiles, %d pairs",
				name("batch tile"), res.Partitions, res.RefinedTiles, len(res.Candidates))
		}

		// (b) A tile of identical rects: every MinX is equal, and the cut
		// still gives one unit per event.
		_, res = run("identical rects", stack(12, 0), stack(10, 100), Config{Grid: 1, RefineThreshold: 1})
		if res.Partitions != 22 || res.RefinedTiles != 1 || res.Subtiles != 22 || len(res.Candidates) != 120 {
			t.Fatalf("%s: %d units, %d split tiles into %d units, %d pairs",
				name("identical rects"), res.Partitions, res.RefinedTiles, res.Subtiles, len(res.Candidates))
		}

		// (c) R in one corner of the only tile, S in the opposite one: the
		// units run, nothing intersects.
		_, res = run("disjoint corners", corner(12, 0, 0, 0), corner(12, 90, 90, 100), Config{Grid: 1, RefineThreshold: 1})
		if res.RefinedTiles != 1 || res.Subtiles != 24 || len(res.Candidates) != 0 {
			t.Fatalf("%s: %d split tiles into %d units, %d pairs",
				name("disjoint corners"), res.RefinedTiles, res.Subtiles, len(res.Candidates))
		}

		// (d) Every root tile hot: everything joined is a split tile's unit
		// or a batch tile.
		rng := rand.New(rand.NewSource(79))
		r := items(randomRects(rng, 300, 100, 6), 0)
		s := items(randomRects(rng, 300, 100, 6), 10000)
		_, res = run("all hot", r, s, Config{Grid: 3, RefineThreshold: 1})
		if res.RefinedTiles == 0 {
			t.Fatalf("%s: no tile split", name("all hot"))
		}

		// (e) Hot and cold tiles side by side, fewer units than workers at
		// eight: a dense corner tile, cost 1680, split four ways at trigger
		// 1000, over a sparse background tile.
		r = append(corner(40, 1, 1, 0), corner(2, 60, 60, 50)...)
		s = append(corner(40, 1, 1, 100), corner(2, 60, 60, 150)...)
		j, res := run("mixed", r, s, Config{Grid: 2, RefineThreshold: 1000})
		if res.RefinedTiles != 1 || res.Subtiles != 4 || res.Partitions != 5 {
			t.Fatalf("%s: %d split tiles into %d units, %d units joined",
				name("mixed"), res.RefinedTiles, res.Subtiles, res.Partitions)
		}

		// (f) The warm schedule rebuild is the same build: first a changed
		// threshold on unchanged inputs, then a delta whose change takes a
		// cold tile across the trigger. Tile (1,1) holds two rects a side,
		// cost 8; one more R rect makes it 11 — hot, but a batch tile.
		cfg := Config{Workers: workers, Grid: 2, RefineThreshold: RefineDisabled}
		j.Join(r, s, cfg)
		cfg.RefineThreshold = 10
		res = j.Join(r, s, cfg)
		if res.Reuse != ReuseClean || res.RefinedTiles != 1 || res.PhaseNS[timeline.PhaseRefine] == 0 {
			t.Fatalf("%s: tier %q, %d split tiles, %d ns of schedule build",
				name("threshold changed"), res.Reuse, res.RefinedTiles, res.PhaseNS[timeline.PhaseRefine])
		}
		if !requireFreshJoin(t, name("threshold changed"), j, res, r, s, cfg) {
			t.Fatalf("%s: schedules not comparable", name("threshold changed"))
		}
		r[5].Rect = geom.NewRect(50, 50, 50.5, 50.5)
		res = j.Join(r, s, cfg)
		if res.Reuse != ReuseDelta || res.RefinedTiles != 1 || res.PhaseNS[timeline.PhaseRefine] == 0 {
			t.Fatalf("%s: tier %q, %d split tiles, %d ns of schedule build",
				name("across the trigger"), res.Reuse, res.RefinedTiles, res.PhaseNS[timeline.PhaseRefine])
		}
		if !requireFreshJoin(t, name("across the trigger"), j, res, r, s, cfg) {
			t.Fatalf("%s: schedules not comparable", name("across the trigger"))
		}
		requireUnsplitWork(t, name("across the trigger"), res, r, s, cfg)

		// (g) A split tile shrunk to a batch tile by deltas: tile (0,0) holds
		// 12 R and 101 S rects (cost 1,325, 113 units at trigger 10); four R
		// rects move to a tile without S rects, so the tile keeps its 113
		// frozen units, stays hot at cost 917, and its 8 R rects take the
		// batch path — joined whole by part 0, once.
		var rs, ss []geom.Rect
		for i := 0; i < 12; i++ {
			d := float64(i) * 0.7
			rs = append(rs, geom.NewRect(1+d, 1+d, 2.5+d, 2.5+d))
		}
		r = items(append(rs, geom.NewRect(99.9, 99.9, 100, 100)), 0)
		for i := 0; i < 100; i++ {
			x, y := 1+float64(i%10)*0.9, 1+float64(i/10)*0.9
			ss = append(ss, geom.NewRect(x, y, x+1, y+1))
		}
		s = items(append(ss, geom.NewRect(0, 0, 0.1, 0.1)), 1000)
		cfg = Config{Workers: workers, Grid: 2, RefineThreshold: 10}
		j, res = run("shrunk to batch", r, s, cfg)
		if res.RefinedTiles != 1 || res.Subtiles != 113 {
			t.Fatalf("%s: %d split tiles into %d units", name("shrunk to batch"), res.RefinedTiles, res.Subtiles)
		}
		for i := 0; i < 4; i++ {
			r[i].Rect = geom.NewRect(90+float64(i), 90, 90.5+float64(i), 90.5)
		}
		res = j.Join(r, s, cfg)
		if res.Reuse != ReuseDelta || res.PhaseNS[timeline.PhaseRefine] != 0 || res.Partitions != 113 {
			t.Fatalf("%s: tier %q, %d ns of schedule build, %d units joined; want delta, none and 113",
				name("shrunk to batch"), res.Reuse, res.PhaseNS[timeline.PhaseRefine], res.Partitions)
		}
		requireFreshJoin(t, name("shrunk to batch"), j, res, r, s, cfg)
		requireUnsplitWork(t, name("shrunk to batch"), res, r, s, cfg)
	}
}
