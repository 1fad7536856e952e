package partjoin

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"spjoin/internal/geom"
	"spjoin/internal/join"
	"spjoin/internal/metrics"
	"spjoin/internal/rtree"
	"spjoin/internal/runtimeobs"
	"spjoin/internal/tiger"
	"spjoin/internal/timeline"
)

type pairKey struct{ r, s rtree.EntryID }

func toSet(tb testing.TB, cands []join.Candidate) map[pairKey]bool {
	tb.Helper()
	set := make(map[pairKey]bool, len(cands))
	for _, c := range cands {
		k := pairKey{c.R, c.S}
		if set[k] {
			tb.Fatalf("duplicate candidate %v", k)
		}
		set[k] = true
	}
	return set
}

// sortedCands returns a copy of an engine result ordered by (R, S) id — the
// caller-side sort that makes results comparable element for element. It
// copies because a Joiner's result is a view the next join overwrites.
func sortedCands(cands []join.Candidate) []join.Candidate {
	out := slices.Clone(cands)
	join.SortCandidates(out)
	return out
}

// items wraps rects as rtree items with ids distinct across both sides.
func items(rects []geom.Rect, base rtree.EntryID) []rtree.Item {
	out := make([]rtree.Item, len(rects))
	for i, r := range rects {
		out[i] = rtree.Item{ID: base + rtree.EntryID(i), Rect: r}
	}
	return out
}

func randomRects(rng *rand.Rand, n int, world, maxSide float64) []geom.Rect {
	out := make([]geom.Rect, n)
	for i := range out {
		x := rng.Float64() * world
		y := rng.Float64() * world
		out[i] = geom.NewRect(x, y, x+rng.Float64()*maxSide, y+rng.Float64()*maxSide)
	}
	return out
}

// bruteSet is the oracle: every intersecting (R item, S item) pair.
func bruteSet(r, s []rtree.Item) map[pairKey]bool {
	set := make(map[pairKey]bool)
	for _, a := range r {
		for _, b := range s {
			if a.Rect.Intersects(b.Rect) {
				set[pairKey{a.ID, b.ID}] = true
			}
		}
	}
	return set
}

func checkJoin(t *testing.T, r, s []rtree.Item, cfg Config) Result {
	t.Helper()
	res := Join(r, s, cfg)
	got := toSet(t, res.Candidates)
	want := bruteSet(r, s)
	if len(got) != len(want) {
		t.Fatalf("cfg %+v: %d pairs, want %d", cfg, len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("cfg %+v: missing pair %v", cfg, k)
		}
	}
	return res
}

// TestPartitionJoinMatchesSequential proves the partition engine's
// candidate set identical to the tree-based sequential join on the seed
// TIGER-style workload (the acceptance-criteria cross-check).
func TestPartitionJoinMatchesSequential(t *testing.T) {
	streets, mixed := tiger.Maps(0.02, 42)
	params := rtree.Params{MaxDirEntries: 12, MaxDataEntries: 12, MinFillFrac: 0.4, ReinsertFrac: 0.3}
	r := rtree.BulkLoadSTR(params, streets, 0.8)
	s := rtree.BulkLoadSTR(params, mixed, 0.8)
	seq := join.Sequential(r, s, join.Options{})
	want := toSet(t, seq)

	for _, workers := range []int{1, 2, 4, 8} {
		for _, grid := range []int{0, 1, 4, 23} {
			res := Join(streets, mixed, Config{Workers: workers, Grid: grid})
			got := toSet(t, res.Candidates)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d grid=%d: candidate set differs from sequential join (%d vs %d pairs)",
					workers, grid, len(got), len(want))
			}
		}
	}
}

func TestPartitionJoinGridShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, n := range []int{1, 5, 60, 400} {
		r := items(randomRects(rng, n, 100, 12), 0)
		s := items(randomRects(rng, n, 100, 12), 10000)
		for _, grid := range []int{0, 1, 2, 3, 7, 16, 33} {
			for _, workers := range []int{1, 3} {
				checkJoin(t, r, s, Config{Workers: workers, Grid: grid})
			}
		}
	}
}

// TestPartitionJoinDuplicateSuppression uses rects far larger than a tile
// so almost every pair spans many tiles; the set must stay exact and the
// suppressed-duplicate count must be substantial.
func TestPartitionJoinDuplicateSuppression(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	r := items(randomRects(rng, 80, 100, 60), 0)
	s := items(randomRects(rng, 80, 100, 60), 10000)
	res := checkJoin(t, r, s, Config{Workers: 4, Grid: 8})
	if res.Duplicates == 0 {
		t.Fatal("expected cross-tile duplicates to be suppressed with tile-spanning rects")
	}
}

// TestPartitionJoinTouchingEdges pins tile-boundary behavior: rects that
// touch exactly on grid lines.
func TestPartitionJoinTouchingEdges(t *testing.T) {
	var rs, ss []geom.Rect
	// A lattice of abutting unit squares; each shares edges with neighbors.
	for y := 0.0; y < 8; y++ {
		for x := 0.0; x < 8; x++ {
			rs = append(rs, geom.NewRect(x, y, x+1, y+1))
		}
	}
	// Shifted by exactly one tile width under grid=8 over [0,8]: every S
	// rect lands on tile boundaries.
	for _, r := range rs {
		ss = append(ss, geom.NewRect(r.MinX+1, r.MinY, r.MaxX+1, r.MaxY))
	}
	r := items(rs, 0)
	s := items(ss, 10000)
	for _, grid := range []int{1, 2, 8} {
		checkJoin(t, r, s, Config{Workers: 2, Grid: grid})
	}
}

func TestPartitionJoinEmptyInputs(t *testing.T) {
	r := items(randomRects(rand.New(rand.NewSource(1)), 5, 10, 2), 0)
	for _, tc := range [][2][]rtree.Item{{nil, r}, {r, nil}, {nil, nil}} {
		res := Join(tc[0], tc[1], Config{Workers: 2})
		if len(res.Candidates) != 0 || res.Partitions != 0 {
			t.Fatalf("empty join returned %+v", res)
		}
	}
}

// compareCands is the test's own (R, S) order, independent of the radix
// sort's key packing.
func compareCands(a, b join.Candidate) int {
	if c := cmp.Compare(a.R, b.R); c != 0 {
		return c
	}
	return cmp.Compare(a.S, b.S)
}

// TestPartitionJoinSorted pins the deterministic output order: sorted by the
// caller, the result is exactly the same (R, S)-ordered list for any worker
// count and run.
func TestPartitionJoinSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	r := items(randomRects(rng, 300, 100, 8), 0)
	s := items(randomRects(rng, 300, 100, 8), 10000)

	want := sortedCands(Join(r, s, Config{Workers: 1}).Candidates)
	if !slices.IsSortedFunc(want, compareCands) {
		t.Fatal("sorted output is not actually in (R, S) order")
	}
	for _, workers := range []int{2, 4, 7} {
		for run := 0; run < 3; run++ {
			res := Join(r, s, Config{Workers: workers})
			if !reflect.DeepEqual(sortedCands(res.Candidates), want) {
				t.Fatalf("workers=%d run %d: sorted output differs", workers, run)
			}
		}
	}
}

// TestPartitionJoinSortedMatchesUnsorted pins the caller-side ordering on a
// result spanning several buffer blocks per worker: SortCandidates (the
// radix sort) of the parallel gather returns exactly a comparison sort of
// the same output — the same id pairs in the same order.
func TestPartitionJoinSortedMatchesUnsorted(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	r := items(randomRects(rng, 1500, 100, 14), 0)
	s := items(randomRects(rng, 1500, 100, 14), 10000)
	for _, workers := range []int{1, 3} {
		unsorted := Join(r, s, Config{Workers: workers})
		if len(unsorted.Candidates) < 3*join.CandidateBlock {
			t.Fatalf("workers=%d: %d pairs, want several buffer blocks", workers, len(unsorted.Candidates))
		}
		want := slices.Clone(unsorted.Candidates)
		slices.SortFunc(want, compareCands)
		if !reflect.DeepEqual(sortedCands(unsorted.Candidates), want) {
			t.Fatalf("workers=%d: radix order differs from the comparison sort", workers)
		}
	}
}

// TestJoinOneShotResultDetached pins the one-shot hand-over: Join returns
// the dying Joiner's own result slices instead of copies, so nothing else
// may alias them. The result is held across a second one-shot join on other
// inputs and a collection, then re-checked pair by pair.
func TestJoinOneShotResultDetached(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	r := items(randomRects(rng, 600, 100, 10), 0)
	s := items(randomRects(rng, 600, 100, 10), 10000)
	for _, cfg := range []Config{
		{Workers: 1},
		{Workers: 3},
	} {
		held := Join(r, s, cfg)
		if cap(held.Candidates) != len(held.Candidates) {
			t.Errorf("cfg %+v: one-shot result carries %d slots of slack",
				cfg, cap(held.Candidates)-len(held.Candidates))
		}
		perWorker := append([]int(nil), held.PerWorker...)

		r2 := items(randomRects(rng, 600, 100, 10), 50000)
		s2 := items(randomRects(rng, 600, 100, 10), 60000)
		other := Join(r2, s2, cfg)
		runtime.GC()

		got := toSet(t, held.Candidates)
		if want := bruteSet(r, s); !reflect.DeepEqual(got, want) {
			t.Fatalf("cfg %+v: held result changed: %d pairs, want %d", cfg, len(got), len(want))
		}
		if !reflect.DeepEqual(held.PerWorker, perWorker) {
			t.Errorf("cfg %+v: held PerWorker changed: %v, was %v", cfg, held.PerWorker, perWorker)
		}
		if !reflect.DeepEqual(toSet(t, other.Candidates), bruteSet(r2, s2)) {
			t.Fatalf("cfg %+v: second one-shot join is wrong", cfg)
		}
	}
}

// TestJoinerReuseZeroAlloc pins the steady-state allocation contract of a
// reused Joiner.
func TestJoinerReuseZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	r := items(randomRects(rng, 500, 100, 6), 0)
	s := items(randomRects(rng, 500, 100, 6), 10000)
	for _, cfg := range []Config{
		{Workers: 1},
		{Workers: 2},
	} {
		var j Joiner
		j.Join(r, s, cfg) // warm up buffers and pool
		allocs := testing.AllocsPerRun(20, func() { j.Join(r, s, cfg) })
		j.Close()
		if allocs != 0 {
			t.Errorf("cfg %+v: %.1f allocs per join, want 0", cfg, allocs)
		}
	}
}

// TestJoinerFullResortZeroAlloc pins the resident-buffer contract of the
// keyed radix sort inside a Joiner: a re-join whose R side arrives mirrored
// in x (the persisted sweep order is exactly reversed, so the repair scan
// gives up and the side is sorted outright) allocates nothing once both
// states have been seen.
func TestJoinerFullResortZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	r := items(randomRects(rng, 2000, 100, 2), 0)
	s := items(randomRects(rng, 2000, 100, 2), 10000)
	flipped := append([]rtree.Item(nil), r...)
	for i := range flipped {
		rc := &flipped[i].Rect
		rc.MinX, rc.MaxX = 100-rc.MaxX, 100-rc.MinX
	}
	for _, workers := range []int{1, 2} {
		cfg := Config{Workers: workers}
		var j Joiner
		sides := [2][]rtree.Item{r, flipped}
		k := 0
		rejoin := func() {
			res := j.Join(sides[k%2], s, cfg)
			if res.PhaseNS[timeline.PhaseSort] == 0 {
				t.Error("join over a mirrored side did not run the sort phase")
			}
			k++
		}
		for k < 4 { // warm both states' buffers
			rejoin()
		}
		allocs := testing.AllocsPerRun(10, rejoin)
		if !reflect.DeepEqual(toSet(t, j.Join(flipped, s, cfg).Candidates), bruteSet(flipped, s)) {
			t.Errorf("workers=%d: join after full re-sorts is wrong", workers)
		}
		j.Close()
		if allocs != 0 {
			t.Errorf("workers=%d: %.1f allocs per full-resort re-join, want 0", workers, allocs)
		}
	}
}

// TestJoinerReuseMutatedInputs drives one Joiner through every cache tier:
// unchanged re-joins (clean), a within-tile move, a cross-tile move and an
// order-breaking move (each one changed rect: delta), and a cardinality
// change (no usable cache: cold). Each join is checked against the
// brute-force oracle and must report the tier that served it.
func TestJoinerReuseMutatedInputs(t *testing.T) {
	for _, workers := range []int{1, 3} {
		rng := rand.New(rand.NewSource(53))
		r := items(randomRects(rng, 400, 100, 5), 0)
		s := items(randomRects(rng, 400, 100, 5), 10000)
		cfg := Config{Workers: workers, Grid: 5}
		var j Joiner
		defer j.Close()

		check := func(stage string, wantTier Reuse) {
			t.Helper()
			res := j.Join(r, s, cfg)
			got := toSet(t, res.Candidates)
			want := bruteSet(r, s)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d %s: %d pairs, want %d", workers, stage, len(got), len(want))
			}
			if res.Reuse != wantTier {
				t.Fatalf("workers=%d %s: tier %q, want %q", workers, stage, res.Reuse, wantTier)
			}
		}
		check("cold", ReuseCold)
		check("steady", ReuseClean)
		check("steady2", ReuseClean)

		// Within-tile mutation: nudge a rect's extent by less than a tile
		// (tiles are 20 units wide) without reordering MinX. The rect keeps
		// its segment slots — and must join with the mutated extents, not
		// the old ones.
		r[100].Rect.MaxX += 0.5
		r[100].Rect.MaxY -= 0.25
		check("within-tile mutation", ReuseDelta)

		// Cross-tile mutation: stretch a rect across the whole world so
		// it enters every tile up and right of its own.
		s[7].Rect.MaxX = 99
		s[7].Rect.MaxY = 99
		check("cross-tile mutation", ReuseDelta)

		// Order-breaking mutation: move a rect's MinX far left so its slot
		// in the persisted sweep order changes.
		r[300].Rect.MinX = 0.001
		check("order-breaking mutation", ReuseDelta)

		// Cardinality change invalidates the cache outright.
		s = append(s, rtree.Item{ID: 99999, Rect: geom.NewRect(1, 1, 90, 90)})
		check("appended item", ReuseCold)
		check("steady after append", ReuseClean)
	}
}

func TestPartitionJoinMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	r := items(randomRects(rng, 200, 100, 20), 0)
	s := items(randomRects(rng, 200, 100, 20), 10000)
	reg := metrics.NewRegistry()
	res := Join(r, s, Config{Workers: 3, Grid: 6, Metrics: reg})

	counters := reg.Snapshot().Counters
	if got := counters["partjoin.partitions"]; got != int64(res.Partitions) {
		t.Errorf("partitions counter %d, want %d", got, res.Partitions)
	}
	if got := counters["partjoin.duplicates_suppressed"]; got != int64(res.Duplicates) {
		t.Errorf("duplicates counter %d, want %d", got, res.Duplicates)
	}
	if got := counters["partjoin.comparisons"]; got != int64(res.Comparisons) {
		t.Errorf("comparisons counter %d, want %d", got, res.Comparisons)
	}
	if got := counters["partjoin.candidates"]; got != int64(len(res.Candidates)) {
		t.Errorf("candidates counter %d, want %d", got, len(res.Candidates))
	}
	var perWorker int64
	for w := 0; w < res.Workers; w++ {
		perWorker += counters[fmt.Sprintf("partjoin.worker.%d.pairs", w)]
	}
	if perWorker != int64(len(res.Candidates)) {
		t.Errorf("per-worker pairs sum %d, want %d", perWorker, len(res.Candidates))
	}
	sum := 0
	for _, p := range res.PerWorker {
		sum += p
	}
	if sum != len(res.Candidates) {
		t.Errorf("Result.PerWorker sums to %d, want %d", sum, len(res.Candidates))
	}
}

func TestPartitionJoinTimeline(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	r := items(randomRects(rng, 150, 100, 10), 0)
	s := items(randomRects(rng, 150, 100, 10), 10000)
	const workers = 2
	rec := timeline.NewWallRecorder(workers)
	res := Join(r, s, Config{Workers: workers, Grid: 5, Timeline: rec})

	spans := 0
	var phases [timeline.NumPhases]int
	for _, proc := range rec.Procs() {
		for _, sp := range proc.Spans {
			switch sp.Kind {
			case timeline.KindCPUSweep:
				spans++
			case timeline.KindPhase:
				if sp.Args.A < 0 || sp.Args.A >= timeline.NumPhases {
					t.Fatalf("phase span with out-of-range phase %d", sp.Args.A)
				}
				if sp.End < sp.Start {
					t.Fatalf("phase span %s ends before it starts", timeline.PhaseName(int(sp.Args.A)))
				}
				phases[sp.Args.A]++
			default:
				t.Fatalf("unexpected span kind %v", sp.Kind)
			}
		}
	}
	if spans != res.Partitions {
		t.Fatalf("%d cpu-sweep spans, want one per joined partition (%d)", spans, res.Partitions)
	}
	// Every worker contributes one sweep-phase span; a cold join also runs
	// prep and partition phases on every worker, and the owner adds the
	// refine (schedule build) and merge spans on track 0.
	if phases[timeline.PhaseSweep] != workers {
		t.Errorf("%d sweep phase spans, want %d", phases[timeline.PhaseSweep], workers)
	}
	for _, p := range []int{timeline.PhasePrep, timeline.PhasePartition} {
		if phases[p] < workers {
			t.Errorf("%d %s phase spans, want >= %d", phases[p], timeline.PhaseName(p), workers)
		}
	}
	if phases[timeline.PhaseRefine] < 1 || phases[timeline.PhaseMerge] != 1 {
		t.Errorf("refine=%d merge=%d owner phase spans, want >=1 and 1",
			phases[timeline.PhaseRefine], phases[timeline.PhaseMerge])
	}
}

// TestJoinRejectsMissizedTimeline: a recorder with the wrong track count is
// refused before the join touches anything — the progress slot never opens,
// and the Joiner joins correctly afterwards.
func TestJoinRejectsMissizedTimeline(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	r := items(randomRects(rng, 150, 100, 10), 0)
	s := items(randomRects(rng, 150, 100, 10), 10000)
	live := runtimeobs.NewLive()
	prog := live.NewProgress("partition")
	var j Joiner
	defer j.Close()
	cfg := Config{Workers: 2, Grid: 5, Progress: prog}
	requireBrute(t, "before", j.Join(r, s, cfg), r, s)

	bad := cfg
	bad.Workers, bad.Timeline = 3, timeline.NewWallRecorder(2)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("mismatched timeline track count did not panic")
			}
		}()
		j.Join(r, s, bad)
	}()
	if st, _ := prog.Status(); st.Running || st.Seq != 1 {
		t.Fatalf("refused join opened the progress slot: %+v", st)
	}
	if got := live.Snapshot(); len(got) != 0 {
		t.Fatalf("refused join is listed as live: %+v", got)
	}
	if j.workers != 2 {
		t.Fatalf("refused join resized the pool to %d workers", j.workers)
	}
	res := j.Join(r, s, cfg)
	requireBrute(t, "after", res, r, s)
	if res.Reuse != ReuseClean {
		t.Fatalf("join after a refused one: tier %q, want clean", res.Reuse)
	}
}

// TestPartitionJoinPhaseTimings pins the always-on PhaseNS contract: every
// bucket is wall time of the calling goroutine, so on every tier and worker
// count the buckets sum to no more than the wall time around the call (an
// ordering of clock readings — nothing here depends on how long a phase
// takes); prep, partition, sweep and merge are filled on a cold join, a clean
// re-join skips sort and partition, and the delta step lands in partition.
// Which tier served a join is Result.Reuse's
// to say, not an empty bucket's.
func TestPartitionJoinPhaseTimings(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		// Clustered, with an explicit threshold: the schedule build splits
		// tiles, and its time lands in the refine bucket.
		r, s := clusteredItems(1500, 0.05, 47)
		cfg := Config{Workers: workers, Grid: 6, RefineThreshold: 64}
		var j Joiner
		timed := func(stage string, want Reuse) Result {
			t.Helper()
			t0 := time.Now()
			res := j.Join(r, s, cfg)
			wall := time.Since(t0).Nanoseconds()
			if res.Reuse != want {
				t.Fatalf("w=%d %s: tier %q, want %q", workers, stage, res.Reuse, want)
			}
			var sum int64
			for p, ns := range res.PhaseNS {
				if ns < 0 {
					t.Errorf("w=%d %s: phase %s has negative time %d", workers, stage, timeline.PhaseName(p), ns)
				}
				sum += ns
			}
			if sum > wall {
				t.Errorf("w=%d %s: phases sum to %dns, more than the %dns wall: %v",
					workers, stage, sum, wall, res.PhaseNS)
			}
			return res
		}

		cold := timed("cold", ReuseCold)
		if cold.DeltaRects != 0 || cold.RefinedTiles == 0 {
			t.Errorf("w=%d cold: %d delta rects, %d split tiles, want 0 and some",
				workers, cold.DeltaRects, cold.RefinedTiles)
		}
		for _, p := range []int{timeline.PhasePrep, timeline.PhasePartition,
			timeline.PhaseRefine, timeline.PhaseSweep, timeline.PhaseMerge} {
			if cold.PhaseNS[p] <= 0 {
				t.Errorf("w=%d cold: phase %s has no time", workers, timeline.PhaseName(p))
			}
		}
		warm := timed("clean", ReuseClean)
		for _, p := range []int{timeline.PhaseSort, timeline.PhasePartition, timeline.PhaseRefine} {
			if warm.PhaseNS[p] != 0 {
				t.Errorf("w=%d clean: phase %s ran (%dns), want skipped",
					workers, timeline.PhaseName(p), warm.PhaseNS[p])
			}
		}
		if warm.PhaseNS[timeline.PhaseSweep] <= 0 || warm.PhaseNS[timeline.PhasePrep] <= 0 {
			t.Errorf("w=%d clean: sweep/prep phases missing: %v", workers, warm.PhaseNS)
		}
		// The delta step's wall time lands in the partition bucket;
		// nothing sorts.
		r[3].Rect.MaxX += 0.01
		patched := timed("delta", ReuseDelta)
		if patched.DeltaRects != 1 || patched.PhaseNS[timeline.PhasePartition] <= 0 ||
			patched.PhaseNS[timeline.PhaseSort] != 0 {
			t.Errorf("w=%d delta: %d delta rects, phases %v, want 1 and partition without sort",
				workers, patched.DeltaRects, patched.PhaseNS)
		}
		// More changes than the delta tier takes: the full build again.
		for i := 0; i < 2*deltaMax; i++ {
			r[i].Rect.MaxY += 0.01
		}
		rebuilt := timed("rebuild", ReuseRebuild)
		if rebuilt.PhaseNS[timeline.PhasePartition] <= 0 || rebuilt.PhaseNS[timeline.PhaseSweep] <= 0 {
			t.Errorf("w=%d rebuild: partition/sweep phases missing: %v", workers, rebuilt.PhaseNS)
		}
		if empty := j.Join(nil, s, cfg); empty.Reuse != "" {
			t.Errorf("w=%d empty join: tier %q, want none", workers, empty.Reuse)
		}
		j.Close()
	}
}

// TestPartitionJoinIntrospection exercises the schedule introspection every
// join fills: the top-K work units come out cost-descending and the heat grid folds the
// whole schedule's cost mass.
func TestPartitionJoinIntrospection(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	r := items(randomRects(rng, 600, 100, 8), 0)
	s := items(randomRects(rng, 600, 100, 8), 10000)

	res := Join(r, s, Config{Workers: 2, Grid: 7})
	if len(res.TopTiles) == 0 || len(res.TopTiles) > TopTileK {
		t.Fatalf("%d top tiles, want 1..%d", len(res.TopTiles), TopTileK)
	}
	var topSum int64
	for i, tc := range res.TopTiles {
		if i > 0 && tc.Cost > res.TopTiles[i-1].Cost {
			t.Fatalf("top tiles not cost-descending at %d: %+v", i, res.TopTiles)
		}
		if tc.TX < 0 || tc.TX >= res.GX || tc.TY < 0 || tc.TY >= res.GY {
			t.Fatalf("top tile %d out of grid: %+v", i, tc)
		}
		topSum += tc.Cost
	}
	if res.HeatW != 7 || res.HeatH != 7 || len(res.Heat) != 49 {
		t.Fatalf("heat grid %dx%d (%d cells), want 7x7", res.HeatW, res.HeatH, len(res.Heat))
	}
	var heatSum int64
	for _, h := range res.Heat {
		if h < 0 {
			t.Fatal("negative heat cell")
		}
		heatSum += h
	}
	if heatSum < topSum {
		t.Fatalf("heat mass %d < top-tile mass %d", heatSum, topSum)
	}

	// A grid wider than HeatSide downsamples to HeatSide.
	wide := Join(r, s, Config{Workers: 2, Grid: 24})
	if wide.HeatW != HeatSide || wide.HeatH != HeatSide {
		t.Fatalf("wide grid heat %dx%d, want %dx%d", wide.HeatW, wide.HeatH, HeatSide, HeatSide)
	}

	// Introspection must not break the steady-state allocation contract.
	cfg := Config{Workers: 2}
	var j Joiner
	defer j.Close()
	j.Join(r, s, cfg)
	if allocs := testing.AllocsPerRun(20, func() { j.Join(r, s, cfg) }); allocs != 0 {
		t.Errorf("steady-state join: %.1f allocs, want 0", allocs)
	}
}
