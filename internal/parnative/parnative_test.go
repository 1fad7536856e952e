package parnative

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"runtime"
	"sort"
	"spjoin/internal/geom"
	"testing"
	"unsafe"

	"path/filepath"

	"spjoin/internal/join"
	"spjoin/internal/pagefile"
	"spjoin/internal/rtree"
	"spjoin/internal/tiger"
	"spjoin/internal/timeline"
)

func testTrees(tb testing.TB) (*rtree.Tree, *rtree.Tree) {
	tb.Helper()
	streets, mixed := tiger.Maps(0.02, 42)
	params := rtree.Params{MaxDirEntries: 12, MaxDataEntries: 12, MinFillFrac: 0.4, ReinsertFrac: 0.3}
	return rtree.BulkLoadSTR(params, streets, 0.8),
		rtree.BulkLoadSTR(params, mixed, 0.8)
}

type pairKey struct{ r, s rtree.EntryID }

// sorted orders an engine result by (R, S) id in place — the caller-side
// sort that makes results comparable element for element — and returns it.
func sorted(cands []join.Candidate) []join.Candidate {
	join.SortCandidates(cands)
	return cands
}

func toSet(cands []join.Candidate) map[pairKey]bool {
	out := make(map[pairKey]bool, len(cands))
	for _, c := range cands {
		out[pairKey{c.R, c.S}] = true
	}
	return out
}

func TestJoinMatchesSequential(t *testing.T) {
	r, s := testTrees(t)
	want := toSet(join.Sequential(r, s, join.Options{}))
	for _, workers := range []int{1, 2, 4, 8} {
		res := Join(r, s, Config{Workers: workers})
		got := toSet(res.Candidates)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d candidates, want %d", workers, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("workers=%d: missing %v", workers, k)
			}
		}
		if res.Workers != workers {
			t.Fatalf("Workers = %d, want %d", res.Workers, workers)
		}
	}
}

func TestJoinNoDuplicates(t *testing.T) {
	r, s := testTrees(t)
	res := Join(r, s, Config{Workers: 4})
	seen := map[pairKey]bool{}
	for _, c := range res.Candidates {
		k := pairKey{c.R, c.S}
		if seen[k] {
			t.Fatalf("duplicate %v", k)
		}
		seen[k] = true
	}
}

func TestSortedDeterministic(t *testing.T) {
	r, s := testTrees(t)
	a := sorted(Join(r, s, Config{Workers: 8}).Candidates)
	b := sorted(Join(r, s, Config{Workers: 8}).Candidates)
	if len(a) != len(b) {
		t.Fatal("candidate counts differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sorted outputs diverge at %d", i)
		}
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool {
		x, y := a[i], a[j]
		if x.R != y.R {
			return x.R < y.R
		}
		return x.S < y.S
	}) {
		t.Fatal("output not sorted")
	}
}

func TestDefaultsApplied(t *testing.T) {
	r, s := testTrees(t)
	res := Join(r, s, Config{})
	if res.Workers < 1 {
		t.Fatalf("Workers = %d", res.Workers)
	}
	if res.Tasks == 0 {
		t.Fatal("no tasks created")
	}
	if len(res.PerWorker) != res.Workers {
		t.Fatalf("PerWorker len %d, want %d", len(res.PerWorker), res.Workers)
	}
	total := 0
	for _, n := range res.PerWorker {
		total += n
	}
	// PerWorker counts expanded node pairs; every task is at least one pair
	// and deeper pairs are scheduled individually.
	if total < res.Tasks {
		t.Fatalf("per-worker pair counts sum to %d, want >= %d tasks", total, res.Tasks)
	}
}

// TestSortedMatchesSequentialExactly pins the determinism contract: sorted
// by the caller, the native parallel join's result is a byte-identical
// candidate slice to the sequential engine's — same pairs, same order — for
// any worker count and across repeated runs (scheduling noise must never
// leak into the output).
func TestSortedMatchesSequentialExactly(t *testing.T) {
	r, s := testTrees(t)
	want := join.Sequential(r, s, join.Options{})
	join.SortCandidates(want)
	for _, workers := range []int{1, 2, 8} {
		for run := 0; run < 3; run++ {
			got := sorted(Join(r, s, Config{Workers: workers}).Candidates)
			if len(got) != len(want) {
				t.Fatalf("workers=%d run=%d: %d candidates, want %d",
					workers, run, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("workers=%d run=%d: candidate %d = %+v, want %+v",
						workers, run, i, got[i], want[i])
				}
			}
		}
	}
}

// TestStealingMovesWork drives a skewed task distribution hard enough that
// stealing must kick in at least once across attempts: with many workers and
// few initial tasks, most workers start empty and can only obtain work by
// stealing from the loaded deques.
func TestStealingMovesWork(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs >= 2 CPUs")
	}
	streets, mixed := tiger.Maps(0.3, 42)
	r := rtree.BulkLoadSTR(rtree.DefaultParams(), streets, 0.73)
	s := rtree.BulkLoadSTR(rtree.DefaultParams(), mixed, 0.73)
	for attempt := 0; attempt < 5; attempt++ {
		// TaskFactor 1 leaves the initial distribution coarse, so load
		// imbalance (and therefore stealing) is likely.
		res := Join(r, s, Config{Workers: 8, TaskFactor: 1})
		if res.Steals > 0 {
			return
		}
	}
	t.Error("no steal occurred in 5 skewed runs; work-stealing appears inert")
}

func TestWorkersShareTasks(t *testing.T) {
	// Needs tasks heavy enough that the first worker cannot drain the queue
	// before the others start; retry a few times since goroutine start-up
	// latency varies with the machine.
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs >= 2 CPUs")
	}
	streets, mixed := tiger.Maps(0.3, 42)
	r := rtree.BulkLoadSTR(rtree.DefaultParams(), streets, 0.73)
	s := rtree.BulkLoadSTR(rtree.DefaultParams(), mixed, 0.73)
	for attempt := 0; attempt < 5; attempt++ {
		res := Join(r, s, Config{Workers: 4})
		if res.Tasks < 4 {
			t.Skipf("only %d tasks", res.Tasks)
		}
		busy := 0
		for _, n := range res.PerWorker {
			if n > 0 {
				busy++
			}
		}
		if busy >= 2 {
			return
		}
	}
	t.Error("a single worker took every task in 5 attempts; dynamic assignment should spread work")
}

func TestEmptyJoin(t *testing.T) {
	params := rtree.Params{MaxDirEntries: 12, MaxDataEntries: 12, MinFillFrac: 0.4, ReinsertFrac: 0.3}
	empty := rtree.New(params)
	res := Join(empty, empty, Config{Workers: 4})
	if len(res.Candidates) != 0 || res.Tasks != 0 {
		t.Fatalf("empty join produced %d candidates, %d tasks", len(res.Candidates), res.Tasks)
	}
}

func BenchmarkNativeJoin(b *testing.B) {
	streets, mixed := tiger.Maps(0.1, 42)
	r := rtree.BulkLoadSTR(rtree.DefaultParams(), streets, 0.73)
	s := rtree.BulkLoadSTR(rtree.DefaultParams(), mixed, 0.73)
	for _, workers := range []int{1, 4} {
		name := map[int]string{1: "1worker", 4: "4workers"}[workers]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Join(r, s, Config{Workers: workers})
			}
		})
	}
}

func TestRefinerFiltersFalseHits(t *testing.T) {
	r, s := testTrees(t)
	all := Join(r, s, Config{Workers: 4})
	// A refiner that rejects every pair with odd R id.
	refined := Join(r, s, Config{
		Workers: 4,
		Refiner: func(c join.Candidate) bool { return c.R%2 == 0 },
	})
	wantKept := 0
	for _, c := range all.Candidates {
		if c.R%2 == 0 {
			wantKept++
		}
	}
	if len(refined.Candidates) != wantKept {
		t.Fatalf("refined kept %d, want %d", len(refined.Candidates), wantKept)
	}
	if refined.FalseHits != len(all.Candidates)-wantKept {
		t.Fatalf("false hits %d, want %d", refined.FalseHits, len(all.Candidates)-wantKept)
	}
	for _, c := range refined.Candidates {
		if c.R%2 != 0 {
			t.Fatalf("refiner leaked pair %v/%v", c.R, c.S)
		}
	}
}

func TestRefinerAcceptAllIsIdentity(t *testing.T) {
	r, s := testTrees(t)
	plain := Join(r, s, Config{Workers: 4})
	refined := Join(r, s, Config{
		Workers: 4,
		Refiner: func(join.Candidate) bool { return true },
	})
	if len(plain.Candidates) != len(refined.Candidates) || refined.FalseHits != 0 {
		t.Fatalf("accept-all refiner changed the result: %d vs %d (fh %d)",
			len(plain.Candidates), len(refined.Candidates), refined.FalseHits)
	}
	want, got := sorted(plain.Candidates), sorted(refined.Candidates)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("accept-all refiner changed candidate %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestWindowQueriesMatchSequential(t *testing.T) {
	r, _ := testTrees(t)
	rng := rand.New(rand.NewSource(12))
	queries := make([]geom.Rect, 50)
	for i := range queries {
		x, y := rng.Float64()*600, rng.Float64()*600
		queries[i] = geom.NewRect(x, y, x+10, y+10)
	}
	got := WindowQueries(r, queries, 4)
	if len(got) != len(queries) {
		t.Fatalf("result count %d", len(got))
	}
	for i, q := range queries {
		want := map[rtree.EntryID]bool{}
		r.Search(q, func(id rtree.EntryID, _ geom.Rect) bool {
			want[id] = true
			return true
		})
		if len(got[i]) != len(want) {
			t.Fatalf("query %d: %d ids, want %d", i, len(got[i]), len(want))
		}
		for _, id := range got[i] {
			if !want[id] {
				t.Fatalf("query %d: unexpected id %d", i, id)
			}
		}
	}
}

func TestWindowQueriesEmptyBatch(t *testing.T) {
	r, _ := testTrees(t)
	if got := WindowQueries(r, nil, 0); len(got) != 0 {
		t.Fatalf("empty batch returned %d results", len(got))
	}
}

func pagedPair(t *testing.T, frames int) (*rtree.PagedTree, *rtree.PagedTree, *rtree.Tree, *rtree.Tree) {
	t.Helper()
	r, s := testTrees(t)
	dir := t.TempDir()
	save := func(tree *rtree.Tree, name string) *rtree.PagedTree {
		pf, err := pagefile.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { pf.Close() })
		if err := tree.SaveToPageFile(pf); err != nil {
			t.Fatal(err)
		}
		pt, err := rtree.OpenPagedTree(pf, frames)
		if err != nil {
			t.Fatal(err)
		}
		return pt
	}
	return save(r, "r.spjf"), save(s, "s.spjf"), r, s
}

func TestJoinPagedMatchesInMemory(t *testing.T) {
	pr, ps, r, s := pagedPair(t, 32)
	want := toSet(join.Sequential(r, s, join.Options{}))
	for _, workers := range []int{1, 4} {
		res, err := JoinPaged(pr, ps, Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got := toSet(res.Candidates)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d pairs, want %d", workers, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("workers=%d: missing %v", workers, k)
			}
		}
	}
	if pr.Pool().Misses() == 0 {
		t.Fatal("no physical reads")
	}
}

func TestJoinPagedDeterministicSorted(t *testing.T) {
	pr, ps, _, _ := pagedPair(t, 16)
	a, err := JoinPaged(pr, ps, Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	b, err := JoinPaged(pr, ps, Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Candidates) != len(b.Candidates) {
		t.Fatal("sizes differ")
	}
	sorted(a.Candidates)
	sorted(b.Candidates)
	for i := range a.Candidates {
		if a.Candidates[i] != b.Candidates[i] {
			t.Fatalf("sorted outputs diverge at %d", i)
		}
	}
}

func TestJoinPagedWithRefiner(t *testing.T) {
	pr, ps, _, _ := pagedPair(t, 16)
	all, err := JoinPaged(pr, ps, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	half, err := JoinPaged(pr, ps, Config{
		Workers: 4,
		Refiner: func(c join.Candidate) bool { return c.S%2 == 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(half.Candidates)+half.FalseHits != len(all.Candidates) {
		t.Fatalf("refined %d + fh %d != all %d",
			len(half.Candidates), half.FalseHits, len(all.Candidates))
	}
}

// TestStealAccounting checks the Result's steal invariants on both the
// in-memory and the paged executor: PerWorkerSteals has one slot per
// worker and splits Steals by thief, and every steal was an attempt.
func TestStealAccounting(t *testing.T) {
	pr, ps, r, s := pagedPair(t, 16)
	engines := []struct {
		name string
		run  func(Config) Result
	}{
		{"Join", func(cfg Config) Result { return Join(r, s, cfg) }},
		{"JoinPaged", func(cfg Config) Result {
			res, err := JoinPaged(pr, ps, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}},
	}
	for _, e := range engines {
		for _, workers := range []int{1, 4, 8} {
			t.Run(fmt.Sprintf("%s/w%d", e.name, workers), func(t *testing.T) {
				res := e.run(Config{Workers: workers})
				if len(res.PerWorkerSteals) != res.Workers {
					t.Fatalf("len(PerWorkerSteals) = %d, want %d", len(res.PerWorkerSteals), res.Workers)
				}
				sum := 0
				for _, n := range res.PerWorkerSteals {
					sum += n
				}
				if sum != res.Steals {
					t.Fatalf("sum(PerWorkerSteals) = %d, Steals = %d", sum, res.Steals)
				}
				if res.Steals > res.StealAttempts {
					t.Fatalf("Steals = %d > StealAttempts = %d", res.Steals, res.StealAttempts)
				}
			})
		}
	}
}

// TestJoinPhaseTimings pins the tree executor's PhaseNS buckets: prep,
// partition (task creation), sweep and merge are always filled, and
// PerWorkerSteals splits the steal total by the thief.
func TestJoinPhaseTimings(t *testing.T) {
	r, s := testTrees(t)
	res := Join(r, s, Config{Workers: 4})
	for _, p := range []int{timeline.PhasePrep, timeline.PhasePartition,
		timeline.PhaseSweep, timeline.PhaseMerge} {
		if res.PhaseNS[p] <= 0 {
			t.Errorf("phase %s has no wall time", timeline.PhaseName(p))
		}
	}
	for _, p := range []int{timeline.PhaseSort, timeline.PhaseRefine} {
		if res.PhaseNS[p] != 0 {
			t.Errorf("phase %s filled (%dns); the tree executor never runs it",
				timeline.PhaseName(p), res.PhaseNS[p])
		}
	}
	if len(res.PerWorkerSteals) != res.Workers {
		t.Fatalf("PerWorkerSteals has %d slots, want %d", len(res.PerWorkerSteals), res.Workers)
	}
	sum := 0
	for _, n := range res.PerWorkerSteals {
		sum += n
	}
	if sum != res.Steals {
		t.Errorf("PerWorkerSteals sums to %d, want Steals=%d", sum, res.Steals)
	}
}

// TestJoinTimelinePhaseSpans checks the wall recorder carries the phase
// spans the Perfetto export names "phase:<name>".
func TestJoinTimelinePhaseSpans(t *testing.T) {
	r, s := testTrees(t)
	const workers = 3
	rec := timeline.NewWallRecorder(workers)
	Join(r, s, Config{Workers: workers, Timeline: rec})
	var phases [timeline.NumPhases]int
	for _, proc := range rec.Procs() {
		for _, sp := range proc.Spans {
			if sp.Kind != timeline.KindPhase {
				continue
			}
			if sp.Args.A < 0 || sp.Args.A >= timeline.NumPhases {
				t.Fatalf("phase span with out-of-range phase %d", sp.Args.A)
			}
			phases[sp.Args.A]++
		}
	}
	if phases[timeline.PhaseSweep] != workers {
		t.Errorf("%d sweep phase spans, want %d", phases[timeline.PhaseSweep], workers)
	}
	if phases[timeline.PhasePrep] != 1 || phases[timeline.PhasePartition] != 1 ||
		phases[timeline.PhaseMerge] != 1 {
		t.Errorf("owner phase spans prep=%d partition=%d merge=%d, want 1 each",
			phases[timeline.PhasePrep], phases[timeline.PhasePartition], phases[timeline.PhaseMerge])
	}
}

// bigRectTrees builds the replication-regime workload of the planner corpus
// (3,000 rects a side, each an eighth of the world wide): few rectangles,
// about half a million pairs — an output of over a hundred buffer blocks.
func bigRectTrees(tb testing.TB) (*rtree.Tree, *rtree.Tree) {
	tb.Helper()
	side := func(seed int64) *rtree.Tree {
		items := tiger.Uniform(3000, 1, seed)
		for i := range items {
			items[i].Rect.MaxX = items[i].Rect.MinX + tiger.World/8
			items[i].Rect.MaxY = items[i].Rect.MinY + tiger.World/8
		}
		return rtree.BulkLoadSTR(rtree.DefaultParams(), items, 0.73)
	}
	return side(5), side(6)
}

// TestJoinOutputAllocationBounded pins the output path's allocation
// contract so the append-growth ladder cannot come back: collecting the
// candidates costs their buffer blocks plus the exact-size result — in
// count, blocks + O(workers); in bytes, what those hold — where a slice
// grown by append allocates about five times the result. The traversal's
// own allocations are measured by a run whose Refiner rejects every
// candidate and subtracted.
func TestJoinOutputAllocationBounded(t *testing.T) {
	r, s := bigRectTrees(t)
	const workers = 3
	measure := func(cfg Config) (res Result, mallocs, bytes int64) {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		res = Join(r, s, cfg)
		runtime.ReadMemStats(&m1)
		return res, int64(m1.Mallocs - m0.Mallocs), int64(m1.TotalAlloc - m0.TotalAlloc)
	}
	_, baseN, baseB := measure(Config{Workers: workers,
		Refiner: func(join.Candidate) bool { return false }})
	res, n, b := measure(Config{Workers: workers})

	const candBytes = int64(unsafe.Sizeof(join.Candidate{}))
	pairs := int64(len(res.Candidates))
	blocks := pairs/join.CandidateBlock + workers // each worker's last block is partial
	if pairs < 100*join.CandidateBlock {
		t.Fatalf("%d pairs, want over a hundred blocks — test premise broken", pairs)
	}
	// Per worker: the first block's doubling and the block list's own (log2
	// of the block size and count), a gather goroutine, and the parking
	// structures the runtime re-allocates after each collection the output
	// triggers; once: the result and the collector.
	if limit := blocks + 48*workers + 32; n-baseN > limit {
		t.Errorf("output path made %d allocations for %d blocks on %d workers, want <= %d",
			n-baseN, blocks, workers, limit)
	}
	// The blocks, the result, under one more block a worker for its doubling
	// first one, and 1 MiB for what the two traversals allocate differently
	// (which worker grows which scratch depends on the schedule).
	if limit := ((blocks+workers)*join.CandidateBlock+pairs)*candBytes + 1<<20; b-baseB > limit {
		t.Errorf("output path allocated %d B for a %d B result (%.1fx), want <= %d B",
			b-baseB, pairs*candBytes, float64(b-baseB)/float64(pairs*candBytes), limit)
	}
	t.Logf("%d pairs, %d blocks: %d allocations, %.1f B/pair (traversal alone: %d allocations, %d B)",
		pairs, blocks, n-baseN, float64(b-baseB)/float64(pairs), baseN, baseB)
}

// TestSortedMatchesSortedUnsorted pins the caller-side ordering on a
// multi-block result: SortCandidates (the radix sort) of the parallel
// gather returns exactly a comparison sort of the same output, and the
// same id pairs in the same order for every worker count.
func TestSortedMatchesSortedUnsorted(t *testing.T) {
	r, s := bigRectTrees(t)
	var first []join.Candidate
	for _, workers := range []int{1, 3} {
		cands := Join(r, s, Config{Workers: workers}).Candidates
		want := slices.Clone(cands)
		slices.SortFunc(want, func(a, b join.Candidate) int {
			if c := cmp.Compare(a.R, b.R); c != 0 {
				return c
			}
			return cmp.Compare(a.S, b.S)
		})
		got := sorted(cands)
		if !slices.Equal(got, want) {
			t.Fatalf("workers=%d: radix order differs from the comparison sort", workers)
		}
		if first == nil {
			first = got
		} else if !slices.Equal(got, first) {
			t.Fatalf("workers=%d: sorted result differs from workers=1", workers)
		}
	}
}
