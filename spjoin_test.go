package spjoin

import (
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"spjoin/internal/join"
	"spjoin/internal/parnative"
)

func sampleTrees(tb testing.TB) (*Tree, *Tree) {
	tb.Helper()
	streets, mixed := SampleMaps(0.01, 42)
	return BuildSTR(streets, 0.73), BuildSTR(mixed, 0.73)
}

func TestBuildAndJoin(t *testing.T) {
	streets, mixed := SampleMaps(0.005, 42)
	r := Build(streets)
	s := Build(mixed)
	seq := Join(r, s)
	par := JoinParallel(r, s, 4)
	if len(seq) != len(par) {
		t.Fatalf("sequential %d vs parallel %d candidates", len(seq), len(par))
	}
	seen := map[[2]ID]bool{}
	for _, c := range seq {
		seen[[2]ID{c.R, c.S}] = true
	}
	for _, c := range par {
		if !seen[[2]ID{c.R, c.S}] {
			t.Fatalf("parallel produced unexpected pair %v/%v", c.R, c.S)
		}
	}
}

// TestNaNRectJoinsEverythingElse pins the public API on an STR-built tree
// holding one rect with a NaN coordinate: that rect matches nothing, and
// every other pair is still found, sequentially and in parallel.
func TestNaNRectJoinsEverythingElse(t *testing.T) {
	streets, mixed := SampleMaps(0.05, 42)
	streets[len(streets)/2].Rect.MinY = math.NaN()
	mixed[len(mixed)/3].Rect.MinX = math.NaN()
	want := 0
	for _, a := range streets {
		for _, b := range mixed {
			if a.Rect.Intersects(b.Rect) {
				want++
			}
		}
	}
	if want == 0 {
		t.Fatal("brute force found no pairs — test premise broken")
	}
	r, s := BuildSTR(streets, 0.73), BuildSTR(mixed, 0.73)
	if got := len(Join(r, s)); got != want {
		t.Errorf("Join: %d pairs, brute force %d", got, want)
	}
	for _, workers := range []int{1, 2, 4} {
		if got := len(JoinParallel(r, s, workers)); got != want {
			t.Errorf("JoinParallel(%d workers): %d pairs, brute force %d", workers, got, want)
		}
	}
}

func TestJoinParallelSortedDeterministic(t *testing.T) {
	r, s := sampleTrees(t)
	a := JoinParallel(r, s, 0)
	b := JoinParallel(r, s, 8)
	if len(a) != len(b) {
		t.Fatal("worker count changed the result size")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("results diverge at %d", i)
		}
	}
}

func TestSimulateSmoke(t *testing.T) {
	r, s := sampleTrees(t)
	res := Simulate(r, s, DefaultSimConfig(8, 8, 200))
	if res.Candidates == 0 {
		t.Fatal("simulation found no candidates")
	}
	if res.ResponseTime <= 0 {
		t.Fatal("no virtual time elapsed")
	}
	if res.Candidates != len(Join(r, s)) {
		t.Fatalf("simulated candidates %d != sequential %d", res.Candidates, len(Join(r, s)))
	}
}

func TestNewRect(t *testing.T) {
	r := NewRect(2, 3, 0, 1)
	if r.MinX != 0 || r.MinY != 1 || r.MaxX != 2 || r.MaxY != 3 {
		t.Fatalf("NewRect = %v", r)
	}
}

func TestDefaultTreeParams(t *testing.T) {
	p := DefaultTreeParams()
	if p.MaxDirEntries != 102 || p.MaxDataEntries != 26 {
		t.Fatalf("unexpected defaults: %+v", p)
	}
}

func TestSampleFeaturesAndJoinRefined(t *testing.T) {
	streets, mixed := SampleFeatures(0.01, 42)
	if len(streets) == 0 || len(mixed) == 0 {
		t.Fatal("no features generated")
	}
	r := BuildFeatures(streets)
	s := BuildFeatures(mixed)
	candidates := JoinParallel(r, s, 4)
	answers, falseHits := JoinRefined(r, s,
		func(id ID) Shape { return streets[id].Shape },
		func(id ID) Shape { return mixed[id].Shape }, 4)
	if len(answers)+falseHits != len(candidates) {
		t.Fatalf("answers %d + false hits %d != candidates %d",
			len(answers), falseHits, len(candidates))
	}
	// Every answer must pass the exact predicate; every rejected candidate
	// must fail it.
	for _, a := range answers {
		if !streets[a.R].Shape.Intersects(mixed[a.S].Shape) {
			t.Fatalf("answer %d/%d fails the exact test", a.R, a.S)
		}
	}
}

// TestJoinRefinedPanicReachesCaller makes one shape panic inside a worker:
// the caller's recover sees the panic value, and the next joins over the
// same trees are exact.
func TestJoinRefinedPanicReachesCaller(t *testing.T) {
	streets, mixed := SampleFeatures(0.01, 42)
	r, s := BuildFeatures(streets), BuildFeatures(mixed)
	cands := JoinParallel(r, s, 4)
	bad := cands[len(cands)/2].R
	want := fmt.Sprintf("no shape for %d", bad)
	shapeS := func(id ID) Shape { return mixed[id].Shape }
	got := func() (p any) {
		defer func() { p = recover() }()
		JoinRefined(r, s, func(id ID) Shape {
			if id == bad {
				panic(want)
			}
			return streets[id].Shape
		}, shapeS, 4)
		return nil
	}()
	if got != want {
		t.Fatalf("recovered %v, want %q", got, want)
	}
	seq := Join(r, s)
	join.SortCandidates(seq)
	if par := JoinParallel(r, s, 4); !slices.Equal(par, seq) {
		t.Fatalf("join after the panic: %d pairs, Sequential %d", len(par), len(seq))
	}
	answers, falseHits := JoinRefined(r, s, func(id ID) Shape { return streets[id].Shape }, shapeS, 4)
	if len(answers)+falseHits != len(seq) {
		t.Fatalf("refined join after the panic: %d answers + %d false hits, want %d candidates",
			len(answers), falseHits, len(seq))
	}
}

func TestShapeConstructors(t *testing.T) {
	seg := SegmentShape(0, 0, 2, 2)
	box := BoxShape(NewRect(1, 1, 3, 3))
	if !seg.Intersects(box) {
		t.Fatal("segment should hit box")
	}
	if seg.Intersects(BoxShape(NewRect(5, 5, 6, 6))) {
		t.Fatal("segment should miss far box")
	}
}

func TestSimConfigEnumsExported(t *testing.T) {
	cfg := DefaultSimConfig(2, 2, 10)
	cfg.Assign = StaticRange
	cfg.Buffer = LocalBuffers
	cfg.Reassign = ReassignRoot
	cfg.Victim = RandomVictim
	r, s := sampleTrees(t)
	res := Simulate(r, s, cfg)
	if res.Candidates == 0 {
		t.Fatal("configured simulation found nothing")
	}
	cfg.Buffer = GlobalBuffer
	cfg.Assign = Dynamic
	cfg.Reassign = ReassignAll
	cfg.Victim = MostLoaded
	res2 := Simulate(r, s, cfg)
	if res2.Candidates != res.Candidates {
		t.Fatal("variants disagree on candidates")
	}
}

func TestOutOfCoreFacade(t *testing.T) {
	r, s := sampleTrees(t)
	dir := t.TempDir()
	rPath := filepath.Join(dir, "r.spjf")
	sPath := filepath.Join(dir, "s.spjf")
	if err := SaveTree(r, rPath); err != nil {
		t.Fatal(err)
	}
	if err := SaveTree(s, sPath); err != nil {
		t.Fatal(err)
	}
	pr, closeR, err := OpenTree(rPath, 32)
	if err != nil {
		t.Fatal(err)
	}
	defer closeR()
	ps, closeS, err := OpenTree(sPath, 32)
	if err != nil {
		t.Fatal(err)
	}
	defer closeS()
	pairs, reads, err := JoinOutOfCore(pr, ps)
	if err != nil {
		t.Fatal(err)
	}
	if reads == 0 {
		t.Fatal("no physical reads")
	}
	if len(pairs) != len(Join(r, s)) {
		t.Fatalf("out-of-core found %d pairs, in-memory %d", len(pairs), len(Join(r, s)))
	}
}

// openOutOfCore persists r and s with SaveTree and opens both with a pool
// of frames pages each.
func openOutOfCore(t *testing.T, r, s *Tree, frames int) (*PagedTree, *PagedTree) {
	t.Helper()
	dir := t.TempDir()
	open := func(tree *Tree, name string) *PagedTree {
		path := filepath.Join(dir, name)
		if err := SaveTree(tree, path); err != nil {
			t.Fatal(err)
		}
		pt, closeTree, err := OpenTree(path, frames)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { closeTree() })
		return pt
	}
	return open(r, "r.spjf"), open(s, "s.spjf")
}

// TestOutOfCoreReadsPinned pins the out-of-core join's candidates and
// physical reads on the examples/outofcore input: the traversal order, and
// with it every buffer-pool miss, is part of the contract.
func TestOutOfCoreReadsPinned(t *testing.T) {
	streets, features := SampleMaps(0.05, 42)
	r, s := BuildSTR(streets, 0.73), BuildSTR(features, 0.73)
	for _, tc := range []struct {
		frames int
		reads  int64
	}{{64, 792}, {1024, 729}} {
		pr, ps := openOutOfCore(t, r, s, tc.frames)
		pairs, reads, err := JoinOutOfCore(pr, ps)
		if err != nil {
			t.Fatal(err)
		}
		if len(pairs) != 407 || reads != tc.reads {
			t.Errorf("%d frames: %d candidates, %d reads; want 407, %d",
				tc.frames, len(pairs), reads, tc.reads)
		}
	}
}

func TestOutOfCoreSmallPoolMoreReads(t *testing.T) {
	r, s := sampleTrees(t)
	_, big, err := JoinOutOfCore(openOutOfCore(t, r, s, 256))
	if err != nil {
		t.Fatal(err)
	}
	_, small, err := JoinOutOfCore(openOutOfCore(t, r, s, 2))
	if err != nil {
		t.Fatal(err)
	}
	if small <= big {
		t.Fatalf("tiny pool reads %d <= big pool reads %d", small, big)
	}
}

func TestOutOfCoreEmptyTrees(t *testing.T) {
	empty := Build(nil)
	pairs, reads, err := JoinOutOfCore(openOutOfCore(t, empty, empty, 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 0 || reads != 0 {
		t.Fatalf("empty out-of-core join: %d pairs, %d reads", len(pairs), reads)
	}
}

// TestOutOfCoreSelfReferencingRoot joins a crafted page file whose root
// entries all point back at the root page. Both paged joins must fail with
// the level mismatch instead of descending forever.
func TestOutOfCoreSelfReferencingRoot(t *testing.T) {
	streets, features := SampleMaps(0.05, 42)
	r, s := BuildSTR(streets, 0.73), BuildSTR(features, 0.73)
	root := r.Node(r.Root())
	for i := range root.Entries {
		root.Entries[i].Child = r.Root()
	}
	pr, ps := openOutOfCore(t, r, s, 64)
	want := fmt.Sprintf("page %d is level %d, parent expects %d", r.Root(), root.Level, root.Level-1)
	for name, run := range map[string]func() error{
		"JoinOutOfCore": func() error { _, _, err := JoinOutOfCore(pr, ps); return err },
		"JoinPaged": func() error {
			_, err := parnative.JoinPaged(pr, ps, parnative.Config{Workers: 4})
			return err
		},
	} {
		done := make(chan error, 1)
		go func() { done <- run() }()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: err %v, want %q", name, err, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s still running after 10 s: the traversal loops", name)
		}
	}
}

func TestQueryWindowsFacade(t *testing.T) {
	r, _ := sampleTrees(t)
	windows := []Rect{
		NewRect(0, 0, 300, 300),
		NewRect(300, 300, 600, 600),
		NewRect(-10, -10, -5, -5), // empty
	}
	res := QueryWindows(r, windows, 4)
	if len(res) != 3 {
		t.Fatalf("got %d result sets", len(res))
	}
	if len(res[2]) != 0 {
		t.Fatalf("empty window returned %d ids", len(res[2]))
	}
	total := 0
	for _, ids := range res {
		total += len(ids)
	}
	if total == 0 {
		t.Fatal("no query results at all")
	}
}

func TestNearestNeighborsFacade(t *testing.T) {
	r, _ := sampleTrees(t)
	nn := NearestNeighbors(r, 300, 300, 5)
	if len(nn) != 5 {
		t.Fatalf("got %d neighbors", len(nn))
	}
	for i := 1; i < len(nn); i++ {
		if nn[i].Dist < nn[i-1].Dist {
			t.Fatal("neighbors not sorted by distance")
		}
	}
}
