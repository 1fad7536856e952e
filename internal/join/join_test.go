package join

import (
	"math/rand"
	"spjoin/internal/buffer"
	"testing"

	"spjoin/internal/geom"
	"spjoin/internal/rtree"
	"spjoin/internal/storage"
)

func smallParams() rtree.Params {
	return rtree.Params{MaxDirEntries: 6, MaxDataEntries: 6, MinFillFrac: 0.4, ReinsertFrac: 0.3}
}

func randItems(n int, seed int64, world, maxSide float64) []rtree.Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]rtree.Item, n)
	for i := range items {
		x := rng.Float64() * world
		y := rng.Float64() * world
		items[i] = rtree.Item{
			ID:   rtree.EntryID(i),
			Rect: geom.NewRect(x, y, x+rng.Float64()*maxSide, y+rng.Float64()*maxSide),
		}
	}
	return items
}

func buildTree(t *testing.T, items []rtree.Item) *rtree.Tree {
	t.Helper()
	tr := rtree.New(smallParams())
	for _, it := range items {
		tr.Insert(it.ID, it.Rect)
	}
	if err := tr.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	return tr
}

type pairKey struct{ r, s rtree.EntryID }

func bruteForceJoin(rs, ss []rtree.Item) map[pairKey]bool {
	out := map[pairKey]bool{}
	for _, r := range rs {
		for _, s := range ss {
			if r.Rect.Intersects(s.Rect) {
				out[pairKey{r.ID, s.ID}] = true
			}
		}
	}
	return out
}

func candidateSet(cands []Candidate) map[pairKey]bool {
	out := make(map[pairKey]bool, len(cands))
	for _, c := range cands {
		out[pairKey{c.R, c.S}] = true
	}
	return out
}

func assertSameSet(t *testing.T, got map[pairKey]bool, want map[pairKey]bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("candidate count %d, want %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("missing candidate %v", k)
		}
	}
}

func TestSequentialMatchesBruteForce(t *testing.T) {
	rs := randItems(400, 1, 100, 5)
	ss := randItems(350, 2, 100, 5)
	tr, ts := buildTree(t, rs), buildTree(t, ss)
	got := candidateSet(Sequential(tr, ts, Options{}))
	assertSameSet(t, got, bruteForceJoin(rs, ss))
}

func TestSequentialNoDuplicates(t *testing.T) {
	rs := randItems(300, 3, 50, 5)
	ss := randItems(300, 4, 50, 5)
	tr, ts := buildTree(t, rs), buildTree(t, ss)
	cands := Sequential(tr, ts, Options{})
	seen := map[pairKey]bool{}
	for _, c := range cands {
		k := pairKey{c.R, c.S}
		if seen[k] {
			t.Fatalf("duplicate candidate %v", k)
		}
		seen[k] = true
	}
}

func TestOptionsDoNotChangeResult(t *testing.T) {
	rs := randItems(300, 5, 100, 6)
	ss := randItems(280, 6, 100, 6)
	tr, ts := buildTree(t, rs), buildTree(t, ss)
	want := candidateSet(Sequential(tr, ts, Options{}))
	variants := []Options{
		{DisableRestriction: true},
		{NestedLoops: true},
		{DisableRestriction: true, NestedLoops: true},
	}
	for i, opts := range variants {
		got := candidateSet(Sequential(tr, ts, opts))
		if len(got) != len(want) {
			t.Fatalf("variant %d: %d candidates, want %d", i, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("variant %d missing %v", i, k)
			}
		}
	}
}

func TestRestrictionReducesComparisons(t *testing.T) {
	rs := randItems(2000, 7, 100, 3)
	ss := randItems(2000, 8, 100, 3)
	tr, ts := buildTree(t, rs), buildTree(t, ss)
	count := func(opts Options) int {
		total := 0
		root, _ := RootPair(tr, ts)
		e := Engine{
			Src:           DirectSource{R: tr, S: ts},
			Opts:          opts,
			OnComparisons: func(n int) { total += n },
		}
		e.Run(root)
		return total
	}
	sweep := count(Options{})
	nested := count(Options{NestedLoops: true})
	if sweep >= nested {
		t.Errorf("plane sweep used %d comparisons, nested loops %d — sweep should win", sweep, nested)
	}
}

func TestUnequalHeightTrees(t *testing.T) {
	rs := randItems(500, 9, 100, 5)
	ss := randItems(10, 10, 100, 5) // tiny tree, lower height
	tr, ts := buildTree(t, rs), buildTree(t, ss)
	if tr.Height() == ts.Height() {
		t.Skip("trees accidentally same height")
	}
	got := candidateSet(Sequential(tr, ts, Options{}))
	assertSameSet(t, got, bruteForceJoin(rs, ss))
	// And mirrored.
	got2 := candidateSet(Sequential(ts, tr, Options{}))
	want2 := map[pairKey]bool{}
	for k := range bruteForceJoin(ss, rs) {
		want2[k] = true
	}
	assertSameSet(t, got2, want2)
}

func TestEmptyTrees(t *testing.T) {
	empty := rtree.New(smallParams())
	full := buildTree(t, randItems(50, 11, 10, 2))
	if got := Sequential(empty, full, Options{}); got != nil {
		t.Errorf("empty R side returned %d candidates", len(got))
	}
	if got := Sequential(full, empty, Options{}); got != nil {
		t.Errorf("empty S side returned %d candidates", len(got))
	}
	if got := Sequential(empty, empty, Options{}); got != nil {
		t.Errorf("both empty returned %d candidates", len(got))
	}
}

func TestDisjointTrees(t *testing.T) {
	rs := randItems(50, 12, 10, 1)
	ss := make([]rtree.Item, 50)
	for i, it := range randItems(50, 13, 10, 1) {
		r := it.Rect
		ss[i] = rtree.Item{ID: it.ID,
			Rect: geom.NewRect(r.MinX+1000, r.MinY+1000, r.MaxX+1000, r.MaxY+1000)}
	}
	tr, ts := buildTree(t, rs), buildTree(t, ss)
	if got := Sequential(tr, ts, Options{}); len(got) != 0 {
		t.Fatalf("disjoint trees returned %d candidates", len(got))
	}
	if _, ok := RootPair(tr, ts); ok {
		t.Fatal("RootPair returned ok for disjoint trees")
	}
}

func TestSelfJoin(t *testing.T) {
	items := randItems(200, 14, 50, 4)
	tr := buildTree(t, items)
	got := candidateSet(Sequential(tr, tr, Options{}))
	want := bruteForceJoin(items, items)
	assertSameSet(t, got, want)
	// Every object intersects itself, so at least n candidates.
	if len(got) < len(items) {
		t.Fatalf("self join returned %d < %d candidates", len(got), len(items))
	}
}

func TestSTRTreeJoin(t *testing.T) {
	rs := randItems(1000, 15, 100, 4)
	ss := randItems(900, 16, 100, 4)
	tr := rtree.BulkLoadSTR(smallParams(), rs, 0.8)
	ts := rtree.BulkLoadSTR(smallParams(), ss, 0.8)
	got := candidateSet(Sequential(tr, ts, Options{}))
	assertSameSet(t, got, bruteForceJoin(rs, ss))
}

// TestLeafPairsLockstep pins the contract the simulator's refinement cost
// relies on: after every leaf/leaf Expand, LeafPairs()[k] names the two
// entries whose objects are the k-th candidate, so their Rects are the
// candidate's MBRs; after any other Expand it is empty. Every sweep variant
// records through the same emit, and trees of unequal height reach the
// leaf/leaf case through one-sided descents.
func TestLeafPairsLockstep(t *testing.T) {
	big, small := randItems(500, 9, 100, 5), randItems(10, 10, 100, 5)
	other := randItems(500, 25, 100, 5)
	tBig, tSmall, tOther := buildTree(t, big), buildTree(t, small), buildTree(t, other)
	if tBig.Height() != tOther.Height() || tBig.Height() == tSmall.Height() {
		t.Fatalf("test premise broken: heights %d, %d, %d", tBig.Height(), tOther.Height(), tSmall.Height())
	}
	shapes := []struct {
		name   string
		r, s   *rtree.Tree
		rs, ss []rtree.Item
	}{
		{"equal", tBig, tOther, big, other},
		{"r-deeper", tBig, tSmall, big, small},
		{"s-deeper", tSmall, tBig, small, big},
	}
	variants := []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"nested-loops", Options{NestedLoops: true}},
		{"no-restriction", Options{DisableRestriction: true}},
		{"both", Options{NestedLoops: true, DisableRestriction: true}},
	}
	for _, sh := range shapes {
		for _, v := range variants {
			opts := v.opts
			t.Run(sh.name+"/"+v.name, func(t *testing.T) {
				rRect, sRect := rectsByID(sh.rs), rectsByID(sh.ss)
				root, ok := RootPair(sh.r, sh.s)
				if !ok {
					t.Fatal("trees do not overlap")
				}
				src := DirectSource{R: sh.r, S: sh.s}
				var sc Scratch
				got := map[pairKey]bool{}
				stack := []NodePair{root}
				for len(stack) > 0 {
					p := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					nr := src.Node(SideR, p.RPage, p.RLevel)
					ns := src.Node(SideS, p.SPage, p.SLevel)
					cands, children, _ := sc.Expand(nr, ns, opts)
					stack = append(stack, children...)
					lp := sc.LeafPairs()
					if len(lp) != len(cands) {
						t.Fatalf("levels (%d, %d): %d leaf pairs for %d candidates",
							nr.Level, ns.Level, len(lp), len(cands))
					}
					for k, c := range cands {
						er, es := nr.Entries[lp[k].R], ns.Entries[lp[k].S]
						if er.Obj != c.R || es.Obj != c.S {
							t.Fatalf("candidate %d = %+v, leaf pair names (%d, %d)", k, c, er.Obj, es.Obj)
						}
						if er.Rect != rRect[c.R] || es.Rect != sRect[c.S] {
							t.Fatalf("candidate %+v: leaf rects %v, %v; items %v, %v",
								c, er.Rect, es.Rect, rRect[c.R], sRect[c.S])
						}
						got[pairKey{c.R, c.S}] = true
					}
				}
				assertSameSet(t, got, bruteForceJoin(sh.rs, sh.ss))
			})
		}
	}
}

func rectsByID(items []rtree.Item) map[rtree.EntryID]geom.Rect {
	m := make(map[rtree.EntryID]geom.Rect, len(items))
	for _, it := range items {
		m[it.ID] = it.Rect
	}
	return m
}

// countingSource wraps a Source and records every access.
type countingSource struct {
	inner    Source
	accesses []storage.PageID
}

func (c *countingSource) Node(side buffer.TreeID, page storage.PageID, level int) *rtree.Node {
	c.accesses = append(c.accesses, page)
	return c.inner.Node(side, page, level)
}

func TestEngineAccessCountBounded(t *testing.T) {
	// Every stack pop fetches exactly two nodes, so the access count is even
	// and at least 2 for a non-empty join; the engine must not refetch nodes
	// beyond its pair visits.
	rs := randItems(300, 17, 100, 3)
	ss := randItems(300, 18, 100, 3)
	tr, ts := buildTree(t, rs), buildTree(t, ss)
	src := &countingSource{inner: DirectSource{R: tr, S: ts}}
	root, ok := RootPair(tr, ts)
	if !ok {
		t.Skip("no root pair in this draw")
	}
	e := Engine{
		Src:          src,
		OnCandidates: func([]Candidate) {},
	}
	e.Run(root)
	if len(src.accesses) == 0 || len(src.accesses)%2 != 0 {
		t.Fatalf("access count %d must be positive and even", len(src.accesses))
	}
}

func TestExpandComparisonsReported(t *testing.T) {
	rs := randItems(100, 19, 50, 4)
	ss := randItems(100, 20, 50, 4)
	tr, ts := buildTree(t, rs), buildTree(t, ss)
	root, ok := RootPair(tr, ts)
	if !ok {
		t.Skip("no overlap")
	}
	total := 0
	e := Engine{
		Src:           DirectSource{R: tr, S: ts},
		OnCandidates:  func([]Candidate) {},
		OnComparisons: func(n int) { total += n },
	}
	e.Run(root)
	if total <= 0 {
		t.Fatalf("comparisons = %d, want > 0", total)
	}
}

func TestNodePairMaxLevel(t *testing.T) {
	p := NodePair{RLevel: 2, SLevel: 1}
	if p.MaxLevel() != 2 {
		t.Fatalf("MaxLevel = %d, want 2", p.MaxLevel())
	}
	p = NodePair{RLevel: 0, SLevel: 3}
	if p.MaxLevel() != 3 {
		t.Fatalf("MaxLevel = %d, want 3", p.MaxLevel())
	}
}

func TestCreateTasksGeneric(t *testing.T) {
	rs := randItems(800, 21, 100, 4)
	ss := randItems(800, 22, 100, 4)
	tr, ts := buildTree(t, rs), buildTree(t, ss)
	root, ok := RootPair(tr, ts)
	if !ok {
		t.Skip("no overlap")
	}
	src := DirectSource{R: tr, S: ts}
	tasks, level, comparisons := CreateTasks(src, root, Options{}, 16, 0)
	if comparisons <= 0 {
		t.Fatal("no comparisons counted")
	}
	if len(tasks) < 16 && level != 0 {
		t.Fatalf("%d tasks at level %d", len(tasks), level)
	}
	// Joining every task must reproduce the sequential result.
	got := map[pairKey]bool{}
	for _, task := range tasks {
		e := Engine{Src: src, OnCandidates: func(cs []Candidate) {
			for _, c := range cs {
				got[pairKey{c.R, c.S}] = true
			}
		}}
		e.Run(task)
	}
	assertSameSet(t, got, bruteForceJoin(rs, ss))
}

func TestCreateTasksLeafOnlyTrees(t *testing.T) {
	// Trees of height 1: the root pair is leaf/leaf and cannot divide.
	rs := randItems(4, 23, 10, 2)
	ss := randItems(4, 24, 10, 2)
	tr, ts := buildTree(t, rs), buildTree(t, ss)
	root, ok := RootPair(tr, ts)
	if !ok {
		t.Skip("no overlap")
	}
	tasks, level, _ := CreateTasks(DirectSource{R: tr, S: ts}, root, Options{}, 8, 0)
	if level != 0 {
		t.Fatalf("level = %d, want 0", level)
	}
	if len(tasks) == 0 {
		t.Fatal("no tasks at all")
	}
}
