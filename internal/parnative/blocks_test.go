package parnative

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"spjoin/internal/geom"
	"spjoin/internal/join"
	"spjoin/internal/rtree"
)

// Differential tests of the block units: on every tree shape the native join
// can meet — both STR loaders, insertion-built trees, trees of height 1 and
// of unequal height, trees with fewer block pairs than tasks requested — and
// on hostile rects, Join at 1, 2 and 4 workers returns exactly the pairs of
// join.Sequential, which expands every leaf pair, and of brute force.

// smallParams gives trees several levels on a few hundred rects.
var smallParams = rtree.Params{MaxDirEntries: 5, MaxDataEntries: 6, MinFillFrac: 0.4, ReinsertFrac: 0.3}

// rectKind names the rects hostileRect makes.
const (
	kindPlain = iota
	kindPosInf
	kindNegInf
	kindAllInf
	kindPoint
	kindLine
	kindDuplicate
	kindHuge
	kindNaN
	numKinds
)

// hostileRect returns a rect of the given kind near (x, y) on a 1,000-wide
// world; prev is the previous rect, which a duplicate copies.
func hostileRect(kind int, x, y, w, h float64, prev geom.Rect) geom.Rect {
	r := geom.NewRect(x, y, x+w, y+h)
	switch kind {
	case kindPosInf:
		r.MaxX = math.Inf(1)
	case kindNegInf:
		r.MinY = math.Inf(-1)
	case kindAllInf:
		r = geom.Rect{MinX: math.Inf(-1), MinY: y, MaxX: math.Inf(1), MaxY: y + h}
	case kindPoint:
		r.MaxX, r.MaxY = r.MinX, r.MinY
	case kindLine:
		r.MaxY = r.MinY
	case kindDuplicate:
		if !prev.IsEmpty() {
			r = prev
		}
	case kindHuge:
		r.MinX, r.MaxX = -1e308, 1e308
	case kindNaN:
		switch int(x) % 4 {
		case 0:
			r.MinX = math.NaN()
		case 1:
			r.MinY = math.NaN()
		case 2:
			r.MaxX = math.NaN()
		default:
			r.MaxY = math.NaN()
		}
	}
	return r
}

// hostileItems returns n items with ids from idBase; about one in six is of
// a hostile kind drawn from kinds.
func hostileItems(rng *rand.Rand, n int, idBase rtree.EntryID, kinds []int) []rtree.Item {
	items := make([]rtree.Item, n)
	prev := geom.EmptyRect()
	for i := range items {
		kind := kindPlain
		if len(kinds) > 0 && rng.Intn(6) == 0 {
			kind = kinds[rng.Intn(len(kinds))]
		}
		x, y := rng.Float64()*1000, rng.Float64()*1000
		w, h := rng.Float64()*30, rng.Float64()*30
		r := hostileRect(kind, x, y, w, h, prev)
		items[i] = rtree.Item{ID: idBase + rtree.EntryID(i), Rect: r}
		prev = r
	}
	return items
}

// allKinds are the hostile kinds the STR loaders accept; insertKinds those
// rtree.Insert accepts (it rejects infinite and NaN coordinates).
var (
	allKinds    = []int{kindPosInf, kindNegInf, kindAllInf, kindPoint, kindLine, kindDuplicate, kindHuge, kindNaN}
	insertKinds = []int{kindPoint, kindLine, kindDuplicate, kindHuge}
)

func insertTree(params rtree.Params, items []rtree.Item) *rtree.Tree {
	t := rtree.New(params)
	for _, it := range items {
		t.Insert(it.ID, it.Rect)
	}
	return t
}

// bruteForce returns the intersecting pairs of r × s, sorted.
func bruteForce(r, s []rtree.Item) []join.Candidate {
	var out []join.Candidate
	for _, a := range r {
		for _, b := range s {
			if a.Rect.Intersects(b.Rect) {
				out = append(out, join.Candidate{R: a.ID, S: b.ID})
			}
		}
	}
	return sorted(out)
}

// assertJoinsExactly checks Join at 1, 2 and 4 workers against
// join.Sequential, and both against want when it is non-nil.
func assertJoinsExactly(t *testing.T, r, s *rtree.Tree, want []join.Candidate) {
	t.Helper()
	seq := sorted(join.Sequential(r, s, join.Options{}))
	if want != nil && !slices.Equal(seq, want) {
		t.Fatalf("Sequential: %d pairs, brute force %d", len(seq), len(want))
	}
	for _, workers := range []int{1, 2, 4} {
		got := sorted(Join(r, s, Config{Workers: workers}).Candidates)
		if !slices.Equal(got, seq) {
			t.Fatalf("workers=%d: %d pairs, Sequential %d", workers, len(got), len(seq))
		}
	}
}

func TestJoinBlocksMatchSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	str := func(params rtree.Params, items []rtree.Item) *rtree.Tree {
		return rtree.BulkLoadSTR(params, items, 0.8)
	}
	type treeCase struct {
		name   string
		build  func(rtree.Params, []rtree.Item) *rtree.Tree
		params rtree.Params
		nr, ns int
		kinds  []int
	}
	cases := []treeCase{
		{"str", str, smallParams, 400, 350, allKinds},
		{"str-default", str, rtree.DefaultParams(), 3000, 2500, allKinds},
		{"insert", insertTree, smallParams, 300, 250, insertKinds},
		{"height1", str, smallParams, 4, 3, allKinds},
		{"height1-vs-3", str, smallParams, 4, 60, allKinds},
		{"height2-vs-3", str, smallParams, 12, 60, allKinds},
		{"height3-vs-4", insertTree, smallParams, 60, 400, insertKinds},
		{"tiny", str, rtree.DefaultParams(), 40, 60, allKinds},
	}
	for _, workers := range []int{1, 2, 3} {
		workers := workers
		cases = append(cases, treeCase{fmt.Sprintf("str-parallel-%d", workers),
			func(p rtree.Params, items []rtree.Item) *rtree.Tree {
				return rtree.BulkLoadSTRParallel(p, items, 0.73, workers)
			}, rtree.DefaultParams(), 5000, 4500, allKinds})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ri := hostileItems(rng, tc.nr, 0, tc.kinds)
			si := hostileItems(rng, tc.ns, 100000, tc.kinds)
			r, s := tc.build(tc.params, ri), tc.build(tc.params, si)
			t.Logf("heights %d/%d", r.Height(), s.Height())
			var want []join.Candidate
			if tc.nr*tc.ns <= 2e6 {
				want = bruteForce(ri, si)
			}
			assertJoinsExactly(t, r, s, want)
			assertJoinsExactly(t, s, r, nil)
		})
	}
}

// TestJoinBlocksAfterMutations runs mutation rounds: join, insert and delete
// on both trees, check their integrity — which fails on a block a mutation
// left stale — and join again.
func TestJoinBlocksAfterMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, name := range []string{"insert", "str"} {
		t.Run(name, func(t *testing.T) {
			ri := hostileItems(rng, 300, 0, insertKinds)
			si := hostileItems(rng, 260, 100000, insertKinds)
			var r, s *rtree.Tree
			if name == "insert" {
				r, s = insertTree(smallParams, ri), insertTree(smallParams, si)
			} else {
				r, s = rtree.BulkLoadSTR(smallParams, ri, 0.8), rtree.BulkLoadSTR(smallParams, si, 0.8)
			}
			for round := 0; round < 5; round++ {
				assertJoinsExactly(t, r, s, bruteForce(ri, si))
				for side, tree := range []*rtree.Tree{r, s} {
					items := &ri
					if side == 1 {
						items = &si
					}
					for k := 0; k < 25; k++ {
						i := rng.Intn(len(*items))
						if !tree.Delete((*items)[i].ID, (*items)[i].Rect) {
							t.Fatalf("round %d: delete of %v failed", round, (*items)[i])
						}
						*items = slices.Delete(*items, i, i+1)
					}
					more := hostileItems(rng, 30, rtree.EntryID(200000*(side+1)+1000*round), insertKinds)
					for _, it := range more {
						tree.Insert(it.ID, it.Rect)
					}
					*items = append(*items, more...)
					if err := tree.CheckIntegrity(); err != nil {
						t.Fatalf("round %d: %v", round, err)
					}
				}
			}
			assertJoinsExactly(t, r, s, bruteForce(ri, si))
		})
	}
}

// nativeFigures runs Join and returns its counters, task count and sorted
// candidates.
func nativeFigures(r, s *rtree.Tree, cfg Config) (pairs, comparisons, candidates int64, tasks int, cands []join.Candidate) {
	res := Join(r, s, cfg)
	return int64(res.PairsExpanded), int64(res.Comparisons), int64(len(res.Candidates) + res.FalseHits),
		res.Tasks, sorted(res.Candidates)
}

// TestBlockSplitKeepsCounters cuts hot block pairs into many units with a
// large task budget: the pairs, the comparisons and the candidates equal
// those of a join whose block pairs all run whole.
func TestBlockSplitKeepsCounters(t *testing.T) {
	r, s := bigRectTrees(t)
	root, _ := join.RootPair(r, s)
	blockPairs, _, _ := join.CreateTasks(join.DirectSource{R: r, S: s}, root, join.Options{}, 1<<30, 1)
	p0, c0, n0, whole, want := nativeFigures(r, s, Config{Workers: 1, TaskFactor: 2})
	p1, c1, n1, split, got := nativeFigures(r, s, Config{Workers: 2, TaskFactor: 32})
	if whole != len(blockPairs) || split <= len(blockPairs) {
		t.Fatalf("%d and %d units for %d block pairs, want all whole and some split — test premise broken",
			whole, split, len(blockPairs))
	}
	if p0 != p1 || c0 != c1 || n0 != n1 {
		t.Errorf("split join: pairs/comparisons/candidates %d/%d/%d, whole %d/%d/%d", p1, c1, n1, p0, c0, n0)
	}
	if !slices.Equal(got, want) {
		t.Errorf("split join: %d pairs, whole %d", len(got), len(want))
	}
}

// TestBlockUnitZeroAlloc pins that a warmed block unit — restriction,
// sweep, emit into a warmed CandidateBuf — allocates nothing.
func TestBlockUnitZeroAlloc(t *testing.T) {
	r, s := bigRectTrees(t)
	var src join.Source = join.DirectSource{R: r, S: s}
	root, _ := join.RootPair(r, s)
	pairs, _, _ := join.CreateTasks(src, root, join.Options{}, 1<<30, 1)
	units := splitTasks(src, pairs, 64)
	var sc blockScratch
	var out join.CandidateBuf
	run := func() {
		out.Reset()
		for _, u := range units {
			a, b := blockPair(src, u.NodePair)
			sc.joinBlocks(a, b, u.part, u.parts, &out)
		}
	}
	run()
	if n := testing.AllocsPerRun(5, run); n != 0 {
		t.Fatalf("block units allocate %.1f times per run, want 0", n)
	}
}

// fuzzNativeInput decodes a fuzz payload into two item sets, the build of
// their trees and a join configuration. Layout: [nr, budget, budget,
// shape, rect bytes...], five bytes a rect (x, y, w, h on a small lattice,
// so ties and touching edges are common, and a kind byte, hostile when
// below numKinds), up to 96 rects: small page capacities give those trees
// of up to five levels, and short executions keep the fuzzer's input
// minimization fast.
func fuzzNativeInput(data []byte) (ri, si []rtree.Item, insert bool, params rtree.Params, cfg Config) {
	params = smallParams
	if len(data) < 4 {
		return nil, nil, false, params, Config{Workers: 1}
	}
	nr := int(data[0])
	// One worker: a schedule that changes from run to run would change the
	// coverage of an input, and the fuzzer could not minimize it. The task
	// budget still decides which block pairs are split.
	cfg = Config{Workers: 1, TaskFactor: 1 + int(data[1]^data[2])%64}
	insert = data[3]&1 != 0
	params.MaxDataEntries = 4 + int(data[3]>>1)%5
	params.MaxDirEntries = 4 + int(data[3]>>4)%5
	data = data[4:]
	var items []rtree.Item
	prev := geom.EmptyRect()
	for len(data) >= 5 && len(items) < 96 {
		x, y := float64(data[0]%64), float64(data[1]%64)
		w, h := float64(data[2]%8), float64(data[3]%8)
		kind := int(data[4])
		if kind >= numKinds || (insert && !slices.Contains(insertKinds, kind)) {
			kind = kindPlain
		}
		r := hostileRect(kind, x, y, w, h, prev)
		items = append(items, rtree.Item{ID: rtree.EntryID(len(items)), Rect: r})
		prev = r
		data = data[5:]
	}
	nr = min(nr, len(items))
	return items[:nr], items[nr:], insert, params, cfg
}

// FuzzNativeJoinBlocks checks the native join's block units against
// join.Sequential and brute force on random trees — STR-loaded or
// insertion-built, of any small page capacity, so of any height — with
// hostile rects, at random task budgets, so with and without split block
// pairs.
func FuzzNativeJoinBlocks(f *testing.F) {
	f.Add([]byte{3, 1, 2, 0, 0, 0, 4, 4, 0, 1, 1, 4, 4, 0, 3, 3, 2, 2, 8, 8, 8, 1, 1, 9})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{40, 3, 7, 1, 5, 5, 0, 0, 4, 5, 5, 0, 0, 6, 9, 9, 7, 7, 0})
	seed := make([]byte, 4, 4+5*120)
	seed[0], seed[1], seed[2], seed[3] = 60, 2, 5, 0x22
	for i := 0; i < 120; i++ {
		seed = append(seed, byte(i*7), byte(i*13), byte(i), byte(i*3), byte(i%19))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		ri, si, insert, params, cfg := fuzzNativeInput(data)
		build := func(items []rtree.Item) *rtree.Tree {
			if insert {
				return insertTree(params, items)
			}
			return rtree.BulkLoadSTR(params, items, 0.8)
		}
		r, s := build(ri), build(si)
		want := bruteForce(ri, si)
		if seq := sorted(join.Sequential(r, s, join.Options{})); !slices.Equal(seq, want) {
			t.Fatalf("Sequential: %d pairs, brute force %d", len(seq), len(want))
		}
		if got := sorted(Join(r, s, cfg).Candidates); !slices.Equal(got, want) {
			t.Fatalf("cfg %+v, heights %d/%d: %d pairs, brute force %d",
				cfg, r.Height(), s.Height(), len(got), len(want))
		}
	})
}
