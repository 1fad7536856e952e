package rtree

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"spjoin/internal/geom"
	"spjoin/internal/storage"
)

// refBulkLoadSTR is the textbook STR packer the loaders must reproduce: it
// moves the entries themselves with slices.SortStableFunc under cmp.Compare
// and shares no sorting code with bulkLoadSTR — comparing the sequential
// loader with the parallel one would compare the keyed radix sort with
// itself.
func refBulkLoadSTR(params Params, items []Item, fill float64) *Tree {
	t := &Tree{params: params, root: storage.InvalidPage}
	if len(items) == 0 {
		t.root = t.allocNode(0).Page
		return t
	}
	pack := func(entries []Entry, level, maxEntries int) []*Node {
		p := (len(entries) + maxEntries - 1) / maxEntries
		sliceSize := int(math.Ceil(math.Sqrt(float64(p)))) * maxEntries
		slices.SortStableFunc(entries, func(a, b Entry) int {
			return cmp.Compare(a.Rect.CenterX(), b.Rect.CenterX())
		})
		var nodes []*Node
		for start := 0; start < len(entries); start += sliceSize {
			slab := entries[start:min(start+sliceSize, len(entries))]
			slices.SortStableFunc(slab, func(a, b Entry) int {
				return cmp.Compare(a.Rect.CenterY(), b.Rect.CenterY())
			})
			for s := 0; s < len(slab); s += maxEntries {
				n := t.allocNode(level)
				n.Entries = append([]Entry(nil), slab[s:min(s+maxEntries, len(slab))]...)
				nodes = append(nodes, n)
			}
		}
		return t.rebalanceTail(nodes)
	}
	entries := make([]Entry, len(items))
	for i, it := range items {
		entries[i] = Entry{Rect: it.Rect, Child: storage.InvalidPage, Obj: it.ID}
	}
	nodes := pack(entries, 0, max(1, int(float64(params.MaxDataEntries)*fill)))
	dirCap := max(2, int(float64(params.MaxDirEntries)*fill))
	for level := 1; len(nodes) > 1; level++ {
		parentEntries := make([]Entry, len(nodes))
		for i, n := range nodes {
			parentEntries[i] = Entry{Rect: n.MBR(), Child: n.Page, Obj: -1}
		}
		levelCap := dirCap
		if len(parentEntries) <= params.MaxDirEntries {
			levelCap = params.MaxDirEntries
		}
		parents := pack(parentEntries, level, levelCap)
		for _, p := range parents {
			for i := range p.Entries {
				t.Node(p.Entries[i].Child).Parent = p.Page
			}
		}
		nodes = parents
	}
	t.root = nodes[0].Page
	t.size = len(items)
	return t
}

// packerInputs are item sets chosen to hit every branch of the keyed sort:
// the radix passes, the equal-quantum fix-up (exact ties, and distinct keys
// closer than one quantum), and each comparison-sort fallback.
func packerInputs() map[string][]Item {
	rng := rand.New(rand.NewSource(17))
	at := func(n int, f func(i int) geom.Rect) []Item {
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{ID: EntryID(i), Rect: f(i)}
		}
		return items
	}
	const n = 6000
	in := map[string][]Item{
		"uniform": randomItems(n, 23),
		// Centres on a 40×40 lattice: ~4 exact ties per key on both axes.
		"lattice": at(n, func(i int) geom.Rect {
			x, y := float64(rng.Intn(40)), float64(rng.Intn(40))
			return geom.NewRect(x, y, x+2, y+2)
		}),
		// One distant outlier stretches the key range so that the other
		// centres, a few ulps apart, all share a quantum.
		"clustered": at(n, func(i int) geom.Rect {
			if i == 0 {
				return geom.NewRect(-1e9, -1e9, -1e9, -1e9)
			}
			x := 1e9 + float64(rng.Intn(4000))*1e-6
			y := 1e9 + float64(rng.Intn(4000))*1e-6
			return geom.NewRect(x, y, x, y)
		}),
		"all-equal": at(n, func(int) geom.Rect { return geom.NewRect(3, 4, 5, 6) }),
		"huge-range": at(n, func(i int) geom.Rect {
			x := (rng.Float64() - 0.5) * 1e308
			return geom.NewRect(x, -x, x, -x)
		}),
		"short": randomItems(radixShort, 29),
	}
	nan := randomItems(n, 31)
	for i := 0; i < len(nan); i += 97 {
		nan[i].Rect.MinX = math.NaN()
		nan[i+1].Rect.MaxY = math.NaN()
		nan[i+2].Rect = geom.Rect{MinX: math.Inf(-1), MinY: 0, MaxX: math.Inf(1), MaxY: 1} // NaN centre x
	}
	in["nan"] = nan
	return in
}

// radixShort is an input below the radix cutoff at the leaf level.
const radixShort = 200

func TestBulkLoadSTRMatchesReferencePacker(t *testing.T) {
	forceParallel(t)
	for name, items := range packerInputs() {
		for _, params := range []Params{smallParams(), DefaultParams()} {
			want := encodeTree(t, refBulkLoadSTR(params, items, 0.73))
			for _, workers := range []int{0, 1, 2, 3} {
				var tree *Tree
				if workers == 0 {
					tree = BulkLoadSTR(params, items, 0.73)
				} else {
					tree = BulkLoadSTRParallel(params, items, 0.73, workers)
				}
				label := fmt.Sprintf("%s cap=%d workers=%d", name, params.MaxDataEntries, workers)
				if name != "nan" {
					if err := tree.CheckIntegrity(); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
				}
				if !bytes.Equal(encodeTree(t, tree), want) {
					t.Fatalf("%s: encoding differs from the reference packer's", label)
				}
			}
		}
	}
}
