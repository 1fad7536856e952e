package rtree

import (
	"math"

	"spjoin/internal/geom"
	"spjoin/internal/storage"
)

// Item is one object for bulk loading.
type Item struct {
	ID   EntryID
	Rect geom.Rect
}

// BulkLoadSTR builds a tree from items with the Sort-Tile-Recursive packing
// algorithm (Leutenegger et al.): items are sorted by center x, cut into
// vertical slices, each slice sorted by center y, and packed into leaves at
// the given fill factor. Upper levels pack the level below the same way.
//
// STR trees have near-100% utilization at fill 1.0; the paper's trees were
// built dynamically (≈70% utilization), so the experiment harness uses
// Insert while STR serves as a faster alternative and as the ablation
// baseline BenchmarkAblationSTR.
func BulkLoadSTR(params Params, items []Item, fill float64) *Tree {
	return bulkLoadSTR(params, items, fill, 1)
}

// bulkLoadSTR is the loader behind BulkLoadSTR and BulkLoadSTRParallel.
// Everything that decides the tree — the two orderings per level, the node
// boundaries, the page numbering — is independent of workers; the goroutines
// only share out key computation, per-slab sorts, entry copies, the sweep
// caches and the blocks.
func bulkLoadSTR(params Params, items []Item, fill float64, workers int) *Tree {
	params.validate()
	if fill <= 0 || fill > 1 {
		panic("rtree: STR fill factor out of (0, 1]")
	}
	t := &Tree{params: params, root: storage.InvalidPage}
	if len(items) == 0 {
		t.root = t.allocNode(0).Page
		return t
	}

	// Pack leaves.
	leafCap := int(float64(params.MaxDataEntries) * fill)
	if leafCap < 1 {
		leafCap = 1
	}
	entries := make([]Entry, len(items))
	parallelRanges(workers, len(items), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			entries[i] = Entry{Rect: items[i].Rect, Child: storage.InvalidPage, Obj: items[i].ID}
		}
	})
	level := 0
	nodes := t.packLevel(entries, level, leafCap, workers)

	// Pack directory levels until a single node remains.
	dirCap := int(float64(params.MaxDirEntries) * fill)
	if dirCap < 2 {
		dirCap = 2
	}
	for len(nodes) > 1 {
		level++
		parentEntries := make([]Entry, len(nodes))
		for i, n := range nodes {
			parentEntries[i] = Entry{Rect: n.MBR(), Child: n.Page, Obj: -1}
		}
		// The root may be filled to capacity rather than to the fill factor
		// (a dynamically built root is not fill-limited either); this keeps
		// the height minimal, matching the paper's height-3 trees.
		levelCap := dirCap
		if len(parentEntries) <= params.MaxDirEntries {
			levelCap = params.MaxDirEntries
		}
		parents := t.packLevel(parentEntries, level, levelCap, workers)
		for _, p := range parents {
			for i := range p.Entries {
				t.Node(p.Entries[i].Child).Parent = p.Page
			}
		}
		nodes = parents
	}
	t.root = nodes[0].Page
	t.size = len(items)
	// Build time is the one moment every node is known immutable: prepare
	// the native join's directory caches and blocks so the first join never
	// sorts.
	t.prepareBlocks(workers)
	return t
}

// packLevel tiles entries into nodes of the given level: order by center x,
// cut into ceil(sqrt(p)) vertical slabs of sliceCount*maxEntries entries,
// order each slab by center y, emit runs of maxEntries entries. sliceSize
// is a multiple of maxEntries, so node k holds positions [k*maxEntries,
// (k+1)*maxEntries) of the final order.
//
// Both orderings are stable sorts of an index permutation by one float key
// (geom.StableOrderByKey: keyed radix sort with an exact fix-up); the
// entries themselves move once, from their input position into their node.
// A stable sort's result is unique, so the tree is the one the textbook
// "stable-sort the entries by x, then each slab by y" produces.
func (t *Tree) packLevel(entries []Entry, level, maxEntries, workers int) []*Node {
	n := len(entries)
	if n < parallelPackMinEntries {
		workers = 1
	}
	p := (n + maxEntries - 1) / maxEntries // number of nodes
	sliceCount := int(math.Ceil(math.Sqrt(float64(p))))
	sliceSize := sliceCount * maxEntries

	keys := make([]float64, n)
	xOrd, ord := make([]int32, n), make([]int32, n)
	ka, kb := make([]uint64, n), make([]uint64, n)

	parallelRanges(workers, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			keys[i] = entries[i].Rect.CenterX()
		}
	})
	geom.StableOrderByKey(keys, xOrd, ka, kb)

	// Slabs are disjoint position ranges, so each sorts inside its own
	// window of the level's buffers.
	slabs := (n + sliceSize - 1) / sliceSize
	parallelRanges(workers, slabs, func(lo, hi int) {
		for slab := lo; slab < hi; slab++ {
			start := slab * sliceSize
			end := min(start+sliceSize, n)
			xo, yo, ky := xOrd[start:end], ord[start:end], keys[start:end]
			for j, o := range xo {
				ky[j] = entries[o].Rect.CenterY()
			}
			geom.StableOrderByKey(ky, yo, ka[start:end], kb[start:end])
			for j, o := range yo {
				yo[j] = xo[o] // slab position -> entry index
			}
		}
	})

	// allocNode on the calling goroutine, in order: page numbers are dense
	// and ascending along the final order whatever the worker count.
	nodes := make([]*Node, p)
	for k := range nodes {
		nodes[k] = t.allocNode(level)
	}
	parallelRanges(workers, p, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			s := k * maxEntries
			run := ord[s:min(s+maxEntries, n)]
			ne := make([]Entry, len(run))
			for i, o := range run {
				ne[i] = entries[o]
			}
			nodes[k].Entries = ne
		}
	})
	return t.rebalanceTail(nodes)
}

// rebalanceTail fixes up the short tail of a freshly packed level. Only the
// globally last node can be short (every other run is exactly maxEntries
// long). If it falls below the minimum fill, steal entries from its (full)
// predecessor so both satisfy the R*-tree invariant — unless the
// predecessor cannot spare them without going underfull itself, in which
// case the two nodes together hold fewer than two minimum fills, which
// always fits a single node (minFill ≤ capacity/2): merge them instead.
func (t *Tree) rebalanceTail(nodes []*Node) []*Node {
	if len(nodes) >= 2 {
		last := nodes[len(nodes)-1]
		if need := t.minFill(last) - len(last.Entries); need > 0 {
			prev := nodes[len(nodes)-2]
			if cut := len(prev.Entries) - need; cut >= t.minFill(prev) {
				moved := append([]Entry(nil), prev.Entries[cut:]...)
				prev.Entries = prev.Entries[:cut]
				last.Entries = append(moved, last.Entries...)
			} else {
				prev.Entries = append(prev.Entries, last.Entries...)
				t.freeNode(last.Page)
				nodes = nodes[:len(nodes)-1]
			}
		}
	}
	return nodes
}
