package rtree

import (
	"math"
	"slices"

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
	for i, it := range items {
		entries[i] = Entry{Rect: it.Rect, Child: storage.InvalidPage, Obj: it.ID}
	}
	level := 0
	nodes := t.packLevel(entries, level, leafCap)

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
		parents := t.packLevel(parentEntries, level, levelCap)
		for _, p := range parents {
			for i := range p.Entries {
				t.Node(p.Entries[i].Child).Parent = p.Page
			}
		}
		nodes = parents
	}
	t.root = nodes[0].Page
	t.size = len(items)
	// Build time is the one moment every node is known immutable: precompute
	// the join sweep caches so the first join never sorts.
	t.PrepareSweep()
	return t
}

// packLevel tiles entries into nodes of the given level: sort by center x,
// cut into ceil(sqrt(p)) vertical slices of slice*cap entries, sort each
// slice by center y, emit runs of cap entries.
func (t *Tree) packLevel(entries []Entry, level, maxEntries int) []*Node {
	p := (len(entries) + maxEntries - 1) / maxEntries // number of nodes
	sliceCount := int(math.Ceil(math.Sqrt(float64(p))))
	sliceSize := sliceCount * maxEntries

	// slices.SortStableFunc, not sort.SliceStable: same algorithm and so the
	// same (unique) stable order, without the reflection-based swapper
	// moving 48-byte entries.
	slices.SortStableFunc(entries, func(a, b Entry) int {
		return cmpLess(a.Rect.CenterX(), b.Rect.CenterX())
	})

	var nodes []*Node
	for start := 0; start < len(entries); start += sliceSize {
		end := start + sliceSize
		if end > len(entries) {
			end = len(entries)
		}
		slice := entries[start:end]
		slices.SortStableFunc(slice, func(a, b Entry) int {
			return cmpLess(a.Rect.CenterY(), b.Rect.CenterY())
		})
		for s := 0; s < len(slice); s += maxEntries {
			e := s + maxEntries
			if e > len(slice) {
				e = len(slice)
			}
			n := t.allocNode(level)
			n.Entries = append([]Entry(nil), slice[s:e]...)
			nodes = append(nodes, n)
		}
	}

	return t.rebalanceTail(nodes)
}

// cmpLess is the three-way form of a < b under which NaN keys order exactly
// as they do with a plain less function: unordered, hence equal.
func cmpLess(a, b float64) int {
	switch {
	case a < b:
		return -1
	case b < a:
		return 1
	}
	return 0
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
