package rtree

import (
	"fmt"
	"math"

	"spjoin/internal/geom"
	"spjoin/internal/storage"
)

// Per-node sweep cache. R*-tree nodes are immutable once a tree is built
// (the paper builds its trees and joins them read-only), yet each node
// participates in many node-pair expansions during a join. The join kernel
// therefore needs, over and over, the same three derived views of a node:
// a coordinate-plane (SoA) copy of the entry rectangles, the entry order
// sorted by lower x-value (the plane-sweep order of §2.2), and the node's
// MBR. The cache computes them once per node, so the kernel never sorts or
// copies entry rects on the hot path. The bulk loaders and PrepareBlocks
// build the caches of the directory nodes, which the native join expands;
// the native join reads its bottom level from blocks (block.go), so leaf
// caches are built lazily, on first use by a single-goroutine join
// (join.Sequential, the simulator), or all at once by PrepareSweep.
//
// Dynamic trees stay correct: every operation that changes a node's entry
// list (insert, split, reinsertion, deletion, MBR adjustment) drops the
// node's cache, and the next join rebuilds it.
type sweepCache struct {
	// order holds the entry indices sorted by (MinX, MinY, index), with the
	// entries that have a NaN coordinate (which intersect nothing) last, in
	// index order.
	order []int32
	// mbr is the union of all entry rects.
	mbr geom.Rect
	// planes holds the entry rects as coordinate planes (SoA), in entry
	// order — what the vectorized filter kernels consume. Entry order (not
	// sweep order) keeps bitmask index spaces identical to Entries.
	planes geom.Planes
}

// ensureSweep returns the node's sweep cache, building it if absent. The
// build is deterministic, so rebuilding is always safe; however, a first
// call is a write to the node — callers joining one tree from several
// goroutines must precompute the caches with Tree.PrepareSweep.
func (n *Node) ensureSweep() *sweepCache {
	if n.sweep != nil {
		return n.sweep
	}
	rects := make([]geom.Rect, len(n.Entries))
	c := &sweepCache{
		order: make([]int32, len(n.Entries)),
		mbr:   geom.EmptyRect(),
	}
	nan := 0
	for i := range n.Entries {
		r := n.Entries[i].Rect
		rects[i] = r
		c.mbr = c.mbr.Union(r)
		if hasNaN(r) {
			nan++
		}
	}
	// A NaN coordinate would make the sort's comparison partial, and the
	// others could come out unordered; such an entry matches nothing, so it
	// waits behind the sorted ones.
	k, tail := 0, len(n.Entries)-nan
	for i := range rects {
		if hasNaN(rects[i]) {
			c.order[tail] = int32(i)
			tail++
		} else {
			c.order[k] = int32(i)
			k++
		}
	}
	geom.SortOrderByMinX(rects, c.order[:k])
	c.planes.FromRects(rects)
	n.sweep = c
	return c
}

// PlanesView returns the node's cached join views: the entry rectangles as
// coordinate planes (aligned with Entries), the entry order sorted by
// ascending (MinX, MinY, index), and the node's MBR. The returned views
// are shared — callers must not modify them. The cache is built on first
// use; see ensureSweep for the concurrency contract.
func (n *Node) PlanesView() (planes *geom.Planes, order []int32, mbr geom.Rect) {
	c := n.ensureSweep()
	return &c.planes, c.order, c.mbr
}

// invalidate drops n's cached views and block, and, for a leaf, its
// parent's block, which holds the leaf's entries. Every mutation of
// n.Entries — appends, rebuilds, and in-place rectangle adjustments — must
// call this.
func (t *Tree) invalidate(n *Node) {
	n.sweep, n.block = nil, nil
	if n.Level == 0 && n.Parent != storage.InvalidPage {
		t.Node(n.Parent).block = nil
	}
	t.blocksReady = false
}

// checkSweepCache verifies that a present cache still matches the node's
// entries — a stale cache means some mutation path forgot invalidate.
// CheckIntegrity runs it on every node, so the test suite catches missed
// invalidations immediately. A nil cache is always fine.
func (n *Node) checkSweepCache() error {
	c := n.sweep
	if c == nil {
		return nil
	}
	if c.planes.Len() != len(n.Entries) || len(c.order) != len(n.Entries) {
		return fmt.Errorf("rtree: page %d sweep cache holds %d rects for %d entries (stale cache)",
			n.Page, c.planes.Len(), len(n.Entries))
	}
	for i := range n.Entries {
		if !rectBitsEqual(c.planes.RectAt(i), n.Entries[i].Rect) {
			return fmt.Errorf("rtree: page %d sweep cache plane %d = %v, entry has %v (stale cache)",
				n.Page, i, c.planes.RectAt(i), n.Entries[i].Rect)
		}
	}
	for i := 1; i < len(c.order); i++ {
		ia, ib := int(c.order[i-1]), int(c.order[i])
		a, b := c.planes.RectAt(ia), c.planes.RectAt(ib)
		var ok bool
		switch {
		case hasNaN(b):
			ok = !hasNaN(a) || ia < ib
		case hasNaN(a):
			ok = false
		default:
			ok = rectOrderOK(a, b, ia, ib)
		}
		if !ok {
			return fmt.Errorf("rtree: page %d sweep order broken at %d (stale cache)", n.Page, i)
		}
	}
	return nil
}

// rectBitsEqual compares two rects bit for bit (so a faithfully copied
// NaN coordinate does not read as stale).
func rectBitsEqual(a, b geom.Rect) bool {
	return math.Float64bits(a.MinX) == math.Float64bits(b.MinX) &&
		math.Float64bits(a.MinY) == math.Float64bits(b.MinY) &&
		math.Float64bits(a.MaxX) == math.Float64bits(b.MaxX) &&
		math.Float64bits(a.MaxY) == math.Float64bits(b.MaxY)
}

// rectOrderOK reports whether (a, ia) may precede (b, ib) in sweep order.
func rectOrderOK(a, b geom.Rect, ia, ib int) bool {
	if a.MinX != b.MinX {
		return a.MinX < b.MinX
	}
	if a.MinY != b.MinY {
		return a.MinY < b.MinY
	}
	return ia < ib
}

// PrepareSweep precomputes the sweep cache of every live node, leaves
// included. Call it once before running node-pair expansions
// (join.Scratch.Expand, the simulator) on a tree from multiple goroutines:
// afterwards PlanesView only reads, so concurrent joins need no
// synchronization on the tree. The native join needs PrepareBlocks instead,
// which builds no leaf cache.
func (t *Tree) PrepareSweep() {
	for _, n := range t.nodes {
		if n != nil {
			n.ensureSweep()
		}
	}
}
