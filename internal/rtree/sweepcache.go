package rtree

import (
	"fmt"
	"math"

	"spjoin/internal/geom"
)

// Per-node sweep cache. R*-tree nodes are immutable once a tree is built
// (the paper builds its trees and joins them read-only), yet each node
// participates in many node-pair expansions during a join. The join kernel
// therefore needs, over and over, the same three derived views of a node:
// a structure-of-arrays copy of the entry rectangles, the entry order
// sorted by lower x-value (the plane-sweep order of §2.2), and the node's
// MBR. The cache computes them once per node — at bulk-load/decode time for
// trees built in one shot, lazily on first join use otherwise — so the
// kernel never sorts or copies entry rects on the hot path.
//
// Dynamic trees stay correct: every operation that changes a node's entry
// list (insert, split, reinsertion, deletion, MBR adjustment) drops the
// node's cache, and the next join rebuilds it.
type sweepCache struct {
	// rects[i] is Entries[i].Rect — contiguous, so the sweep's inner loop
	// walks 32-byte rects instead of 48-byte entries.
	rects []geom.Rect
	// order holds the entry indices sorted by (MinX, MinY, index).
	order []int32
	// mbr is the union of all entry rects.
	mbr geom.Rect
	// planes is the coordinate-plane (SoA) view of rects, in entry order —
	// what the vectorized filter kernels consume. Entry order (not sweep
	// order) keeps visit orders and bitmask index spaces identical to the
	// rect view.
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
	c := &sweepCache{
		rects: make([]geom.Rect, len(n.Entries)),
		order: make([]int32, len(n.Entries)),
		mbr:   geom.EmptyRect(),
	}
	for i := range n.Entries {
		r := n.Entries[i].Rect
		c.rects[i] = r
		c.order[i] = int32(i)
		c.mbr = c.mbr.Union(r)
	}
	geom.SortOrderByMinX(c.rects, c.order)
	c.planes.FromRects(c.rects)
	n.sweep = c
	return c
}

// SweepView returns the node's cached join views: the entry rectangles as a
// contiguous slice (aligned with Entries), the entry order sorted by
// ascending (MinX, MinY, index), and the node's MBR. The returned slices
// are shared — callers must not modify them. The cache is built on first
// use; see ensureSweep for the concurrency contract.
func (n *Node) SweepView() (rects []geom.Rect, order []int32, mbr geom.Rect) {
	c := n.ensureSweep()
	return c.rects, c.order, c.mbr
}

// PlanesView returns the node's cached coordinate-plane view (aligned
// with Entries), the MinX-sorted entry order, and the node MBR. Shared, read-only; same build/concurrency
// contract as SweepView.
func (n *Node) PlanesView() (planes *geom.Planes, order []int32, mbr geom.Rect) {
	c := n.ensureSweep()
	return &c.planes, c.order, c.mbr
}

// invalidateSweep drops the cached views. Every mutation of n.Entries —
// appends, rebuilds, and in-place rectangle adjustments — must call this.
func (n *Node) invalidateSweep() {
	n.sweep = nil
}

// checkSweepCache verifies that a present cache still matches the node's
// entries — a stale cache means some mutation path forgot invalidateSweep.
// CheckIntegrity runs it on every node, so the test suite catches missed
// invalidations immediately. A nil cache is always fine.
func (n *Node) checkSweepCache() error {
	c := n.sweep
	if c == nil {
		return nil
	}
	if len(c.rects) != len(n.Entries) || len(c.order) != len(n.Entries) {
		return fmt.Errorf("rtree: page %d sweep cache holds %d rects for %d entries (stale cache)",
			n.Page, len(c.rects), len(n.Entries))
	}
	for i := range n.Entries {
		if c.rects[i] != n.Entries[i].Rect {
			return fmt.Errorf("rtree: page %d sweep cache rect %d = %v, entry has %v (stale cache)",
				n.Page, i, c.rects[i], n.Entries[i].Rect)
		}
	}
	for i := 1; i < len(c.order); i++ {
		a, b := c.rects[c.order[i-1]], c.rects[c.order[i]]
		if !rectOrderOK(a, b, int(c.order[i-1]), int(c.order[i])) {
			return fmt.Errorf("rtree: page %d sweep order broken at %d (stale cache)", n.Page, i)
		}
	}
	if c.planes.Len() != len(n.Entries) {
		return fmt.Errorf("rtree: page %d sweep cache planes hold %d rects for %d entries (stale cache)",
			n.Page, c.planes.Len(), len(n.Entries))
	}
	for i := range n.Entries {
		if !rectBitsEqual(c.planes.RectAt(i), n.Entries[i].Rect) {
			return fmt.Errorf("rtree: page %d sweep cache plane %d = %v, entry has %v (stale cache)",
				n.Page, i, c.planes.RectAt(i), n.Entries[i].Rect)
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

// PrepareSweep precomputes the sweep cache of every live node. Call it once
// before joining a tree from multiple goroutines: afterwards SweepView only
// reads, so concurrent joins need no synchronization on the tree.
func (t *Tree) PrepareSweep() { t.prepareSweep(1) }

// prepareSweep is PrepareSweep spread over workers goroutines; each node's
// cache is built by exactly one of them.
func (t *Tree) prepareSweep(workers int) {
	parallelRanges(workers, len(t.nodes), func(lo, hi int) {
		for _, n := range t.nodes[lo:hi] {
			if n != nil {
				n.ensureSweep()
			}
		}
	})
}
