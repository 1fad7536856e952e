package rtree

import (
	"fmt"
	"math"

	"spjoin/internal/geom"
)

// Block is the native join's representation of the bottom of a tree: all
// data entries under one level-1 node (or under a root that is itself a
// leaf), as coordinate planes in sweep order beside an id plane. The native
// join never expands a leaf pair; it joins two blocks with one dense plane
// sweep instead (see parnative). Each data entry lies under exactly one
// level-1 node, so it lies in exactly one block.
//
// A data entry with a NaN coordinate intersects nothing, so a block leaves
// it out; every other entry is in its block exactly once. The planes hold
// 36 B per entry: four float64 coordinates and an EntryID.
type Block struct {
	// Planes holds the entry rects in ascending (MinX, MinY, index) order,
	// where index is the entry's position in the node's leaves taken in
	// entry order.
	Planes geom.Planes
	// IDs[i] is the object id of the rect at Planes position i.
	IDs []EntryID
	// MBR is the union of the block's rects.
	MBR geom.Rect
}

// Len returns the number of entries in the block.
func (b *Block) Len() int { return len(b.IDs) }

// Block returns the node's block: built for a level-1 node or a leaf root by
// Tree.PrepareBlocks (and by the bulk loaders), nil otherwise. Shared and
// read-only.
func (n *Node) Block() *Block { return n.block }

// MaxBlockLen returns an upper bound on the length of the tree's blocks: the
// longest one PrepareBlocks has built.
func (t *Tree) MaxBlockLen() int { return t.maxBlock }

// blockNode reports whether n is a node that owns a block.
func (t *Tree) blockNode(n *Node) bool {
	return n.Level == 1 || (n.Level == 0 && n.Page == t.root)
}

// PrepareBlocks makes the tree ready for the native join: it builds the sweep
// cache of every directory node and of the root, and the block of every
// level-1 node (or of the root, when it is a leaf), wherever they are
// missing. Leaf sweep caches are not built; the native join never reads
// them. A prepared tree stays prepared until a mutation, and the call then
// costs nothing. Afterwards the native join only reads the tree, so several
// goroutines may join it at once; PrepareBlocks itself writes and must not
// run concurrently with anything else on the tree.
func (t *Tree) PrepareBlocks() { t.prepareBlocks(1) }

// prepareBlocks is PrepareBlocks spread over workers goroutines. The blocks
// it builds share one arena: one allocation per plane for all of them.
func (t *Tree) prepareBlocks(workers int) {
	if t.blocksReady {
		return
	}
	var need []*Node
	total := 0
	for _, n := range t.nodes {
		if n == nil || !t.blockNode(n) || n.block != nil {
			continue
		}
		need = append(need, n)
		total += t.blockCap(n)
	}
	parallelRanges(workers, len(t.nodes), func(lo, hi int) {
		for _, n := range t.nodes[lo:hi] {
			if n != nil && (n.Level > 0 || n.Page == t.root) {
				n.ensureSweep()
			}
		}
	})
	arena := newBlock(total)
	offs := make([]int, len(need)+1)
	maxCap := 0
	for i, n := range need {
		c := t.blockCap(n)
		offs[i+1] = offs[i] + c
		maxCap = max(maxCap, c)
	}
	parallelRanges(workers, len(need), func(lo, hi int) {
		bb := newBlockBuilder(maxCap)
		for i := lo; i < hi; i++ {
			b := arena.slice(offs[i], offs[i+1])
			bb.build(t, need[i], b)
			need[i].block = b
		}
	})
	for _, n := range need {
		t.maxBlock = max(t.maxBlock, n.block.Len())
	}
	t.blocksReady = true
}

// blockCap returns how many data entries lie under a block node.
func (t *Tree) blockCap(n *Node) int {
	if n.Level == 0 {
		return len(n.Entries)
	}
	c := 0
	for i := range n.Entries {
		c += len(t.Node(n.Entries[i].Child).Entries)
	}
	return c
}

// newBlock returns a block with room for n entries.
func newBlock(n int) *Block {
	b := &Block{IDs: make([]EntryID, n)}
	b.Planes.Reset(n)
	return b
}

// slice returns a block over positions [lo, hi) of the arena a. Capacities
// are clipped so no block can grow into its neighbour.
func (a *Block) slice(lo, hi int) *Block {
	p := &a.Planes
	return &Block{
		Planes: geom.Planes{
			MinX: p.MinX[lo:hi:hi], MinY: p.MinY[lo:hi:hi],
			MaxX: p.MaxX[lo:hi:hi], MaxY: p.MaxY[lo:hi:hi],
		},
		IDs: a.IDs[lo:hi:hi],
	}
}

// blockBuilder holds one goroutine's reusable gather and sort buffers.
type blockBuilder struct {
	rects   []geom.Rect
	ids     []EntryID
	order   []int32
	scratch []int32
	ka, kb  []uint64
}

// newBlockBuilder returns a builder whose buffers hold blocks of up to n
// entries without growing.
func newBlockBuilder(n int) *blockBuilder {
	return &blockBuilder{
		rects: make([]geom.Rect, 0, n),
		ids:   make([]EntryID, 0, n),
		order: make([]int32, n),
		ka:    make([]uint64, n),
		kb:    make([]uint64, n),
	}
}

// build writes the block of n into b, whose planes have room for every
// entry under n, and trims b to the entries it holds.
func (bb *blockBuilder) build(t *Tree, n *Node, b *Block) {
	bb.rects, bb.ids = bb.rects[:0], bb.ids[:0]
	if n.Level == 0 {
		bb.gather(n)
	} else {
		for i := range n.Entries {
			bb.gather(t.Node(n.Entries[i].Child))
		}
	}
	m := len(bb.rects)
	if cap(bb.order) < m {
		bb.order = make([]int32, m)
		bb.ka, bb.kb = make([]uint64, m), make([]uint64, m)
	}
	order := bb.order[:m]
	for i := range order {
		order[i] = int32(i)
	}
	bb.scratch = geom.SortOrderByMinXKeyed(bb.rects, order, bb.scratch, bb.ka, bb.kb)
	p := &b.Planes
	p.MinX, p.MinY, p.MaxX, p.MaxY = p.MinX[:m], p.MinY[:m], p.MaxX[:m], p.MaxY[:m]
	b.IDs = b.IDs[:m]
	b.MBR = geom.EmptyRect()
	for k, o := range order {
		r := bb.rects[o]
		p.SetRect(k, r)
		b.IDs[k] = bb.ids[o]
		b.MBR = b.MBR.Union(r)
	}
}

// gather appends the leaf's entries that have no NaN coordinate.
func (bb *blockBuilder) gather(leaf *Node) {
	for i := range leaf.Entries {
		e := &leaf.Entries[i]
		if hasNaN(e.Rect) {
			continue
		}
		bb.rects = append(bb.rects, e.Rect)
		bb.ids = append(bb.ids, e.Obj)
	}
}

// hasNaN reports whether any coordinate of r is NaN.
func hasNaN(r geom.Rect) bool {
	return math.IsNaN(r.MinX) || math.IsNaN(r.MinY) || math.IsNaN(r.MaxX) || math.IsNaN(r.MaxY)
}

// checkBlock verifies that a present block is exactly the one PrepareBlocks
// would build now, bit for bit — a stale block means some mutation path
// forgot to drop it. A nil block is always fine.
func (t *Tree) checkBlock(n *Node) error {
	b := n.block
	if b == nil {
		return nil
	}
	if !t.blockNode(n) {
		return fmt.Errorf("rtree: page %d (level %d) holds a block (stale block)", n.Page, n.Level)
	}
	want := newBlock(t.blockCap(n))
	newBlockBuilder(want.Len()).build(t, n, want)
	if b.Len() != want.Len() || b.Planes.Len() != want.Len() {
		return fmt.Errorf("rtree: page %d block holds %d entries, want %d (stale block)",
			n.Page, b.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if b.IDs[i] != want.IDs[i] || !rectBitsEqual(b.Planes.RectAt(i), want.Planes.RectAt(i)) {
			return fmt.Errorf("rtree: page %d block entry %d = %d %v, want %d %v (stale block)",
				n.Page, i, b.IDs[i], b.Planes.RectAt(i), want.IDs[i], want.Planes.RectAt(i))
		}
	}
	if !rectBitsEqual(b.MBR, want.MBR) {
		return fmt.Errorf("rtree: page %d block MBR %v, want %v (stale block)", n.Page, b.MBR, want.MBR)
	}
	return nil
}
