package rtree

import (
	"sort"

	"spjoin/internal/geom"
	"spjoin/internal/storage"
)

// Insert adds one data entry (object id with its MBR) to the tree, using the
// full R*-tree insertion algorithm: ChooseSubtree, forced reinsertion on the
// first overflow per level, and the margin-driven split otherwise.
func (t *Tree) Insert(id EntryID, r geom.Rect) {
	if !r.Valid() {
		panic("rtree: Insert with invalid rectangle " + r.String())
	}
	// One reinsertion per level per top-level insertion ([BKSS 90] OT1).
	reinserted := make(map[int]bool)
	t.insertEntry(Entry{Rect: r, Child: storage.InvalidPage, Obj: id}, 0, reinserted)
	t.size++
}

// insertEntry places e at the given level, handling overflow treatment.
func (t *Tree) insertEntry(e Entry, level int, reinserted map[int]bool) {
	n := t.chooseSubtree(e.Rect, level)
	n.Entries = append(n.Entries, e)
	t.invalidate(n)
	if level > 0 {
		t.Node(e.Child).Parent = n.Page
	}
	if len(n.Entries) > t.capacity(n) {
		t.overflow(n, reinserted)
	} else {
		t.adjustMBRUp(n)
	}
}

// chooseSubtree descends from the root to the node at the target level along
// the least-enlargement path ([BKSS 90] CS2): when the children are leaves,
// pick the entry whose rectangle needs the least overlap enlargement;
// otherwise the least area enlargement. Ties fall to smaller area, then to
// lower entry index for determinism.
func (t *Tree) chooseSubtree(r geom.Rect, level int) *Node {
	n := t.Node(t.root)
	for n.Level > level {
		best := 0
		if t.params.Split == RStarSplit && n.Level == 1 && level == 0 {
			best = pickMinOverlapEnlargement(n.Entries, r)
		} else {
			// Guttman's ChooseLeaf (and the R*-tree directory criterion):
			// least area enlargement.
			best = pickMinAreaEnlargement(n.Entries, r)
		}
		n = t.Node(n.Entries[best].Child)
	}
	return n
}

// pickMinOverlapEnlargement returns the index of the entry whose rectangle's
// overlap with its siblings grows least when extended by r.
func pickMinOverlapEnlargement(entries []Entry, r geom.Rect) int {
	best := 0
	bestOverlap := overlapEnlargement(entries, 0, r)
	bestArea := entries[0].Rect.Enlargement(r)
	for i := 1; i < len(entries); i++ {
		o := overlapEnlargement(entries, i, r)
		if o > bestOverlap {
			continue
		}
		a := entries[i].Rect.Enlargement(r)
		if o < bestOverlap || a < bestArea ||
			(a == bestArea && entries[i].Rect.Area() < entries[best].Rect.Area()) {
			best, bestOverlap, bestArea = i, o, a
		}
	}
	return best
}

// overlapEnlargement computes how much the total overlap of entries[i] with
// its siblings increases when entries[i].Rect is enlarged to include r.
func overlapEnlargement(entries []Entry, i int, r geom.Rect) float64 {
	old := entries[i].Rect
	grown := old.Union(r)
	var delta float64
	for j := range entries {
		if j == i {
			continue
		}
		delta += grown.OverlapArea(entries[j].Rect) - old.OverlapArea(entries[j].Rect)
	}
	return delta
}

// pickMinAreaEnlargement returns the index of the entry needing the least
// area enlargement to include r; ties fall to smaller area.
func pickMinAreaEnlargement(entries []Entry, r geom.Rect) int {
	best := 0
	bestEnl := entries[0].Rect.Enlargement(r)
	bestArea := entries[0].Rect.Area()
	for i := 1; i < len(entries); i++ {
		enl := entries[i].Rect.Enlargement(r)
		area := entries[i].Rect.Area()
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	return best
}

// overflow applies the R*-tree overflow treatment to a node holding one
// entry beyond capacity: forced reinsertion on the first overflow at the
// node's level, split otherwise.
func (t *Tree) overflow(n *Node, reinserted map[int]bool) {
	if n.Page != t.root && !reinserted[n.Level] && t.params.ReinsertFrac > 0 {
		reinserted[n.Level] = true
		t.reinsert(n, reinserted)
		return
	}
	t.splitNode(n, reinserted)
}

// reinsert removes the ReinsertFrac share of entries whose centers lie
// farthest from the node's MBR center and re-inserts them top-down ("close
// reinsert": nearest first), tightening the node.
func (t *Tree) reinsert(n *Node, reinserted map[int]bool) {
	p := int(t.params.ReinsertFrac * float64(len(n.Entries)))
	if p < 1 {
		p = 1
	}
	center := n.MBR()
	type distEntry struct {
		dist float64
		e    Entry
	}
	all := make([]distEntry, len(n.Entries))
	for i, e := range n.Entries {
		all[i] = distEntry{dist: e.Rect.CenterDist2(center), e: e}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].dist > all[j].dist })

	removed := make([]Entry, p)
	for i := 0; i < p; i++ {
		removed[i] = all[i].e
	}
	n.Entries = n.Entries[:0]
	for i := p; i < len(all); i++ {
		n.Entries = append(n.Entries, all[i].e)
	}
	t.invalidate(n)
	t.adjustMBRUp(n)

	// Close reinsert: smallest distance first (reverse of removal order).
	for i := p - 1; i >= 0; i-- {
		t.insertEntry(removed[i], n.Level, reinserted)
	}
}

// adjustMBRUp recomputes the parent entry rectangles along the path from n
// to the root. It stops early once an ancestor's stored MBR is already
// exact.
func (t *Tree) adjustMBRUp(n *Node) {
	for n.Parent != storage.InvalidPage {
		parent := t.Node(n.Parent)
		i := parent.entryIndexOf(n.Page)
		mbr := n.MBR()
		if parent.Entries[i].Rect == mbr {
			return
		}
		parent.Entries[i].Rect = mbr
		t.invalidate(parent)
		n = parent
	}
}

// entryIndexOf returns the index of the entry pointing at child.
func (n *Node) entryIndexOf(child storage.PageID) int {
	for i := range n.Entries {
		if n.Entries[i].Child == child {
			return i
		}
	}
	panic("rtree: parent/child link broken")
}
