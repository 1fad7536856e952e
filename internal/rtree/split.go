package rtree

import (
	"sort"

	"spjoin/internal/geom"
	"spjoin/internal/storage"
)

// splitNode splits an overflowing node with the R*-tree topological split
// [BKSS 90]: choose the split axis by minimum margin sum over all candidate
// distributions, then the distribution with minimum overlap (ties: minimum
// total area). The split may propagate an overflow to the parent.
func (t *Tree) splitNode(n *Node, reinserted map[int]bool) {
	group1, group2 := t.splitEntries(n.Entries, t.minFill(n))

	sibling := t.allocNode(n.Level)
	n.Entries = group1
	t.invalidate(n)
	sibling.Entries = group2
	if n.Level > 0 {
		for i := range sibling.Entries {
			t.Node(sibling.Entries[i].Child).Parent = sibling.Page
		}
	}

	if n.Page == t.root {
		// Grow the tree: a fresh root adopts both halves.
		newRoot := t.allocNode(n.Level + 1)
		newRoot.Entries = []Entry{
			{Rect: n.MBR(), Child: n.Page, Obj: -1},
			{Rect: sibling.MBR(), Child: sibling.Page, Obj: -1},
		}
		n.Parent = newRoot.Page
		sibling.Parent = newRoot.Page
		t.root = newRoot.Page
		return
	}

	parent := t.Node(n.Parent)
	sibling.Parent = parent.Page
	parent.Entries[parent.entryIndexOf(n.Page)].Rect = n.MBR()
	parent.Entries = append(parent.Entries,
		Entry{Rect: sibling.MBR(), Child: sibling.Page, Obj: -1})
	t.invalidate(parent)
	if len(parent.Entries) > t.capacity(parent) {
		t.overflow(parent, reinserted)
	} else {
		t.adjustMBRUp(parent)
	}
}

// rstarSplit partitions entries (len = capacity+1) into two groups, each
// holding at least minFill entries, with the [BKSS 90] margin-driven split.
func rstarSplit(entries []Entry, minFill int) (group1, group2 []Entry) {
	// Work on copies sorted four ways: by lower/upper value on each axis.
	byXLow := append([]Entry(nil), entries...)
	sort.SliceStable(byXLow, func(i, j int) bool {
		if byXLow[i].Rect.MinX != byXLow[j].Rect.MinX {
			return byXLow[i].Rect.MinX < byXLow[j].Rect.MinX
		}
		return byXLow[i].Rect.MaxX < byXLow[j].Rect.MaxX
	})
	byXHigh := append([]Entry(nil), entries...)
	sort.SliceStable(byXHigh, func(i, j int) bool {
		if byXHigh[i].Rect.MaxX != byXHigh[j].Rect.MaxX {
			return byXHigh[i].Rect.MaxX < byXHigh[j].Rect.MaxX
		}
		return byXHigh[i].Rect.MinX < byXHigh[j].Rect.MinX
	})
	byYLow := append([]Entry(nil), entries...)
	sort.SliceStable(byYLow, func(i, j int) bool {
		if byYLow[i].Rect.MinY != byYLow[j].Rect.MinY {
			return byYLow[i].Rect.MinY < byYLow[j].Rect.MinY
		}
		return byYLow[i].Rect.MaxY < byYLow[j].Rect.MaxY
	})
	byYHigh := append([]Entry(nil), entries...)
	sort.SliceStable(byYHigh, func(i, j int) bool {
		if byYHigh[i].Rect.MaxY != byYHigh[j].Rect.MaxY {
			return byYHigh[i].Rect.MaxY < byYHigh[j].Rect.MaxY
		}
		return byYHigh[i].Rect.MinY < byYHigh[j].Rect.MinY
	})

	marginX := distributionMarginSum(byXLow, minFill) + distributionMarginSum(byXHigh, minFill)
	marginY := distributionMarginSum(byYLow, minFill) + distributionMarginSum(byYHigh, minFill)

	var sortings [2][]Entry
	if marginX <= marginY {
		sortings = [2][]Entry{byXLow, byXHigh}
	} else {
		sortings = [2][]Entry{byYLow, byYHigh}
	}

	bestOverlap := -1.0
	bestArea := 0.0
	var bestSorted []Entry
	bestSplit := 0
	for _, sorted := range sortings {
		prefixes, suffixes := groupMBRs(sorted)
		for k := minFill; k <= len(sorted)-minFill; k++ {
			left, right := prefixes[k-1], suffixes[k]
			overlap := left.OverlapArea(right)
			area := left.Area() + right.Area()
			if bestOverlap < 0 || overlap < bestOverlap ||
				(overlap == bestOverlap && area < bestArea) {
				bestOverlap, bestArea = overlap, area
				bestSorted, bestSplit = sorted, k
			}
		}
	}
	group1 = append([]Entry(nil), bestSorted[:bestSplit]...)
	group2 = append([]Entry(nil), bestSorted[bestSplit:]...)
	return group1, group2
}

// distributionMarginSum sums the margins of both groups over every legal
// split position of the sorted entry sequence (the axis-goodness measure).
func distributionMarginSum(sorted []Entry, minFill int) float64 {
	prefixes, suffixes := groupMBRs(sorted)
	var sum float64
	for k := minFill; k <= len(sorted)-minFill; k++ {
		sum += prefixes[k-1].Margin() + suffixes[k].Margin()
	}
	return sum
}

// groupMBRs returns prefixes[i] = MBR(sorted[0..i]) and
// suffixes[i] = MBR(sorted[i..]).
func groupMBRs(sorted []Entry) (prefixes, suffixes []geom.Rect) {
	n := len(sorted)
	prefixes = make([]geom.Rect, n)
	suffixes = make([]geom.Rect, n+1)
	acc := geom.EmptyRect()
	for i := 0; i < n; i++ {
		acc = acc.Union(sorted[i].Rect)
		prefixes[i] = acc
	}
	suffixes[n] = geom.EmptyRect()
	acc = geom.EmptyRect()
	for i := n - 1; i >= 0; i-- {
		acc = acc.Union(sorted[i].Rect)
		suffixes[i] = acc
	}
	return prefixes, suffixes
}

// Delete removes the data entry with the given id and rectangle. It returns
// false if no such entry exists. Underfull nodes are condensed: their
// remaining entries are reinserted at their original level and empty paths
// collapse, possibly shrinking the tree height.
func (t *Tree) Delete(id EntryID, r geom.Rect) bool {
	leaf, idx := t.findLeaf(t.Node(t.root), id, r)
	if leaf == nil {
		return false
	}
	leaf.Entries = append(leaf.Entries[:idx], leaf.Entries[idx+1:]...)
	t.invalidate(leaf)
	t.size--
	t.condense(leaf)

	// Shrink the root while it is a directory node with a single child.
	root := t.Node(t.root)
	for root.Level > 0 && len(root.Entries) == 1 {
		child := t.Node(root.Entries[0].Child)
		child.Parent = storage.InvalidPage
		t.freeNode(root.Page)
		t.root = child.Page
		root = child
	}
	return true
}

// findLeaf locates the leaf and entry index holding (id, r).
func (t *Tree) findLeaf(n *Node, id EntryID, r geom.Rect) (*Node, int) {
	for i := range n.Entries {
		e := &n.Entries[i]
		if !e.Rect.Intersects(r) {
			continue
		}
		if n.Level == 0 {
			if e.Obj == id && e.Rect == r {
				return n, i
			}
			continue
		}
		if leaf, idx := t.findLeaf(t.Node(e.Child), id, r); leaf != nil {
			return leaf, idx
		}
	}
	return nil, -1
}

// condense walks from a shrunken node to the root, dissolving nodes that
// fall below the minimum fill and reinserting their entries at the original
// level (Guttman's CondenseTree adapted to the R*-tree insertion).
func (t *Tree) condense(n *Node) {
	type orphan struct {
		level   int
		entries []Entry
	}
	var orphans []orphan

	for n.Parent != storage.InvalidPage {
		parent := t.Node(n.Parent)
		if len(n.Entries) < t.minFill(n) {
			i := parent.entryIndexOf(n.Page)
			parent.Entries = append(parent.Entries[:i], parent.Entries[i+1:]...)
			t.invalidate(parent)
			orphans = append(orphans, orphan{level: n.Level, entries: n.Entries})
			t.freeNode(n.Page)
		} else {
			t.adjustMBRUp(n)
		}
		n = parent
	}
	t.adjustMBRUp(n)

	// Reinsert orphans, higher levels first so directory entries land above
	// the leaves they reference.
	reinserted := make(map[int]bool)
	for i := len(orphans) - 1; i >= 0; i-- {
		o := orphans[i]
		for _, e := range o.entries {
			// The tree may have shrunk below the orphan's level; re-rooting
			// handles that by splitting naturally on overflow. Guard anyway:
			// inserting a directory entry at a level >= root level means the
			// subtree becomes the new root's sibling — handled by inserting
			// at the highest existing level.
			level := o.level
			if rootLevel := t.Node(t.root).Level; level > rootLevel {
				level = rootLevel
			}
			t.insertEntry(e, level, reinserted)
		}
	}
}
