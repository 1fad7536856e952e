package rtree

import (
	"testing"

	"spjoin/internal/geom"
)

// sweepViewMatchesEntries checks one node's sweep view against its live
// entries: same rects, order sorted by the (MinX, MinY, index) total order.
func sweepViewMatchesEntries(t *testing.T, n *Node) {
	t.Helper()
	planes, order, mbr := n.PlanesView()
	if planes.Len() != len(n.Entries) || len(order) != len(n.Entries) {
		t.Fatalf("page %d: view sizes %d/%d, want %d",
			n.Page, planes.Len(), len(order), len(n.Entries))
	}
	for i, e := range n.Entries {
		if got := planes.RectAt(i); got != e.Rect {
			t.Fatalf("page %d: cached rect %d = %v, want %v", n.Page, i, got, e.Rect)
		}
	}
	for k := 1; k < len(order); k++ {
		a, b := planes.RectAt(int(order[k-1])), planes.RectAt(int(order[k]))
		if !rectLessByMinX(a, b, int(order[k-1]), int(order[k])) {
			t.Fatalf("page %d: cached order not sorted at %d", n.Page, k)
		}
	}
	if len(n.Entries) > 0 && mbr != n.MBR() {
		t.Fatalf("page %d: cached MBR %v, want %v", n.Page, mbr, n.MBR())
	}
}

func rectLessByMinX(a, b geom.Rect, ia, ib int) bool {
	if a.MinX != b.MinX {
		return a.MinX < b.MinX
	}
	if a.MinY != b.MinY {
		return a.MinY < b.MinY
	}
	return ia < ib
}

func TestSweepCacheFreshAfterInserts(t *testing.T) {
	tree, items := buildRandom(t, smallParams(), 200, 31)
	tree.PrepareSweep()
	// Mutate while caches exist: every touched node must invalidate.
	more := randomItems(200, 32)
	for _, it := range more {
		tree.Insert(it.ID+10000, it.Rect)
	}
	if err := tree.CheckIntegrity(); err != nil {
		t.Fatalf("stale sweep cache after inserts: %v", err)
	}
	tree.eachNode(func(n *Node) { sweepViewMatchesEntries(t, n) })
	_ = items
}

func TestSweepCacheFreshAfterDeletes(t *testing.T) {
	tree, items := buildRandom(t, smallParams(), 300, 33)
	tree.PrepareSweep()
	for i := 0; i < 250; i++ {
		if !tree.Delete(items[i].ID, items[i].Rect) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if err := tree.CheckIntegrity(); err != nil {
		t.Fatalf("stale sweep cache after deletes: %v", err)
	}
	tree.eachNode(func(n *Node) { sweepViewMatchesEntries(t, n) })
}

func TestSweepCacheInterleavedMutations(t *testing.T) {
	tree, items := buildRandom(t, smallParams(), 150, 34)
	for round := 0; round < 4; round++ {
		tree.PrepareSweep()
		extra := randomItems(50, int64(35+round))
		for _, it := range extra {
			tree.Insert(it.ID+EntryID(20000+round*1000), it.Rect)
		}
		for i := round * 20; i < (round+1)*20; i++ {
			if !tree.Delete(items[i].ID, items[i].Rect) {
				t.Fatalf("round %d: delete %d failed", round, i)
			}
		}
		if err := tree.CheckIntegrity(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

func TestPrepareSweepBuildsEveryNode(t *testing.T) {
	tree := BulkLoadSTR(DefaultParams(), randomItems(2000, 36), 0.73)
	tree.PrepareSweep()
	count := 0
	tree.eachNode(func(n *Node) {
		count++
		if n.sweep == nil {
			t.Fatalf("page %d has no sweep cache after bulk load", n.Page)
		}
		sweepViewMatchesEntries(t, n)
	})
	if count == 0 {
		t.Fatal("no nodes visited")
	}
}

// eachNode visits every live node of the tree (test helper).
func (t *Tree) eachNode(visit func(*Node)) {
	for _, n := range t.nodes {
		if n != nil {
			visit(n)
		}
	}
}
