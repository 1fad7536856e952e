package rtree

import (
	"math"
	"strings"
	"testing"
)

// TestBulkLoadPreparesBlocks pins what the bulk loaders prepare for the
// native join: a sweep cache on every directory node and on the root, none
// on the other leaves, and a block on every level-1 node (or on a root that
// is a leaf) holding each data entry under it exactly once.
func TestBulkLoadPreparesBlocks(t *testing.T) {
	items := randomItems(3000, 37)
	for name, tree := range map[string]*Tree{
		"STR":         BulkLoadSTR(DefaultParams(), items, 0.73),
		"STRParallel": BulkLoadSTRParallel(DefaultParams(), items, 0.73, 3),
		"height1":     BulkLoadSTR(DefaultParams(), items[:20], 0.73),
		"small":       BulkLoadSTR(smallParams(), items[:400], 0.8),
	} {
		t.Run(name, func(t *testing.T) {
			inBlocks := 0
			tree.eachNode(func(n *Node) {
				isRoot := n.Page == tree.root
				if cached := n.sweep != nil; cached != (n.Level > 0 || isRoot) {
					t.Fatalf("page %d (level %d, root %v): sweep cache present = %v",
						n.Page, n.Level, isRoot, cached)
				}
				owner := n.Level == 1 || (n.Level == 0 && isRoot)
				if (n.block != nil) != owner {
					t.Fatalf("page %d (level %d, root %v): block present = %v",
						n.Page, n.Level, isRoot, n.block != nil)
				}
				if n.block != nil {
					inBlocks += n.block.Len()
				}
			})
			if inBlocks != tree.Len() {
				t.Fatalf("blocks hold %d entries, tree %d", inBlocks, tree.Len())
			}
			if err := tree.CheckIntegrity(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCheckIntegrityCatchesStaleBlock changes data under a block without
// dropping it — what a mutation path that forgot to invalidate would leave
// — and expects CheckIntegrity to report the stale block.
func TestCheckIntegrityCatchesStaleBlock(t *testing.T) {
	tree := BulkLoadSTR(smallParams(), randomItems(400, 38), 0.8)
	var leaf *Node
	tree.eachNode(func(n *Node) {
		if leaf == nil && n.Level == 0 {
			leaf = n
		}
	})
	leaf.Entries[0].Obj += 100000 // the rects, so every MBR, stay intact
	err := tree.CheckIntegrity()
	if err == nil || !strings.Contains(err.Error(), "stale block") {
		t.Fatalf("CheckIntegrity = %v, want a stale block", err)
	}

	tree = BulkLoadSTR(smallParams(), randomItems(400, 38), 0.8)
	tree.eachNode(func(n *Node) {
		if n.Level == 2 && n.block == nil {
			n.block = newBlock(0)
		}
	})
	if err := tree.CheckIntegrity(); err == nil || !strings.Contains(err.Error(), "stale block") {
		t.Fatalf("CheckIntegrity = %v, want a block on a level-2 node reported", err)
	}
}

// TestMutationDropsBlocks checks that inserting and deleting drop the blocks
// over the touched leaves, and that PrepareBlocks rebuilds exactly what is
// missing.
func TestMutationDropsBlocks(t *testing.T) {
	tree, items := buildRandom(t, smallParams(), 300, 39)
	tree.PrepareBlocks()
	if !tree.blocksReady {
		t.Fatal("PrepareBlocks left the tree unprepared")
	}
	extra := randomItems(40, 40)
	for i, it := range extra {
		tree.Insert(EntryID(50000+i), it.Rect)
	}
	for _, it := range items[:60] {
		if !tree.Delete(it.ID, it.Rect) {
			t.Fatalf("delete %d failed", it.ID)
		}
	}
	if tree.blocksReady {
		t.Fatal("mutations left the tree marked prepared")
	}
	if err := tree.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	tree.PrepareBlocks()
	inBlocks := 0
	tree.eachNode(func(n *Node) {
		if n.Level == 1 && n.block == nil {
			t.Fatalf("page %d: no block after PrepareBlocks", n.Page)
		}
		if n.block != nil {
			inBlocks += n.block.Len()
		}
	})
	if inBlocks != tree.Len() {
		t.Fatalf("blocks hold %d entries, tree %d", inBlocks, tree.Len())
	}
	if err := tree.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestNaNEntriesSortLast checks the join views of leaves holding rects with
// a NaN coordinate: the block leaves them out, the sweep cache orders them
// after every other entry, and the rest keep their sweep order.
func TestNaNEntriesSortLast(t *testing.T) {
	items := randomItems(600, 41)
	for i := 0; i < len(items); i += 7 {
		switch i % 4 {
		case 0:
			items[i].Rect.MinX = math.NaN()
		case 1:
			items[i].Rect.MinY = math.NaN()
		case 2:
			items[i].Rect.MaxX = math.NaN()
		default:
			items[i].Rect.MaxY = math.NaN()
		}
	}
	tree := BulkLoadSTR(smallParams(), items, 0.8)
	tree.PrepareSweep()
	if err := tree.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	if mbr := tree.MBR(); hasNaN(mbr) {
		t.Fatalf("root MBR %v carries a NaN", mbr)
	}
	nans, inBlocks := 0, 0
	tree.eachNode(func(n *Node) {
		if n.block != nil {
			inBlocks += n.block.Len()
		}
		if n.Level > 0 {
			return
		}
		_, order, _ := n.PlanesView()
		seen := false
		for _, o := range order {
			if hasNaN(n.Entries[o].Rect) {
				seen = true
				nans++
			} else if seen {
				t.Fatalf("page %d: entry %d sorts after a NaN entry", n.Page, o)
			}
		}
	})
	if inBlocks != tree.Len()-nans {
		t.Fatalf("blocks hold %d entries, want %d without the %d NaN ones", inBlocks, tree.Len()-nans, nans)
	}
}
