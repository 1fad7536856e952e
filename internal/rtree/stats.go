package rtree

import (
	"fmt"

	"spjoin/internal/storage"
)

// Stats summarizes the tree the way the paper's Table 1 does.
type Stats struct {
	Height         int
	DataEntries    int
	DataPages      int
	DirectoryPages int
	RootEntries    int
	AvgLeafFill    float64 // average data-page utilization
	AvgDirFill     float64 // average directory-page utilization
}

// Stats computes the Table 1 summary of the tree.
func (t *Tree) Stats() Stats {
	s := Stats{Height: t.Height(), DataEntries: t.Len()}
	var leafEntries, dirEntries int
	t.Walk(func(n *Node) {
		if n.Level == 0 {
			s.DataPages++
			leafEntries += len(n.Entries)
		} else {
			s.DirectoryPages++
			dirEntries += len(n.Entries)
		}
	})
	s.RootEntries = len(t.Node(t.root).Entries)
	if s.DataPages > 0 {
		s.AvgLeafFill = float64(leafEntries) /
			float64(s.DataPages*t.params.MaxDataEntries)
	}
	if s.DirectoryPages > 0 {
		s.AvgDirFill = float64(dirEntries) /
			float64(s.DirectoryPages*t.params.MaxDirEntries)
	}
	return s
}

// CheckIntegrity verifies the structural invariants of the R*-tree and
// returns the first violation found, or nil. It is used by the test suite
// after every mutation sequence.
//
// Invariants checked:
//  1. every directory entry's rectangle is exactly the MBR of its subtree;
//  2. every non-root node holds between minFill and capacity entries, the
//     root holds between 1 (or 0 when empty) and capacity;
//  3. all leaves are at level 0 and each level decreases by one per step;
//  4. parent pointers match the directory structure;
//  5. the number of reachable data entries equals Len();
//  6. every present sweep cache and block matches the entries it was built
//     from, bit for bit.
func (t *Tree) CheckIntegrity() error {
	root := t.node(t.root)
	if root == nil {
		return fmt.Errorf("rtree: root page %d missing", t.root)
	}
	if root.Parent != storage.InvalidPage {
		return fmt.Errorf("rtree: root has parent %d", root.Parent)
	}
	if len(root.Entries) > t.capacity(root) {
		return fmt.Errorf("rtree: root overfull: %d > %d", len(root.Entries), t.capacity(root))
	}
	if root.Level > 0 && len(root.Entries) < 2 && t.size > 0 {
		return fmt.Errorf("rtree: directory root with %d entries", len(root.Entries))
	}

	count := 0
	var check func(n *Node) error
	check = func(n *Node) error {
		if err := n.checkSweepCache(); err != nil {
			return err
		}
		if err := t.checkBlock(n); err != nil {
			return err
		}
		if n.Page != t.root {
			if len(n.Entries) < t.minFill(n) {
				return fmt.Errorf("rtree: page %d underfull: %d < %d",
					n.Page, len(n.Entries), t.minFill(n))
			}
			if len(n.Entries) > t.capacity(n) {
				return fmt.Errorf("rtree: page %d overfull: %d > %d",
					n.Page, len(n.Entries), t.capacity(n))
			}
		}
		for i := range n.Entries {
			e := &n.Entries[i]
			if n.Level == 0 {
				if e.Child != storage.InvalidPage {
					return fmt.Errorf("rtree: leaf %d entry %d has child pointer", n.Page, i)
				}
				count++
				continue
			}
			child := t.node(e.Child)
			if child == nil {
				return fmt.Errorf("rtree: page %d entry %d points to freed page %d",
					n.Page, i, e.Child)
			}
			if child.Level != n.Level-1 {
				return fmt.Errorf("rtree: page %d (level %d) has child %d at level %d",
					n.Page, n.Level, child.Page, child.Level)
			}
			if child.Parent != n.Page {
				return fmt.Errorf("rtree: child %d parent pointer %d, want %d",
					child.Page, child.Parent, n.Page)
			}
			if got := child.MBR(); e.Rect != got {
				return fmt.Errorf("rtree: page %d entry %d MBR %v, subtree MBR %v",
					n.Page, i, e.Rect, got)
			}
			if err := check(child); err != nil {
				return err
			}
		}
		return nil
	}
	if err := check(root); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("rtree: reachable entries %d != Len() %d", count, t.size)
	}
	return nil
}
