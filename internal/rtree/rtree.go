// Package rtree implements the R*-tree of Beckmann, Kriegel, Schneider and
// Seeger [BKSS 90]: a height-balanced, paged spatial access method storing
// minimum bounding rectangles. It provides the classic dynamic operations
// (insert with forced reinsertion, margin-driven node splitting, deletion
// with tree condensation), window queries, and an STR bulk loader as an
// extension.
//
// Nodes are kept in an in-memory node store addressed by page number; page
// numbers are assigned densely in allocation order, which is what the
// paper's simulated disk array keys on (page mod #disks). The buffer and
// disk layers charge virtual-time costs per page access while the node data
// itself always stays addressable, cleanly separating correctness from the
// cost model.
package rtree

import (
	"fmt"

	"spjoin/internal/geom"
	"spjoin/internal/storage"
)

// EntryID identifies one spatial object (a data entry).
type EntryID int32

// Entry is one slot of a node: in a directory node Child points to the node
// one level below and Rect is that subtree's MBR; in a leaf Obj identifies
// the object whose MBR is Rect.
type Entry struct {
	Rect  geom.Rect
	Child storage.PageID // directory entry: child page, else InvalidPage
	Obj   EntryID        // leaf entry: object id
}

// Node is one page of the tree. Level 0 nodes are leaves (data pages);
// higher levels are directory pages. The paper's trees have height 3, i.e.
// root level 2.
type Node struct {
	Page    storage.PageID
	Parent  storage.PageID // InvalidPage for the root
	Level   int
	Entries []Entry

	// sweep caches the join views of this node (SoA rects, MinX order,
	// MBR); nil until built. See sweepcache.go.
	sweep *sweepCache
	// block is the native join's view of the data entries under a level-1
	// node or a leaf root; nil until built. See block.go.
	block *Block
}

// Kind returns the storage classification of the node's page.
func (n *Node) Kind() storage.PageKind {
	if n.Level == 0 {
		return storage.DataPage
	}
	return storage.DirectoryPage
}

// MBR returns the minimum bounding rectangle of all entries.
func (n *Node) MBR() geom.Rect {
	mbr := geom.EmptyRect()
	for i := range n.Entries {
		mbr = mbr.Union(n.Entries[i].Rect)
	}
	return mbr
}

// Params fixes the page geometry of a tree. The paper's configuration is
// 4 KB pages with 40-byte directory entries and 156-byte data entries.
type Params struct {
	// MaxDirEntries is the directory page capacity (paper: 4096/40 = 102).
	MaxDirEntries int
	// MaxDataEntries is the data page capacity (paper: 4096/156 = 26).
	MaxDataEntries int
	// MinFillFrac is the minimum node utilization m/M (R*-tree default 0.4).
	MinFillFrac float64
	// ReinsertFrac is the share of entries removed on forced reinsertion
	// (R*-tree default 0.3; set 0 for Guttman behavior).
	ReinsertFrac float64
	// Split selects the node-splitting algorithm; the zero value is the
	// R*-tree split, QuadraticSplit/LinearSplit give Guttman's R-tree.
	Split SplitStrategy
}

// DefaultParams returns the paper's page configuration.
func DefaultParams() Params {
	return ParamsForPageSize(4096, 40, 156)
}

// ParamsForPageSize derives capacities from a page size and entry sizes in
// bytes, with the standard R*-tree tuning constants.
func ParamsForPageSize(pageSize, dirEntrySize, dataEntrySize int) Params {
	return Params{
		MaxDirEntries:  pageSize / dirEntrySize,
		MaxDataEntries: pageSize / dataEntrySize,
		MinFillFrac:    0.4,
		ReinsertFrac:   0.3,
	}
}

// validate panics on unusable parameters; tree construction is programmer
// controlled, so misconfiguration is a bug rather than a runtime error.
func (p Params) validate() {
	if p.MaxDirEntries < 4 || p.MaxDataEntries < 4 {
		panic(fmt.Sprintf("rtree: capacities too small: dir=%d data=%d (need >= 4)",
			p.MaxDirEntries, p.MaxDataEntries))
	}
	if p.MinFillFrac <= 0 || p.MinFillFrac > 0.5 {
		panic(fmt.Sprintf("rtree: MinFillFrac %g out of (0, 0.5]", p.MinFillFrac))
	}
	if p.ReinsertFrac < 0 || p.ReinsertFrac >= 1 {
		panic(fmt.Sprintf("rtree: ReinsertFrac %g out of [0, 1)", p.ReinsertFrac))
	}
}

// Tree is an R*-tree. Create trees with New; the zero value is not usable.
type Tree struct {
	params Params
	nodes  []*Node // node store indexed by PageID
	root   storage.PageID
	size   int // number of data entries
	// blocksReady says every node PrepareBlocks prepares carries its cache
	// or block; a mutation clears it.
	blocksReady bool
	// maxBlock is the length of the longest block built so far.
	maxBlock int
}

// New returns an empty R*-tree with the given page parameters.
func New(params Params) *Tree {
	params.validate()
	t := &Tree{params: params, root: storage.InvalidPage}
	t.root = t.allocNode(0).Page
	return t
}

// Params returns the tree's page parameters.
func (t *Tree) Params() Params { return t.params }

// Len returns the number of data entries.
func (t *Tree) Len() int { return t.size }

// Root returns the root's page number.
func (t *Tree) Root() storage.PageID { return t.root }

// Height returns the number of levels (paper convention: a root at level 2
// gives height 3). An empty tree has height 1.
func (t *Tree) Height() int { return t.node(t.root).Level + 1 }

// Node returns the node stored on the given page. It panics on an invalid
// or stale page number.
func (t *Tree) Node(id storage.PageID) *Node {
	n := t.node(id)
	if n == nil {
		panic(fmt.Sprintf("rtree: access to freed page %d", id))
	}
	return n
}

// NumPages returns the number of allocated (live) pages by kind.
func (t *Tree) NumPages() (dataPages, dirPages int) {
	for _, n := range t.nodes {
		if n == nil {
			continue
		}
		if n.Level == 0 {
			dataPages++
		} else {
			dirPages++
		}
	}
	return dataPages, dirPages
}

// MBR returns the bounding rectangle of the whole tree (empty if no data).
func (t *Tree) MBR() geom.Rect { return t.node(t.root).MBR() }

func (t *Tree) node(id storage.PageID) *Node {
	if id < 0 || int(id) >= len(t.nodes) {
		return nil
	}
	return t.nodes[id]
}

// allocNode appends a fresh node at the given level and returns it. Page
// numbers grow densely; freed pages are not recycled (the paper builds its
// trees once and joins them read-only, so fragmentation is irrelevant and
// stable numbering keeps disk placement reproducible).
func (t *Tree) allocNode(level int) *Node {
	n := &Node{
		Page:   storage.PageID(len(t.nodes)),
		Parent: storage.InvalidPage,
		Level:  level,
	}
	t.nodes = append(t.nodes, n)
	return n
}

// freeNode drops a node from the store (used by deletion's condense step).
func (t *Tree) freeNode(id storage.PageID) {
	t.nodes[id] = nil
}

// capacity returns the maximum entry count of n.
func (t *Tree) capacity(n *Node) int {
	if n.Level == 0 {
		return t.params.MaxDataEntries
	}
	return t.params.MaxDirEntries
}

// minFill returns the minimum entry count of a non-root node at n's level.
func (t *Tree) minFill(n *Node) int {
	m := int(t.params.MinFillFrac * float64(t.capacity(n)))
	if m < 1 {
		m = 1
	}
	return m
}

// Search calls visit for every data entry whose MBR intersects query.
// Returning false stops the search. It returns the number of node accesses
// performed (for tuning experiments).
//
// Nodes carrying a sweep cache (built by PrepareSweep or a previous join)
// are scanned through the vectorized batch kernel over the cached
// coordinate planes; the per-entry predicate, visit order, early stop and
// access count are identical either way.
func (t *Tree) Search(query geom.Rect, visit func(id EntryID, r geom.Rect) bool) int {
	accesses := 0
	var rec func(id storage.PageID) bool
	rec = func(id storage.PageID) bool {
		n := t.Node(id)
		accesses++
		if c := n.sweep; c != nil && len(n.Entries) <= 128 {
			var mask [2]uint64
			geom.IntersectBatchPlanes(query, &c.planes, mask[:])
			for i := range n.Entries {
				if mask[i>>6]>>(uint(i)&63)&1 == 0 {
					continue
				}
				e := &n.Entries[i]
				if n.Level == 0 {
					if !visit(e.Obj, e.Rect) {
						return false
					}
				} else if !rec(e.Child) {
					return false
				}
			}
			return true
		}
		for i := range n.Entries {
			e := &n.Entries[i]
			if !e.Rect.Intersects(query) {
				continue
			}
			if n.Level == 0 {
				if !visit(e.Obj, e.Rect) {
					return false
				}
			} else if !rec(e.Child) {
				return false
			}
		}
		return true
	}
	rec(t.root)
	return accesses
}

// Count returns the number of data entries intersecting query.
func (t *Tree) Count(query geom.Rect) int {
	count := 0
	t.Search(query, func(EntryID, geom.Rect) bool {
		count++
		return true
	})
	return count
}

// Walk visits every live node, top-down. Used by integrity checks and
// statistics.
func (t *Tree) Walk(visit func(n *Node)) {
	var rec func(id storage.PageID)
	rec = func(id storage.PageID) {
		n := t.Node(id)
		visit(n)
		if n.Level > 0 {
			for i := range n.Entries {
				rec(n.Entries[i].Child)
			}
		}
	}
	rec(t.root)
}
