package join

import (
	"fmt"

	"spjoin/internal/buffer"
	"spjoin/internal/rtree"
	"spjoin/internal/storage"
)

// Out-of-core join: the same [BKS 93] filter join over trees persisted in
// real page files, with node accesses going through real buffer pools.

// pagedSource adapts two PagedTrees to the Source interface, capturing the
// first I/O error (the traversal then degenerates to empty nodes and
// terminates quickly).
type pagedSource struct {
	r, s *rtree.PagedTree
	err  error
}

// Node implements Source. A decoded node whose level differs from the one
// its parent pair expects is an error: levels then fall strictly along
// every path, so a corrupt child pointer (one that points back up the
// tree, say) cannot make the traversal loop.
func (p *pagedSource) Node(side buffer.TreeID, page storage.PageID, level int) *rtree.Node {
	if p.err != nil {
		return &rtree.Node{Page: page, Level: level}
	}
	var n *rtree.Node
	var err error
	if side == SideR {
		n, err = p.r.Node(page)
	} else {
		n, err = p.s.Node(page)
	}
	if err == nil && n.Level != level {
		err = fmt.Errorf("page %d is level %d, parent expects %d", page, n.Level, level)
	}
	if err != nil {
		p.err = err
		return &rtree.Node{Page: page, Level: level}
	}
	return n
}

// NewPagedSource returns a Source over two persisted trees plus an error
// check to call after the traversal. The source is for use by a single
// goroutine; create one per worker (the underlying buffer pools are safe
// for concurrent use).
func NewPagedSource(r, s *rtree.PagedTree) (Source, func() error) {
	src := &pagedSource{r: r, s: s}
	return src, func() error { return src.err }
}

// PagedRootPair is RootPair for persisted trees: it reads both roots
// through the buffer pools and returns their NodePair, or false if the
// trees cannot join (either empty or with disjoint MBRs).
func PagedRootPair(r, s *rtree.PagedTree) (NodePair, bool, error) {
	if r.Len() == 0 || s.Len() == 0 {
		return NodePair{}, false, nil
	}
	rRoot, err := r.Node(r.Root())
	if err != nil {
		return NodePair{}, false, err
	}
	sRoot, err := s.Node(s.Root())
	if err != nil {
		return NodePair{}, false, err
	}
	if !rRoot.MBR().Intersects(sRoot.MBR()) {
		return NodePair{}, false, nil
	}
	return NodePair{
		RPage: r.Root(), SPage: s.Root(),
		RLevel: rRoot.Level, SLevel: sRoot.Level,
	}, true, nil
}
