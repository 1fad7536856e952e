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

// PagedIOStats reports the physical I/O of an out-of-core join.
type PagedIOStats struct {
	RHits, RMisses int64
	SHits, SMisses int64
}

// Reads returns the number of physical page reads.
func (s PagedIOStats) Reads() int64 { return s.RMisses + s.SMisses }

// PagedSequential runs the filter join over two persisted trees, buffering
// through their pools, and returns the candidates plus physical I/O
// statistics.
func PagedSequential(r, s *rtree.PagedTree, opts Options) ([]Candidate, PagedIOStats, error) {
	var stats PagedIOStats
	rHits0, rMiss0 := r.Pool().Hits(), r.Pool().Misses()
	sHits0, sMiss0 := s.Pool().Hits(), s.Pool().Misses()

	if r.Len() == 0 || s.Len() == 0 {
		return nil, stats, nil
	}
	rRoot, err := r.Node(r.Root())
	if err != nil {
		return nil, stats, err
	}
	sRoot, err := s.Node(s.Root())
	if err != nil {
		return nil, stats, err
	}
	if !rRoot.MBR().Intersects(sRoot.MBR()) {
		return nil, stats, nil
	}

	src := &pagedSource{r: r, s: s}
	var buf CandidateBuf
	e := Engine{
		Src:          src,
		Opts:         opts,
		OnCandidates: buf.Append,
	}
	e.Run(NodePair{
		RPage: r.Root(), SPage: s.Root(),
		RLevel: rRoot.Level, SLevel: sRoot.Level,
	})
	if src.err != nil {
		return nil, stats, fmt.Errorf("join: paged traversal: %w", src.err)
	}
	stats.RHits = r.Pool().Hits() - rHits0
	stats.RMisses = r.Pool().Misses() - rMiss0
	stats.SHits = s.Pool().Hits() - sHits0
	stats.SMisses = s.Pool().Misses() - sMiss0
	return buf.flatten(), stats, nil
}
