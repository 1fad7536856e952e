// Package join implements the sequential R*-tree spatial join of Brinkhoff,
// Kriegel and Seeger [BKS 93], the starting point of the paper's parallel
// algorithms. Two R*-trees are traversed synchronously depth-first; at every
// node pair the qualifying (intersecting) entry pairs are computed with the
// two CPU tuning techniques of §2.2:
//
//  1. search-space restriction: only entries intersecting the intersection
//     of the two nodes' MBRs can contribute;
//  2. a plane-sweep over the entries sorted by lower x-value, which emits
//     the qualifying pairs in "local plane-sweep order" — the order in which
//     pages are subsequently read, preserving spatial locality in the LRU
//     buffer.
//
// The same expansion primitive drives the parallel executors of packages
// parjoin and parnative.
package join

import (
	"spjoin/internal/buffer"
	"spjoin/internal/geom"
	"spjoin/internal/metrics"
	"spjoin/internal/rtree"
	"spjoin/internal/storage"
)

// Side names the two join operands; it doubles as the buffer-layer tree id.
const (
	SideR buffer.TreeID = 0
	SideS buffer.TreeID = 1
)

// Source provides node access during the join. Implementations may charge
// virtual-time or real costs per access (buffers, disks, path buffers); the
// returned node data is always the in-memory truth.
type Source interface {
	Node(side buffer.TreeID, page storage.PageID, level int) *rtree.Node
}

// DirectSource reads nodes straight from the trees with no cost accounting.
type DirectSource struct {
	R, S *rtree.Tree
}

// Node implements Source.
func (d DirectSource) Node(side buffer.TreeID, page storage.PageID, _ int) *rtree.Node {
	if side == SideR {
		return d.R.Node(page)
	}
	return d.S.Node(page)
}

// Candidate is one result of the filter step: the ids of two objects whose
// MBRs intersect. The refinement step looks each object up by its id and
// decides whether the pair is an answer or a false hit.
type Candidate struct {
	R, S rtree.EntryID
}

// NodePair references two subtrees whose roots' MBRs intersect — the unit
// of work throughout the parallel algorithms ("a task refers to performing
// the sequential algorithm on a pair of subtrees").
type NodePair struct {
	RPage, SPage   storage.PageID
	RLevel, SLevel int
}

// MaxLevel returns the higher of the two node levels; reassignable work is
// ranked by it.
func (p NodePair) MaxLevel() int {
	if p.RLevel > p.SLevel {
		return p.RLevel
	}
	return p.SLevel
}

// Options toggles the §2.2 tuning techniques, kept switchable for the
// ablation benchmarks.
type Options struct {
	// DisableRestriction skips the search-space restriction.
	DisableRestriction bool
	// NestedLoops replaces the plane-sweep by the quadratic nested-loops
	// pair enumeration (which also destroys the plane-sweep page order).
	NestedLoops bool
}

// Scratch holds the reusable buffers of the node-pair expansion kernel.
// A zero Scratch is ready to use; after a few expansions the buffers reach
// steady-state capacity and Expand performs no heap allocation per node
// pair. A Scratch is for use by a single goroutine (one per worker).
type Scratch struct {
	rIdx, sIdx []int32          // restricted entry sets
	rMask      []uint64         // batch-intersect bitmask, R side / one-sided
	sMask      []uint64         // batch-intersect bitmask, S side
	hits       []geom.IndexPair // sweep output batch
	cands      []Candidate      // leaf/leaf results of the last Expand
	leafPos    []geom.IndexPair // entry positions of cands, in lockstep
	pairs      []NodePair       // directory results of the last Expand
}

// LeafPairs returns the entry positions behind the candidates of the last
// Expand, in lockstep with them: LeafPairs()[k] = (i, j) means the k-th
// candidate is (nr.Entries[i].Obj, ns.Entries[j].Obj), so a caller that
// needs the pair's MBRs reads them from the two leaves instead of every
// candidate carrying copies. The slice is read-only and valid until the
// next Expand call; it is empty unless that Expand was leaf/leaf.
func (sc *Scratch) LeafPairs() []geom.IndexPair { return sc.leafPos }

// growMask returns m resized to hold a bitmask over n rects, reallocating
// only when the capacity is insufficient (steady state: never).
func growMask(m []uint64, n int) []uint64 {
	w := geom.MaskWords(n)
	if cap(m) < w {
		return make([]uint64, w, w+8)
	}
	return m[:w]
}

// Expand computes the qualifying child pairs of the node pair (nr, ns) in
// local plane-sweep order. Leaf/leaf pairs are returned as candidates; all
// other combinations as NodePairs to descend into. Nodes of unequal level
// (possible with trees of different height) descend on the deeper side
// only. comparisons is the number of rectangle comparisons performed, which
// drives the CPU cost model — it is a function of the nodes and opts alone,
// never of the caching or batching below.
//
// The returned slices are views into the scratch, valid until the next
// Expand call; callers must copy what they keep.
//
// The kernel reads each node through its sweep cache (rtree.Node.SweepView):
// the SoA rect view, the MinX-sorted entry order, and the MBR are computed
// once per node at build/load time, so steady-state expansion neither sorts
// nor copies entry rectangles. Restricting a set of entries that is already
// in sweep order yields the restricted set in sweep order, which is what
// lets the cached order replace the per-visit sort of the original code.
func (sc *Scratch) Expand(nr, ns *rtree.Node, opts Options) (cands []Candidate, pairs []NodePair, comparisons int) {
	sc.cands = sc.cands[:0]
	sc.leafPos = sc.leafPos[:0]
	sc.pairs = sc.pairs[:0]
	switch {
	case nr.Level == 0 && ns.Level == 0:
		comparisons = sc.expandEqual(nr, ns, opts, true)
		return sc.cands, nil, comparisons
	case nr.Level == ns.Level:
		comparisons = sc.expandEqual(nr, ns, opts, false)
		return nil, sc.pairs, comparisons
	case nr.Level > ns.Level:
		comparisons = sc.expandOneSided(nr, ns, opts, true)
		return nil, sc.pairs, comparisons
	default: // ns deeper on the R side
		comparisons = sc.expandOneSided(ns, nr, opts, false)
		return nil, sc.pairs, comparisons
	}
}

// expandEqual enumerates intersecting entry pairs of two same-level nodes
// into sc.cands (leaf) or sc.pairs (directory).
func (sc *Scratch) expandEqual(nr, ns *rtree.Node, opts Options, leaf bool) int {
	comparisons := 0
	rRects, rOrder, rMBR := nr.SweepView()
	sRects, sOrder, sMBR := ns.SweepView()
	rPlanes, _, _ := nr.PlanesView()
	sPlanes, _, _ := ns.PlanesView()

	if opts.NestedLoops {
		// Ablation baseline: quadratic enumeration in entry order (which
		// also destroys the plane-sweep page order).
		rIdx, sIdx := sc.rIdx[:0], sc.sIdx[:0]
		if opts.DisableRestriction {
			for i := range rRects {
				rIdx = append(rIdx, int32(i))
			}
			for j := range sRects {
				sIdx = append(sIdx, int32(j))
			}
		} else {
			inter := rMBR.Intersection(sMBR)
			comparisons += len(rRects) + len(sRects)
			for i := range rRects {
				if rRects[i].Intersects(inter) {
					rIdx = append(rIdx, int32(i))
				}
			}
			for j := range sRects {
				if sRects[j].Intersects(inter) {
					sIdx = append(sIdx, int32(j))
				}
			}
		}
		sc.rIdx, sc.sIdx = rIdx, sIdx
		for _, i := range rIdx {
			for _, j := range sIdx {
				comparisons++
				if rRects[i].Intersects(sRects[j]) {
					sc.emit(nr, ns, i, j, leaf)
				}
			}
		}
		return comparisons
	}

	// Technique (i): restrict both entry sets to the intersection of the
	// node MBRs. The tests run through the vectorized batch kernel over the
	// cached coordinate planes (the predicate is bit-identical to
	// Rect.Intersects, so the comparison count is unchanged — the quantized
	// prefilter only skips computing blocks whose bits are all zero);
	// walking the cached order against the bitmask keeps the restricted
	// sets in ascending MinX for free.
	rIdx, sIdx := sc.rIdx[:0], sc.sIdx[:0]
	if opts.DisableRestriction {
		rIdx = append(rIdx, rOrder...)
		sIdx = append(sIdx, sOrder...)
	} else {
		inter := rMBR.Intersection(sMBR)
		comparisons += len(rRects) + len(sRects)
		sc.rMask = growMask(sc.rMask, len(rRects))
		sc.sMask = growMask(sc.sMask, len(sRects))
		geom.IntersectBatchPlanes(inter, rPlanes, sc.rMask)
		geom.IntersectBatchPlanes(inter, sPlanes, sc.sMask)
		for _, i := range rOrder {
			if sc.rMask[i>>6]>>(uint(i)&63)&1 != 0 {
				rIdx = append(rIdx, i)
			}
		}
		for _, j := range sOrder {
			if sc.sMask[j>>6]>>(uint(j)&63)&1 != 0 {
				sIdx = append(sIdx, j)
			}
		}
	}
	sc.rIdx, sc.sIdx = rIdx, sIdx

	// Technique (ii): plane-sweep in ascending MinX over the coordinate
	// planes.
	var n int
	sc.hits, n = geom.SweepPairsPlanes(rPlanes, sPlanes, rIdx, sIdx, sc.hits[:0])
	comparisons += n
	for _, h := range sc.hits {
		sc.emit(nr, ns, h.R, h.S, leaf)
	}
	return comparisons
}

// emit records one qualifying entry pair (i of nr, j of ns); a leaf pair
// also records its positions for LeafPairs.
func (sc *Scratch) emit(nr, ns *rtree.Node, i, j int32, leaf bool) {
	er, es := &nr.Entries[i], &ns.Entries[j]
	if leaf {
		sc.cands = append(sc.cands, Candidate{R: er.Obj, S: es.Obj})
		sc.leafPos = append(sc.leafPos, geom.IndexPair{R: i, S: j})
		return
	}
	sc.pairs = append(sc.pairs, NodePair{
		RPage: er.Child, SPage: es.Child,
		RLevel: nr.Level - 1, SLevel: ns.Level - 1,
	})
}

// expandOneSided enumerates the entries of the deeper node that intersect
// the other subtree's MBR, in ascending MinX (sweep order). rDeeper says
// which side descends.
func (sc *Scratch) expandOneSided(deep, other *rtree.Node, opts Options, rDeeper bool) int {
	rects, order, _ := deep.SweepView()
	_, _, otherMBR := other.SweepView()
	comparisons := len(rects)
	if opts.NestedLoops {
		// Entry order instead of sweep order.
		for i := range rects {
			if rects[i].Intersects(otherMBR) {
				sc.emitOneSided(deep, other, int32(i), rDeeper)
			}
		}
		return comparisons
	}
	// Batch-test the whole node against the other subtree's MBR through the
	// vectorized planes kernel, then walk the cached order against the
	// bitmask (sweep order, same predicate).
	planes, _, _ := deep.PlanesView()
	sc.rMask = growMask(sc.rMask, len(rects))
	geom.IntersectBatchPlanes(otherMBR, planes, sc.rMask)
	for _, i := range order {
		if sc.rMask[i>>6]>>(uint(i)&63)&1 != 0 {
			sc.emitOneSided(deep, other, i, rDeeper)
		}
	}
	return comparisons
}

// emitOneSided records a pair descending into entry i of the deeper node.
func (sc *Scratch) emitOneSided(deep, other *rtree.Node, i int32, rDeeper bool) {
	e := &deep.Entries[i]
	if rDeeper {
		sc.pairs = append(sc.pairs, NodePair{
			RPage: e.Child, SPage: other.Page,
			RLevel: deep.Level - 1, SLevel: other.Level,
		})
		return
	}
	sc.pairs = append(sc.pairs, NodePair{
		RPage: other.Page, SPage: e.Child,
		RLevel: other.Level, SLevel: deep.Level - 1,
	})
}

// Metrics bundles the filter-join counters of one parallel executor run:
// node pairs expanded, rectangle comparisons (the paper's CPU cost driver),
// candidates emitted. All fields are nil-safe.
type Metrics struct {
	Pairs       *metrics.Counter
	Comparisons *metrics.Counter
	Candidates  *metrics.Counter
}

// NewMetrics registers the join counters under prefix (for example
// "sim.join") in reg. A nil registry yields inert instruments.
func NewMetrics(reg *metrics.Registry, prefix string) *Metrics {
	return &Metrics{
		Pairs:       reg.Counter(prefix + ".pairs_expanded"),
		Comparisons: reg.Counter(prefix + ".comparisons"),
		Candidates:  reg.Counter(prefix + ".candidates"),
	}
}

// Engine runs the sequential [BKS 93] filter join depth-first from the two
// roots. Costs are whatever the Source charges; comparisons are reported
// through OnComparisons if set.
//
// The engine owns a Scratch and a traversal stack, both reused across Run
// calls: a warmed-up engine performs zero heap allocations per node pair
// (the candidate hooks may of course allocate on their side). Engines are
// for use by a single goroutine — give each worker its own.
type Engine struct {
	Src  Source
	Opts Options
	// OnCandidates, when set, receives each leaf pair's filter results as
	// one batch (a view valid only during the call).
	OnCandidates  func([]Candidate)
	OnComparisons func(int) // optional CPU accounting hook

	scratch Scratch
	stack   []NodePair
}

// Run joins the subtrees rooted at the given pair (normally the two roots).
// It performs a depth-first traversal; at every node pair, qualifying child
// pairs are visited in local plane-sweep order.
func (e *Engine) Run(root NodePair) {
	// Explicit stack; children pushed in reverse so they pop in sweep order.
	stack := append(e.stack[:0], root)
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]

		nr := e.Src.Node(SideR, p.RPage, p.RLevel)
		ns := e.Src.Node(SideS, p.SPage, p.SLevel)
		cands, children, comparisons := e.scratch.Expand(nr, ns, e.Opts)
		if len(cands) > 0 && e.OnCandidates != nil {
			e.OnCandidates(cands)
		}
		if e.OnComparisons != nil {
			e.OnComparisons(comparisons)
		}
		for i := len(children) - 1; i >= 0; i-- {
			stack = append(stack, children[i])
		}
	}
	e.stack = stack[:0]
}

// RootPair returns the NodePair of two trees' roots, or false if the trees
// cannot join (either empty or with disjoint MBRs).
func RootPair(r, s *rtree.Tree) (NodePair, bool) {
	if r.Len() == 0 || s.Len() == 0 || !r.MBR().Intersects(s.MBR()) {
		return NodePair{}, false
	}
	return NodePair{
		RPage: r.Root(), SPage: s.Root(),
		RLevel: r.Node(r.Root()).Level, SLevel: s.Node(s.Root()).Level,
	}, true
}

// Sequential runs the whole filter join of trees r and s with a
// cost-free source and returns the candidate set. This is the correctness
// baseline every parallel variant must reproduce.
func Sequential(r, s *rtree.Tree, opts Options) []Candidate {
	root, ok := RootPair(r, s)
	if !ok {
		return nil
	}
	var buf CandidateBuf
	e := Engine{
		Src:          DirectSource{R: r, S: s},
		Opts:         opts,
		OnCandidates: buf.Append,
	}
	e.Run(root)
	return buf.flatten()
}
