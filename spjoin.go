// Package spjoin is a parallel spatial-join library reproducing Brinkhoff,
// Kriegel and Seeger: "Parallel Processing of Spatial Joins Using R-trees"
// (ICDE 1996).
//
// The library has two faces:
//
//   - A native executor (Join, JoinParallel) that computes the filter step
//     of a spatial join — all pairs of objects with intersecting minimum
//     bounding rectangles — over two R*-trees, using goroutines and the
//     paper's dynamic task assignment for real parallelism on the host.
//
//   - A simulator (Simulate) that reruns the paper's evaluation on a
//     virtual shared-virtual-memory machine: n processors, a simulated
//     disk array, local or global LRU buffers, static/dynamic task
//     assignment and task reassignment, reporting response time, per-
//     processor run times, speed-up and disk accesses in virtual time.
//
// Quick start:
//
//	streets, mixed := spjoin.SampleMaps(0.05, 42)
//	r := spjoin.Build(streets)
//	s := spjoin.Build(mixed)
//	pairs := spjoin.JoinParallel(r, s, 0) // 0 = use all CPUs
//
// The subpackages under internal implement the full system: internal/rtree
// (R*-tree), internal/join (sequential join of [BKS 93]), internal/parjoin
// (the paper's parallel algorithms on a discrete-event simulator),
// internal/exp (the per-table/figure experiment harness).
package spjoin

import (
	"spjoin/internal/geom"
	"spjoin/internal/join"
	"spjoin/internal/pagefile"
	"spjoin/internal/parjoin"
	"spjoin/internal/parnative"
	"spjoin/internal/refine"
	"spjoin/internal/rtree"
	"spjoin/internal/tiger"
)

// Rect is an axis-parallel rectangle (a minimum bounding rectangle).
type Rect = geom.Rect

// NewRect builds a rectangle from two arbitrary corner points.
func NewRect(x1, y1, x2, y2 float64) Rect { return geom.NewRect(x1, y1, x2, y2) }

// ID identifies a spatial object in its relation.
type ID = rtree.EntryID

// Item is one spatial object: its identifier and its MBR.
type Item = rtree.Item

// Tree is an R*-tree over a spatial relation. Build one with Build or
// BuildSTR; both accept further Insert/Delete afterwards.
type Tree = rtree.Tree

// Candidate is one filter-step result: the two object ids R and S of a pair
// whose MBRs intersect. It carries nothing else; MBRs and exact shapes are
// looked up by id in the caller's own relations (see JoinRefined). Exact
// geometry testing (the refinement step) is up to the application; see
// internal/refine for segment predicates.
type Candidate = join.Candidate

// TreeParams configures the page geometry of a tree; the default matches
// the paper (4 KB pages, 40-byte directory entries, 156-byte data entries).
type TreeParams = rtree.Params

// DefaultTreeParams returns the paper's page configuration.
func DefaultTreeParams() TreeParams { return rtree.DefaultParams() }

// Build creates an R*-tree from items by dynamic insertion (the paper's
// construction: ChooseSubtree, forced reinsertion, margin-driven splits).
func Build(items []Item) *Tree {
	t := rtree.New(rtree.DefaultParams())
	for _, it := range items {
		t.Insert(it.ID, it.Rect)
	}
	return t
}

// BuildSTR creates an R*-tree from items by Sort-Tile-Recursive bulk
// loading at the given fill factor in (0, 1]; it is much faster than Build
// and, at fill 0.73, reproduces the page counts of the paper's dynamically
// built trees.
func BuildSTR(items []Item, fill float64) *Tree {
	return rtree.BulkLoadSTR(rtree.DefaultParams(), items, fill)
}

// Join computes the filter step of r ⋈ s sequentially with the [BKS 93]
// algorithm (synchronized depth-first traversal, search-space restriction,
// plane sweep) and returns all candidate pairs.
func Join(r, s *Tree) []Candidate {
	return join.Sequential(r, s, join.Options{})
}

// JoinParallel computes the same candidate set with parallel goroutines
// (dynamic task assignment over pairs of subtrees). workers <= 0 uses all
// CPUs. The result is sorted by (R, S) id, so it is deterministic.
func JoinParallel(r, s *Tree, workers int) []Candidate {
	res := parnative.Join(r, s, parnative.Config{Workers: workers})
	join.SortCandidates(res.Candidates)
	return res.Candidates
}

// SampleMaps generates the two synthetic TIGER-like relations of the
// paper's evaluation at a fraction of the original cardinality (scale 1.0:
// 131,443 street segments and 127,312 mixed features). The generator is
// deterministic in (scale, seed).
func SampleMaps(scale float64, seed int64) (streets, mixed []Item) {
	return tiger.Maps(scale, seed)
}

// Shape is the exact geometry of an object — a line segment or a box —
// used by the refinement step.
type Shape = refine.Shape

// Segment is an exact line segment.
type Segment = refine.Segment

// SegmentShape wraps a line segment as a Shape.
func SegmentShape(x1, y1, x2, y2 float64) Shape {
	return refine.SegmentShape(refine.Segment{X1: x1, Y1: y1, X2: x2, Y2: y2})
}

// BoxShape wraps an axis-parallel box as a Shape.
func BoxShape(r Rect) Shape { return refine.BoxShape(r) }

// Feature couples one object's exact geometry with the MBR the filter step
// indexes.
type Feature = tiger.Feature

// SampleFeatures generates the same maps as SampleMaps but with exact
// geometry attached (streets/rivers/railways are segments, boundary pieces
// are boxes), enabling a full filter + refinement pipeline.
func SampleFeatures(scale float64, seed int64) (streets, mixed []Feature) {
	if scale <= 0 {
		panic("spjoin: scale must be positive")
	}
	nStreets := int(float64(tiger.DefaultStreetCount) * scale)
	nMixed := int(float64(tiger.DefaultMixedCount) * scale)
	if nStreets < 1 {
		nStreets = 1
	}
	if nMixed < 1 {
		nMixed = 1
	}
	return tiger.StreetFeatures(nStreets, seed), tiger.MixedFeaturesExact(nMixed, seed)
}

// BuildFeatures creates an R*-tree over features' MBRs.
func BuildFeatures(fs []Feature) *Tree { return Build(tiger.Items(fs)) }

// JoinRefined runs the complete two-step spatial join in parallel: the
// filter step over the R*-trees followed by the exact-geometry refinement,
// both executed by the same worker that found each candidate (as in the
// paper). It returns the exact result pairs plus the number of false hits
// the refinement eliminated. A panic in shapeR or shapeS stops every worker
// and is raised again on the caller's goroutine, where it can be recovered.
func JoinRefined(r, s *Tree, shapeR, shapeS func(ID) Shape, workers int) (answers []Candidate, falseHits int) {
	res := parnative.Join(r, s, parnative.Config{
		Workers: workers,
		Refiner: func(c Candidate) bool {
			return shapeR(c.R).Intersects(shapeS(c.S))
		},
	})
	join.SortCandidates(res.Candidates)
	return res.Candidates, res.FalseHits
}

// QueryWindows evaluates a batch of window queries in parallel goroutines
// (dynamic assignment, like the join). The i-th result holds the ids of all
// objects whose MBRs intersect windows[i]. workers <= 0 uses all CPUs.
func QueryWindows(t *Tree, windows []Rect, workers int) [][]ID {
	return parnative.WindowQueries(t, windows, workers)
}

// NearestNeighbors returns the k objects closest to the point (x, y), in
// ascending distance of their MBRs (the §5 "neighbor query").
func NearestNeighbors(t *Tree, x, y float64, k int) []rtree.Neighbor {
	return t.NearestNeighbors(x, y, k)
}

// Neighbor is one nearest-neighbor result: object id, MBR, and distance.
type Neighbor = rtree.Neighbor

// SimConfig configures one simulated parallel join run (processors, disks,
// buffer organization and size, task assignment, reassignment, victim
// policy, cost calibration).
type SimConfig = parjoin.Config

// SimResult reports the virtual-time measures of a simulated run: response
// time, per-processor finish times, total work, disk accesses, buffer hit
// classes.
type SimResult = parjoin.Result

// DefaultSimConfig returns the paper's best variant — global buffer,
// dynamic task assignment, reassignment on all directory levels — with n
// processors, d disks and the given total buffer capacity in pages.
func DefaultSimConfig(procs, disks, bufferPages int) SimConfig {
	return parjoin.DefaultConfig(procs, disks, bufferPages)
}

// SaveTree persists a tree into a page file at path (one node per 4 KB
// page), creating or truncating the file.
func SaveTree(t *Tree, path string) error {
	pf, err := pagefile.Create(path)
	if err != nil {
		return err
	}
	if err := t.SaveToPageFile(pf); err != nil {
		pf.Close()
		return err
	}
	return pf.Close()
}

// PagedTree is a tree persisted with SaveTree, served through a real
// buffer pool for out-of-core processing.
type PagedTree = rtree.PagedTree

// OpenTree opens a persisted tree, buffering up to bufferPages pages in
// memory. Call close when done.
func OpenTree(path string, bufferPages int) (t *PagedTree, close func() error, err error) {
	pf, err := pagefile.Open(path)
	if err != nil {
		return nil, nil, err
	}
	pt, err := rtree.OpenPagedTree(pf, bufferPages)
	if err != nil {
		pf.Close()
		return nil, nil, err
	}
	return pt, pf.Close, nil
}

// JoinOutOfCore runs the filter join over two persisted trees with real
// page I/O through their buffer pools, on one worker of the native
// executor. It returns the candidates and the number of physical page
// reads performed (the pools' misses during the join).
func JoinOutOfCore(r, s *PagedTree) ([]Candidate, int64, error) {
	misses := func() int64 { return r.Pool().Misses() + s.Pool().Misses() }
	before := misses()
	res, err := parnative.JoinPaged(r, s, parnative.Config{Workers: 1})
	return res.Candidates, misses() - before, err
}

// Assignment selects how tasks reach the simulated processors.
type Assignment = parjoin.Assignment

// BufferOrg selects the simulated buffer organization.
type BufferOrg = parjoin.BufferOrg

// Reassign selects the simulated load-balancing mode.
type Reassign = parjoin.Reassign

// Victim selects which processor an idle simulated processor helps.
type Victim = parjoin.Victim

// Re-exported enumeration values for SimConfig fields.
const (
	StaticRange      = parjoin.StaticRange      // contiguous plane-sweep blocks
	StaticRoundRobin = parjoin.StaticRoundRobin // plane-sweep order dealt round-robin
	Dynamic          = parjoin.Dynamic          // shared task queue
	StaticEstimated  = parjoin.StaticEstimated  // LPT over estimated task costs

	LocalBuffers  = parjoin.LocalOrg         // private LRU buffer per processor
	GlobalBuffer  = parjoin.GlobalOrg        // one logical buffer over all memories
	SharedNothing = parjoin.SharedNothingOrg // per-processor disks, page shipping

	ReassignNone = parjoin.ReassignNone // no load balancing
	ReassignRoot = parjoin.ReassignRoot // move unstarted root-level tasks
	ReassignAll  = parjoin.ReassignAll  // split work at every level

	MostLoaded   = parjoin.MostLoaded   // help the processor reporting most work
	RandomVictim = parjoin.RandomVictim // help an arbitrary processor
)

// Simulate runs the parallel spatial join of r and s on the simulated
// shared-virtual-memory machine and returns the paper's measures. Runs are
// bit-for-bit reproducible in (r, s, cfg).
func Simulate(r, s *Tree, cfg SimConfig) SimResult {
	return parjoin.Run(r, s, cfg)
}
