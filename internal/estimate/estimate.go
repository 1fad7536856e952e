// Package estimate implements the alternative the paper's §3.4 dismisses:
// "One solution to the problem would be to use a good estimation of the run
// time for each task and to modify the size of the work loads according to
// this estimation. However, this is difficult to achieve for spatial
// joins." This package builds that estimator — a selectivity model over the
// MBR statistics of a task's two subtrees — plus an LPT (longest processing
// time first) task assignment based on it, so the experiment harness can
// quantify how close estimation-based static balancing comes to the paper's
// dynamic reassignment, and where it falls short.
package estimate

import (
	"math"
	"sort"

	"spjoin/internal/geom"
	"spjoin/internal/join"
	"spjoin/internal/rtree"
)

// Estimator precomputes per-tree statistics (average fanout, average object
// extents) once, then prices tasks from only their two subtree root nodes —
// keeping the per-task cost negligible, because an estimator that descends
// the subtrees would itself cost a noticeable share of the join, which is
// exactly the paper's objection to the approach.
type Estimator struct {
	r, s   *rtree.Tree
	rStats treeAgg
	sStats treeAgg
}

// treeAgg caches what the estimator needs about one tree.
type treeAgg struct {
	avgLeafEntries float64 // data entries per data page
	avgFanout      float64 // children per directory page
	avgW, avgH     float64 // mean object extents
}

// NewEstimator scans both trees once (their leaves, for object extents).
func NewEstimator(r, s *rtree.Tree) *Estimator {
	return &Estimator{r: r, s: s, rStats: aggregate(r), sStats: aggregate(s)}
}

func aggregate(t *rtree.Tree) treeAgg {
	var a treeAgg
	st := t.Stats()
	if st.DataPages > 0 {
		a.avgLeafEntries = float64(st.DataEntries) / float64(st.DataPages)
	}
	if st.DirectoryPages > 0 {
		a.avgFanout = float64(st.DataPages+st.DirectoryPages-1) / float64(st.DirectoryPages)
	} else {
		a.avgFanout = 1
	}
	var sw, sh float64
	n := 0
	t.Walk(func(node *rtree.Node) {
		if node.Level != 0 {
			return
		}
		for i := range node.Entries {
			r := node.Entries[i].Rect
			sw += r.MaxX - r.MinX
			sh += r.MaxY - r.MinY
			n++
		}
	})
	if n > 0 {
		a.avgW = sw / float64(n)
		a.avgH = sh / float64(n)
	}
	return a
}

// entriesUnder approximates the number of data entries below a node.
func (a treeAgg) entriesUnder(n *rtree.Node) float64 {
	if n.Level == 0 {
		return float64(len(n.Entries))
	}
	est := float64(len(n.Entries)) * a.avgLeafEntries
	for l := 1; l < n.Level; l++ {
		est *= a.avgFanout
	}
	return est
}

// TaskCost estimates the relative execution cost of joining the subtree
// pair as the expected number of candidate pairs: objects of both sides
// falling into the common window, times the probability that two random
// rectangles of the trees' average extents intersect inside it
// (the classical (wR+wS)(hR+hS)/(W·H) selectivity model).
func (e *Estimator) TaskCost(task join.NodePair) float64 {
	nr := e.r.Node(task.RPage)
	ns := e.s.Node(task.SPage)
	mr, ms := nr.MBR(), ns.MBR()
	inter := mr.Intersection(ms)
	if inter.IsEmpty() {
		return 0
	}
	nR := e.rStats.entriesUnder(nr) * fractionIn(mr, inter)
	nS := e.sStats.entriesUnder(ns) * fractionIn(ms, inter)
	w := inter.MaxX - inter.MinX
	h := inter.MaxY - inter.MinY
	p := 1.0
	if w > 0 && h > 0 {
		p = (e.rStats.avgW + e.sStats.avgW) * (e.rStats.avgH + e.sStats.avgH) / (w * h)
		if p > 1 {
			p = 1
		}
	}
	return nR * nS * p
}

// fractionIn approximates the share of a subtree's objects lying in the
// window by the area fraction of its MBR covered by the window.
func fractionIn(mbr, window geom.Rect) float64 {
	area := mbr.Area()
	if area <= 0 {
		return 1
	}
	f := mbr.OverlapArea(window) / area
	if f > 1 {
		return 1
	}
	return f
}

// TaskCost is the convenience form constructing a throwaway Estimator; for
// pricing many tasks use NewEstimator + Costs.
func TaskCost(r, s *rtree.Tree, task join.NodePair) float64 {
	return NewEstimator(r, s).TaskCost(task)
}

// Costs prices a whole task list with one precomputation pass.
func Costs(r, s *rtree.Tree, tasks []join.NodePair) []float64 {
	e := NewEstimator(r, s)
	out := make([]float64, len(tasks))
	for i, t := range tasks {
		out[i] = e.TaskCost(t)
	}
	return out
}

// AssignLPT distributes tasks over n processors by longest-processing-time-
// first bin packing on the given cost estimates: tasks are taken in
// descending estimated cost and each goes to the currently least-loaded
// processor. This is the classic estimation-based static balancing the
// paper argues against; within each processor the tasks are re-sorted into
// their original (plane-sweep) order to preserve what locality remains.
func AssignLPT(tasks []join.NodePair, costs []float64, n int) [][]join.NodePair {
	if len(costs) != len(tasks) {
		panic("estimate: costs and tasks length mismatch")
	}
	order := make([]int, len(tasks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return costs[order[a]] > costs[order[b]] })

	loads := make([]float64, n)
	assigned := make([][]int, n)
	for _, ti := range order {
		best := 0
		for p := 1; p < n; p++ {
			if loads[p] < loads[best] {
				best = p
			}
		}
		loads[best] += costs[ti]
		assigned[best] = append(assigned[best], ti)
	}

	out := make([][]join.NodePair, n)
	for p := range assigned {
		sort.Ints(assigned[p]) // restore plane-sweep order within the block
		for _, ti := range assigned[p] {
			out[p] = append(out[p], tasks[ti])
		}
	}
	return out
}

// SetStats summarizes one rectangle set for the set-level selectivity
// model: cardinality, mean extents, and the finite MBR. It is the flat-set
// analogue of treeAgg, for callers (the planner, the flight recorder) that
// have item slices rather than built trees.
type SetStats struct {
	N          int // rectangles with finite, non-inverted extents
	AvgW, AvgH float64
	MBR        geom.Rect
}

// AnalyzeSet computes SetStats in one pass. Rectangles with NaN
// coordinates or inverted extents are skipped — they join with nothing
// and would poison the means. The MBR is unioned with open-coded
// comparisons: every rect that reaches it is NaN-free, so math.Min/Max's
// NaN and signed-zero handling (about half this pass's cost) buys nothing.
func AnalyzeSet(items []rtree.Item) SetStats {
	st := SetStats{MBR: geom.EmptyRect()}
	m := st.MBR
	var sw, sh float64
	for i := range items {
		r := &items[i].Rect
		if !(r.MinX <= r.MaxX && r.MinY <= r.MaxY) {
			continue
		}
		st.N++
		sw += r.MaxX - r.MinX
		sh += r.MaxY - r.MinY
		if r.MinX < m.MinX {
			m.MinX = r.MinX
		}
		if r.MinY < m.MinY {
			m.MinY = r.MinY
		}
		if r.MaxX > m.MaxX {
			m.MaxX = r.MaxX
		}
		if r.MaxY > m.MaxY {
			m.MaxY = r.MaxY
		}
	}
	st.MBR = m
	if st.N > 0 {
		st.AvgW = sw / float64(st.N)
		st.AvgH = sh / float64(st.N)
	}
	return st
}

// Selectivity estimates the probability that a random R rectangle
// intersects a random S rectangle: the classical uniform model
// (wR+wS)(hR+hS)/(W·H) evaluated over the intersection window of the two
// MBRs, scaled by the fraction of each side expected inside the window.
// The result is clamped to [0, 1]; either side empty yields 0.
func Selectivity(r, s SetStats) float64 {
	if r.N == 0 || s.N == 0 {
		return 0
	}
	pairs := ExpectedPairs(r, s)
	sel := pairs / (float64(r.N) * float64(s.N))
	if sel > 1 {
		return 1
	}
	return sel
}

// ExpectedPairs estimates the candidate count of r ⋈ s under the same
// model: objects of both sides falling into the common window, times the
// average-extent intersection probability inside it. A degenerate window
// (the sets touch on a line or point) keeps p = 1 for the objects in it.
func ExpectedPairs(r, s SetStats) float64 {
	if r.N == 0 || s.N == 0 {
		return 0
	}
	window := r.MBR.Intersection(s.MBR)
	if window.IsEmpty() {
		return 0
	}
	nR := float64(r.N) * fractionIn(r.MBR, window)
	nS := float64(s.N) * fractionIn(s.MBR, window)
	w := window.MaxX - window.MinX
	h := window.MaxY - window.MinY
	p := 1.0
	if w > 0 && h > 0 {
		p = (r.AvgW + s.AvgW) * (r.AvgH + s.AvgH) / (w * h)
		if p > 1 {
			p = 1
		}
	}
	return nR * nS * p
}

// Correlation returns the Pearson correlation coefficient between two
// series (0 if undefined). The harness uses it to report how well the
// estimates track the actual per-task run times.
func Correlation(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / (math.Sqrt(vx) * math.Sqrt(vy))
}
