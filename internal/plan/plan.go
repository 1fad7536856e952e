// Package plan chooses a join execution plan from cheap input statistics.
//
// The repo has two native in-memory engines with different failure modes:
// the grid-partitioned engine (internal/partjoin) wins on small rectangles
// but replicates large ones into every overlapped tile, and the tree
// engine (R*-tree build + internal/parnative) is insensitive to rectangle
// size but pays a construction phase. Within the partition engine, the
// hot-tile split helps exactly when tile occupancy is skewed and is a
// (small) waste of a scan when it is not. Analyze probes both inputs with a
// single coarse grid pass — O(n), no sorting, no tree — and Decide maps
// those statistics to an engine, grid resolution, split threshold and
// worker count.
package plan

import (
	"fmt"

	"spjoin/internal/estimate"
	"spjoin/internal/partjoin"
	"spjoin/internal/rtree"
	"spjoin/internal/stats"
)

// Engine selects which join implementation executes the plan.
type Engine int

const (
	// EnginePartition is the grid-partitioned native engine
	// (internal/partjoin), the default for small-rectangle workloads.
	EnginePartition Engine = iota
	// EngineTree bulk-loads R*-trees and runs the work-stealing native
	// tree join (internal/parnative).
	EngineTree
)

func (e Engine) String() string {
	switch e {
	case EnginePartition:
		return "partition"
	case EngineTree:
		return "tree"
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// probeGrid is the fixed side of the statistics grid. 16×16 = 256 cells
// is coarse enough that one pass over the centers costs nothing and fine
// enough to expose cluster hot spots and replication of mid-sized
// rectangles. tiger.OccupancySkew uses the same convention, so generator
// tests and planner inputs agree on what "skew 20" means.
const probeGrid = 16

// Stats are the input statistics Decide works from. All figures come from
// one O(NR+NS) pass over the rectangles; nothing is sorted or built.
type Stats struct {
	NR, NS int     // input cardinalities
	Skew   float64 // probe-tile occupancy skew: max/mean over all cells, both sides pooled
	Rep    float64 // mean probe tiles overlapped per rectangle (replication factor)
	Probe  int     // probe grid side the figures were measured on
	// Selectivity is the estimated pair probability from the §3.4 model
	// (internal/estimate): expected candidates ≈ NR·NS·Selectivity. Decide
	// sizes the tree engine's workers from it, and it is recorded with every
	// captured plan so the flight recorder can show estimate-vs-actual drift.
	Selectivity float64
}

// Analyze computes Stats in two passes over each input: estimate.AnalyzeSet
// for the side's cardinality, mean extents and MBR — whose union is the
// joint MBR the probe grid spans — then per-cell center-point occupancy
// (for Skew) and the count of probe cells each rectangle overlaps (for
// Rep). Rectangles with NaN coordinates or inverted extents are skipped —
// they join with nothing and should not distort the plan.
func Analyze(r, s []rtree.Item) Stats {
	st := Stats{NR: len(r), NS: len(s), Probe: probeGrid}
	sr, ss := estimate.AnalyzeSet(r), estimate.AnalyzeSet(s)
	st.Selectivity = estimate.Selectivity(sr, ss)
	valid := sr.N + ss.N
	if valid == 0 {
		st.Skew, st.Rep = 1, 1
		return st
	}
	// An empty side's MBR is (+Inf, -Inf) and drops out of min and max.
	minX, minY := min(sr.MBR.MinX, ss.MBR.MinX), min(sr.MBR.MinY, ss.MBR.MinY)
	maxX, maxY := max(sr.MBR.MaxX, ss.MBR.MaxX), max(sr.MBR.MaxY, ss.MBR.MaxY)
	invW := safeProbeInv(maxX - minX)
	invH := safeProbeInv(maxY - minY)
	counts := make([]float64, probeGrid*probeGrid)
	tilesSum := 0.0
	for _, side := range [2][]rtree.Item{r, s} {
		for i := range side {
			rc := &side[i].Rect
			if !(rc.MinX <= rc.MaxX && rc.MinY <= rc.MaxY) {
				continue
			}
			cx := clampProbe(int(((rc.MinX+rc.MaxX)/2 - minX) * invW))
			cy := clampProbe(int(((rc.MinY+rc.MaxY)/2 - minY) * invH))
			counts[cy*probeGrid+cx]++
			lox := clampProbe(int((rc.MinX - minX) * invW))
			hix := clampProbe(int((rc.MaxX - minX) * invW))
			loy := clampProbe(int((rc.MinY - minY) * invH))
			hiy := clampProbe(int((rc.MaxY - minY) * invH))
			tilesSum += float64((hix - lox + 1) * (hiy - loy + 1))
		}
	}
	st.Skew = stats.Summarize(counts).Skew()
	st.Rep = tilesSum / float64(valid)
	return st
}

// Tuning thresholds for Decide. They are deliberately coarse: the planner
// only needs to stay out of each engine's failure mode, not find the
// optimum — TestAutoWithinFactorOfBest pins that contract on the engines'
// counters, BenchmarkAutoVsFixed times it.
const (
	// treeRep is the replication factor above which partitioning is
	// abandoned: each rectangle landing in >3 probe tiles means the grid
	// would mostly shuffle duplicates around. (Tiny inputs stay on the
	// partition engine too — a measured one-shot partition join beats a
	// tree build even at a few hundred rectangles.)
	treeRep = 3.0
	// refineSkew is the occupancy skew above which the hot-tile split is
	// enabled (auto threshold). Uniform data probes ≈1.3; clustered data
	// starts around 4 and climbs past 60 — 2.5 splits the two regimes.
	refineSkew = 2.5
	// workerShare is the amount of work — rectangles for the partition
	// engine, rectangles plus expected candidates for the tree engine —
	// that justifies one more worker before the maxWorkers cap.
	workerShare = 16 << 10
)

// Decision is an executable plan: which engine, and with what knobs.
type Decision struct {
	Engine          Engine
	Grid            int   // partition grid side (0 for the tree engine)
	RefineThreshold int64 // partjoin.Config.RefineThreshold (0 auto, RefineDisabled off)
	Workers         int
}

func (d Decision) String() string {
	if d.Engine == EngineTree {
		return fmt.Sprintf("engine=tree workers=%d", d.Workers)
	}
	ref := "off"
	switch {
	case d.RefineThreshold == 0:
		ref = "auto"
	case d.RefineThreshold > 0:
		ref = fmt.Sprintf("%d", d.RefineThreshold)
	}
	return fmt.Sprintf("engine=partition grid=%dx%d refine=%s workers=%d",
		d.Grid, d.Grid, ref, d.Workers)
}

// Decide maps input statistics to a plan. maxWorkers caps parallelism
// (≤0 means 1). The rules, in order:
//
//   - heavy replication → tree engine;
//   - otherwise the partition engine at its auto grid, with the hot-tile
//     split switched to auto exactly when the probe grid saw a skewed
//     occupancy (on uniform data its trigger scan is wasted; on clustered
//     data it cuts the hottest work unit, the straggler, to a fraction —
//     partjoin's TestRefinedBeatsUnrefinedClustered pins that on counters,
//     BenchmarkSplitVsWholeClustered times it).
func Decide(st Stats, maxWorkers int) Decision {
	if maxWorkers <= 0 {
		maxWorkers = 1
	}
	n := st.NR + st.NS
	if st.Rep > treeRep {
		// The replication regime is few, large rectangles and many pairs:
		// the tree join's work is in the expected candidates, which the
		// cardinality alone misses by orders of magnitude there.
		work := float64(n) + st.Selectivity*float64(st.NR)*float64(st.NS)
		return Decision{Engine: EngineTree, Workers: clampWorkers(work/workerShare, maxWorkers)}
	}
	workers := clampWorkers(float64(n)/workerShare, maxWorkers)
	// The grid choice is skew-aware: the planner runs before the first
	// (cold) join, where a clustered workload would otherwise
	// start from the uniform-data grid and lean entirely on the split to
	// recover. Uniform probes (skew ≤ 2.5) resolve to plain AutoGrid.
	d := Decision{
		Engine:          EnginePartition,
		Grid:            partjoin.AutoGridSkewed(n, workers, st.Skew),
		RefineThreshold: partjoin.RefineDisabled,
		Workers:         workers,
	}
	if st.Skew >= refineSkew {
		d.RefineThreshold = 0 // auto: fair-share trigger, units of half of it
	}
	return d
}

// clampWorkers truncates a work/workerShare quotient to [1, maxWorkers].
func clampWorkers(share float64, maxWorkers int) int {
	if !(share >= 1) { // also catches a NaN selectivity estimate
		return 1
	}
	if share > float64(maxWorkers) {
		return maxWorkers
	}
	return int(share)
}

func clampProbe(v int) int {
	if v < 0 {
		return 0
	}
	if v >= probeGrid {
		return probeGrid - 1
	}
	return v
}

func safeProbeInv(width float64) float64 {
	if width > 0 {
		return float64(probeGrid) / width
	}
	return 0
}
