package main

import (
	"math"
	"runtime/metrics"
	"sort"
)

// metricDef declares one metric. BENCHMARK.json repeats these tables for
// the driver; the smoke test keeps the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: allowed worsening, as a share
}

// allocFloorMB is the absolute floor of alloc_mb_per_op: the metric reads
// max(measured, floor), so its relative bound never gates differences
// below the floor (tiger_rejoin allocates nothing at all).
const allocFloorMB = 0.5

var endToEnd = []metricDef{
	{"join_ms_p50", "ms", "lower", 0.15},
	{"rects_per_s", "1/s", "higher", 0.15},
	{"alloc_mb_per_op", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

var perLayer = []metricDef{
	{Name: "plan.analyze_ms", Unit: "ms", Better: "lower"},
	{Name: "plan.engine_tree", Unit: "count", Better: "lower"},
	{Name: "plan.grid", Unit: "count", Better: "lower"},
	{Name: "plan.workers", Unit: "count", Better: "higher"},
	{Name: "plan.refine_auto", Unit: "count", Better: "lower"},

	{Name: "partjoin.cold_ms", Unit: "ms", Better: "lower"},
	{Name: "partjoin.cold_w1_ms", Unit: "ms", Better: "lower"},
	{Name: "partjoin.speedup", Unit: "x", Better: "higher"},
	{Name: "partjoin.clean_ms", Unit: "ms", Better: "lower"},
	{Name: "partjoin.intile_ms", Unit: "ms", Better: "lower"},
	{Name: "partjoin.recount_ms", Unit: "ms", Better: "lower"},
	{Name: "partjoin.resort_ms", Unit: "ms", Better: "lower"},
	{Name: "partjoin.build_ms", Unit: "ms", Better: "lower"},
	{Name: "partjoin.candidates", Unit: "count", Better: "higher"},
	{Name: "partjoin.comparisons", Unit: "count", Better: "lower"},
	{Name: "partjoin.duplicates", Unit: "count", Better: "lower"},
	{Name: "partjoin.partitions", Unit: "count", Better: "lower"},
	{Name: "partjoin.refined_tiles", Unit: "count", Better: "lower"},
	{Name: "partjoin.subtiles", Unit: "count", Better: "lower"},
	{Name: "partjoin.cmp_per_pair", Unit: "ratio", Better: "lower"},
	{Name: "partjoin.dup_ratio", Unit: "ratio", Better: "lower"},
	{Name: "partjoin.worker_imbalance", Unit: "ratio", Better: "lower"},

	{Name: "geom.sort_ms", Unit: "ms", Better: "lower"},
	{Name: "geom.sweep_ns_per_cmp", Unit: "ns", Better: "lower"},
	{Name: "geom.sweep_mrects_per_s", Unit: "Mrect/s", Better: "higher"},
	{Name: "geom.sweep_gb_per_s", Unit: "GB/s", Better: "higher"},
	{Name: "geom.batch_ns_per_rect", Unit: "ns", Better: "lower"},
	{Name: "geom.membw_gb_per_s", Unit: "GB/s", Better: "higher"},

	{Name: "rtree.bulkload_ms", Unit: "ms", Better: "lower"},
	{Name: "rtree.bulkload_w1_ms", Unit: "ms", Better: "lower"},
	{Name: "rtree.prepare_sweep_ms", Unit: "ms", Better: "lower"},
	{Name: "rtree.nodes", Unit: "count", Better: "lower"},
	{Name: "rtree.height", Unit: "count", Better: "lower"},

	{Name: "parnative.join_ms", Unit: "ms", Better: "lower"},
	{Name: "parnative.join_w1_ms", Unit: "ms", Better: "lower"},
	{Name: "parnative.speedup", Unit: "x", Better: "higher"},
	{Name: "parnative.tasks", Unit: "count", Better: "higher"},
	{Name: "parnative.pairs_expanded", Unit: "count", Better: "lower"},
	{Name: "parnative.steals", Unit: "count", Better: "lower"},
	{Name: "parnative.steal_success", Unit: "ratio", Better: "higher"},
	{Name: "parnative.worker_imbalance", Unit: "ratio", Better: "lower"},
	{Name: "parnative.alloc_b_per_pair", Unit: "B", Better: "lower"},

	{Name: "join.sequential_ms", Unit: "ms", Better: "lower"},
	{Name: "join.engine_run_ms", Unit: "ms", Better: "lower"},
	{Name: "join.comparisons", Unit: "count", Better: "lower"},

	{Name: "op.plan_ms", Unit: "ms", Better: "lower"},
	{Name: "op.partjoin_ms", Unit: "ms", Better: "lower"},
	{Name: "op.rtree_ms", Unit: "ms", Better: "lower"},
	{Name: "op.parnative_ms", Unit: "ms", Better: "lower"},
	{Name: "op.self_ms", Unit: "ms", Better: "lower"},
	{Name: "op.span_coverage_pct", Unit: "%", Better: "higher"},

	{Name: "bench.join_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "bench.ops", Unit: "count", Better: "higher"},
	{Name: "bench.gc_cycles_per_op", Unit: "count", Better: "lower"},
	{Name: "bench.heap_sys_mb", Unit: "MB", Better: "lower"},
	{Name: "bench.oracle_s", Unit: "s", Better: "lower"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
}

// sampleSet is what a run of untraced or traced ops leaves behind.
type sampleSet struct {
	wallNS   []float64 // one per op
	allocB   uint64    // heap bytes allocated during the ops
	gcCycles uint64
	failed   int
}

// add pools another run's samples into ss.
func (ss *sampleSet) add(o sampleSet) {
	ss.wallNS = append(ss.wallNS, o.wallNS...)
	ss.allocB += o.allocB
	ss.gcCycles += o.gcCycles
	ss.failed += o.failed
}

func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// p50 is the median op wall time in ms.
func (ss *sampleSet) p50() float64 { return median(ss.wallNS) / 1e6 }

// endToEndMetrics derives the gated metrics of one run over nrects = NR+NS.
func (ss *sampleSet) endToEndMetrics(nrects int) map[string]float64 {
	ops := float64(len(ss.wallNS))
	sum := 0.0
	for _, ns := range ss.wallNS {
		sum += ns
	}
	return map[string]float64{
		"join_ms_p50":     ss.p50(),
		"rects_per_s":     ratio(float64(nrects)*ops, sum/1e9),
		"alloc_mb_per_op": math.Max(ratio(float64(ss.allocB)/1e6, ops), allocFloorMB),
	}
}

var heapCounters = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

// readHeapCounters returns the cumulative heap bytes allocated and GC
// cycles completed. Unlike runtime.ReadMemStats it does not stop the world.
func readHeapCounters() (allocB, gcCycles uint64) {
	metrics.Read(heapCounters)
	return heapCounters[0].Value.Uint64(), heapCounters[1].Value.Uint64()
}

// measureOp runs one op and adds it to ss. The counters are read outside
// the op's own clock.
func (in *instance) measureOp(tr *tracer, ss *sampleSet) {
	a0, g0 := readHeapCounters()
	wall, ok := in.op(tr)
	a1, g1 := readHeapCounters()
	ss.wallNS = append(ss.wallNS, float64(wall.Nanoseconds()))
	ss.allocB += a1 - a0
	ss.gcCycles += g1 - g0
	if !ok {
		ss.failed++
	}
}
