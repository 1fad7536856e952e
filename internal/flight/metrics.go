package flight

import (
	"fmt"

	"spjoin/internal/join"
	"spjoin/internal/metrics"
	"spjoin/internal/timeline"
)

// phaseBounds are the histogram bucket boundaries for per-phase latency in
// microseconds: 50µs to 1s, roughly ×2.5 per step — wide enough to cover a
// corpus-scale join phase and a toy test alike.
var phaseBounds = []int64{50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000, 250000, 500000, 1000000}

// Observe exports one captured execution to the metrics registry: the
// engine's per-join counters (observeEngine), per-phase latency histograms
// (flight.phase_us.<phase>), the join counter, and gauges mirroring the
// most recent plan so an OpenMetrics scrape shows what the planner last
// decided and why. Nil-safe on reg.
func Observe(reg *metrics.Registry, rec *Record) {
	if reg == nil || rec == nil {
		return
	}
	reg.Counter("flight.joins").Inc()
	observeEngine(reg, rec)
	reg.Histogram("flight.wall_us", phaseBounds).Observe(rec.WallNS / 1000)
	for p := 0; p < timeline.NumPhases; p++ {
		if ns := rec.PhaseNS[p]; ns > 0 {
			reg.Histogram("flight.phase_us."+timeline.PhaseName(p), phaseBounds).Observe(ns / 1000)
		}
	}
	if h := &rec.Health; h.Sampled {
		reg.Counter("runtimeobs.windows").Inc()
		if n := h.AnomalyCount(); n > 0 {
			reg.Counter("runtimeobs.anomalies").Add(int64(n))
		}
		work, gc, sched, cont := h.Shares()
		reg.Gauge("runtimeobs.work_share").Set(work)
		reg.Gauge("runtimeobs.gc_pause_share").Set(gc)
		reg.Gauge("runtimeobs.sched_delay_share").Set(sched)
		reg.Gauge("runtimeobs.contention_share").Set(cont)
		reg.Gauge("runtimeobs.gc_pause_ns").Set(float64(h.GCPauseNS))
		reg.Gauge("runtimeobs.sched_delay_ns").Set(float64(h.SchedDelayNS))
		reg.Gauge("runtimeobs.mutex_wait_ns").Set(float64(h.MutexWaitNS))
		reg.Gauge("runtimeobs.alloc_bytes").Set(float64(h.AllocBytes))
		reg.Gauge("runtimeobs.heap_bytes").Set(float64(h.HeapBytes))
		reg.Gauge("runtimeobs.goroutines").Set(float64(h.GoroutinesEnd))
	}
	if rec.Plan.Engine == "" {
		return
	}
	enginePartition := 0.0
	if rec.Plan.Engine == "partition" {
		enginePartition = 1
	}
	reg.Gauge("plan.engine_partition").Set(enginePartition)
	reg.Gauge("plan.grid").Set(float64(rec.Plan.Grid))
	reg.Gauge("plan.workers").Set(float64(rec.Plan.Workers))
	reg.Gauge("plan.refine_threshold").Set(float64(rec.Plan.RefineThreshold))
	reg.Gauge("plan.skew").Set(rec.Plan.Skew)
	reg.Gauge("plan.replication").Set(rec.Plan.Rep)
	reg.Gauge("plan.selectivity").Set(rec.Plan.Selectivity)
}

// observeEngine adds the record's filter-step figures to the counters of
// the engine that ran — partjoin.* for the partition engine, native.* for
// the tree engine — so over a process the counters total every recorded
// join. The engines write no registry; these series are read off the
// record the driver built from the engine's Result. The wall gauge holds
// the last join's WallNS, the per-worker counters the Result's PerWorker
// (candidates emitted in the partition engine, units run in the tree
// engine).
func observeEngine(reg *metrics.Registry, rec *Record) {
	var prefix string
	switch rec.Engine {
	case "partition":
		prefix = "partjoin"
		reg.Counter("partjoin.partitions").Add(int64(rec.Partitions))
		reg.Counter("partjoin.duplicates_suppressed").Add(int64(rec.Duplicates))
		reg.Counter("partjoin.comparisons").Add(int64(rec.Comparisons))
		reg.Counter("partjoin.candidates").Add(int64(rec.Candidates))
		reg.Counter("partjoin.refined_tiles").Add(int64(rec.RefinedTiles))
		reg.Counter("partjoin.subtiles").Add(int64(rec.Subtiles))
		reg.Gauge("partjoin.grid_tiles").Set(float64(rec.GX * rec.GY))
	case "tree":
		prefix = "native"
		m := join.NewMetrics(reg, "native.join")
		m.Pairs.Add(int64(rec.PairsExpanded))
		m.Comparisons.Add(int64(rec.Comparisons))
		m.Candidates.Add(int64(rec.Candidates))
		reg.Counter("native.tasks.created").Add(int64(rec.Tasks))
	default:
		return
	}
	reg.Gauge(prefix + ".wall_ms").Set(float64(rec.WallNS) / 1e6)
	for w, n := range rec.WorkerPairs {
		reg.Counter(fmt.Sprintf("%s.worker.%d.pairs", prefix, w)).Add(n)
	}
}
