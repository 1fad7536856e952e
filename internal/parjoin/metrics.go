package parjoin

import (
	"fmt"

	"spjoin/internal/buffer"
	"spjoin/internal/join"
	"spjoin/internal/metrics"
	"spjoin/internal/sim"
)

// simMetrics holds the pre-resolved instruments of one instrumented run.
// Every field is looked up once at run start, so the simulation loop only
// performs plain atomic increments. A nil *simMetrics disables everything.
type simMetrics struct {
	join *join.Metrics

	// diskByLevel[l] counts buffer misses (physical reads) of nodes at
	// tree level l — the per-level disk-access breakdown of §4.
	diskByLevel []*metrics.Counter

	procPairs []*metrics.Counter // pairs expanded per processor

	reassignAttempts  *metrics.Counter
	reassignSuccesses *metrics.Counter
	reassignMoved     *metrics.Counter
	pathBufferHits    *metrics.Counter
	tasksCreated      *metrics.Counter
	idleSpans         *metrics.Counter

	queueDepth *metrics.Histogram

	taskLevel   *metrics.Gauge
	responseS   *metrics.Gauge
	firstS      *metrics.Gauge
	avgS        *metrics.Gauge
	totalWorkS  *metrics.Gauge
	totalIdleMS *metrics.Gauge

	idleMS float64 // accumulated idle span length (virtual ms)
}

// queueDepthBounds buckets pending-deque lengths; the top bucket catches
// pathological pile-ups.
var queueDepthBounds = []int64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256}

// newSimMetrics resolves all instruments against the run's registry and
// wires the disk array and buffer manager.
func newSimMetrics(st *runState, procs, height int) *simMetrics {
	reg := st.cfg.Metrics
	m := &simMetrics{
		join:              join.NewMetrics(reg, "sim.join"),
		reassignAttempts:  reg.Counter("sim.reassign.attempts"),
		reassignSuccesses: reg.Counter("sim.reassign.successes"),
		reassignMoved:     reg.Counter("sim.reassign.pairs_moved"),
		pathBufferHits:    reg.Counter("sim.path_buffer.hits"),
		tasksCreated:      reg.Counter("sim.tasks.created"),
		idleSpans:         reg.Counter("sim.idle.spans"),
		queueDepth:        reg.Histogram("sim.queue.depth", queueDepthBounds),
		taskLevel:         reg.Gauge("sim.tasks.level"),
		responseS:         reg.Gauge("sim.response_s"),
		firstS:            reg.Gauge("sim.first_finish_s"),
		avgS:              reg.Gauge("sim.avg_finish_s"),
		totalWorkS:        reg.Gauge("sim.total_work_s"),
		totalIdleMS:       reg.Gauge("sim.idle.total_ms"),
	}
	for l := 0; l < height; l++ {
		m.diskByLevel = append(m.diskByLevel, reg.Counter(fmt.Sprintf("sim.disk.reads.level%d", l)))
	}
	for i := 0; i < procs; i++ {
		m.procPairs = append(m.procPairs, reg.Counter(fmt.Sprintf("sim.proc.%d.pairs", i)))
	}
	st.disk.Instrument(
		reg.Counter("sim.disk.reads.directory"),
		reg.Counter("sim.disk.reads.data"),
	)
	st.mgr.Instrument(buffer.NewMetrics(reg, "sim.buffer"))
	return m
}

// pairExpanded records one node-pair expansion by processor proc.
func (m *simMetrics) pairExpanded(proc, cands, comparisons, queueDepth int) {
	if m == nil {
		return
	}
	m.join.Pairs.Inc()
	m.join.Comparisons.Add(int64(comparisons))
	m.join.Candidates.Add(int64(cands))
	m.procPairs[proc].Inc()
	m.queueDepth.Observe(int64(queueDepth))
}

// diskMiss records a physical read of a node at the given tree level.
func (m *simMetrics) diskMiss(level int) {
	if m == nil || level >= len(m.diskByLevel) {
		return
	}
	m.diskByLevel[level].Inc()
}

// attempt records one reassignment attempt (successful or not).
func (m *simMetrics) attempt() {
	if m == nil {
		return
	}
	m.reassignAttempts.Inc()
}

// reassigned records one successful task reassignment of moved pairs.
func (m *simMetrics) reassigned(moved int) {
	if m == nil {
		return
	}
	m.reassignSuccesses.Inc()
	m.reassignMoved.Add(int64(moved))
}

// idled records one completed idle span.
func (m *simMetrics) idled(span sim.Time) {
	if m == nil {
		return
	}
	m.idleSpans.Inc()
	m.idleMS += float64(span)
}

// finish publishes the end-of-run gauges from the assembled Result.
func (m *simMetrics) finish(res *Result) {
	if m == nil {
		return
	}
	m.tasksCreated.Add(int64(res.TasksCreated))
	m.taskLevel.Set(float64(res.TaskLevel))
	m.pathBufferHits.Add(res.PathBufferHits)
	m.responseS.Set(res.ResponseTime.Seconds())
	m.firstS.Set(res.FirstFinish.Seconds())
	m.avgS.Set(res.AvgFinish.Seconds())
	m.totalWorkS.Set(res.TotalWork.Seconds())
	m.totalIdleMS.Set(m.idleMS)
}
