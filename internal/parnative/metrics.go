package parnative

import (
	"fmt"
	"time"

	"spjoin/internal/join"
	"spjoin/internal/metrics"
)

// nativeMetrics holds the pre-resolved instruments of one instrumented
// native join. Workers accumulate their hot-path counts in plain locals
// and flush once at exit, so the expansion loop stays allocation-free and
// uncontended; only steals touch shared state mid-run.
type nativeMetrics struct {
	join        *join.Metrics
	workerPairs []*metrics.Counter

	stealAttempts  *metrics.Counter
	stealSuccesses *metrics.Counter
	stealMoved     *metrics.Counter
	tasksCreated   *metrics.Counter
	falseHits      *metrics.Counter

	queueDepth *metrics.Histogram
	wallMS     *metrics.Gauge

	start time.Time
}

// newNativeMetrics resolves all instruments under the "native." prefix.
func newNativeMetrics(reg *metrics.Registry, workers int) *nativeMetrics {
	m := &nativeMetrics{
		join:           join.NewMetrics(reg, "native.join"),
		stealAttempts:  reg.Counter("native.steal.attempts"),
		stealSuccesses: reg.Counter("native.steal.successes"),
		stealMoved:     reg.Counter("native.steal.pairs_moved"),
		tasksCreated:   reg.Counter("native.tasks.created"),
		falseHits:      reg.Counter("native.false_hits"),
		queueDepth:     reg.Histogram("native.queue.depth", queueDepthBounds),
		wallMS:         reg.Gauge("native.wall_ms"),
		start:          time.Now(),
	}
	for i := 0; i < workers; i++ {
		m.workerPairs = append(m.workerPairs, reg.Counter(fmt.Sprintf("native.worker.%d.pairs", i)))
	}
	return m
}

// queueDepthBounds mirrors the simulated executor's histogram buckets.
var queueDepthBounds = []int64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256}

// flushWorker publishes one worker's accumulated hot-path counts.
func (m *nativeMetrics) flushWorker(w int, pairs, comparisons, cands, falseHits int64) {
	if m == nil {
		return
	}
	m.join.Pairs.Add(pairs)
	m.join.Comparisons.Add(comparisons)
	m.join.Candidates.Add(cands)
	m.falseHits.Add(falseHits)
	m.workerPairs[w].Add(pairs)
}

// stole records one successful steal of moved pairs.
func (m *nativeMetrics) stole(moved int) {
	if m == nil {
		return
	}
	m.stealSuccesses.Inc()
	m.stealMoved.Add(int64(moved))
}

// finish publishes the end-of-run figures.
func (m *nativeMetrics) finish(res *Result) {
	if m == nil {
		return
	}
	m.tasksCreated.Add(int64(res.Tasks))
	m.stealAttempts.Add(int64(res.StealAttempts))
	m.wallMS.Set(float64(time.Since(m.start)) / float64(time.Millisecond))
}
