package buffer

import "spjoin/internal/metrics"

// Metrics bundles the observability instruments of one buffer manager:
// counters per access class plus evictions. All fields are nil-safe; a nil
// *Metrics disables everything. The manager's own Stats counters — which
// the golden-metrics harness pins — are maintained independently and
// never change behavior.
type Metrics struct {
	LocalHits  *metrics.Counter
	RemoteHits *metrics.Counter
	Misses     *metrics.Counter
	Evictions  *metrics.Counter
}

// NewMetrics registers the buffer instruments under prefix (for example
// "sim.buffer") in reg and returns the bundle. A nil registry yields
// nil-safe instruments, so callers may pass their optional registry
// straight through.
func NewMetrics(reg *metrics.Registry, prefix string) *Metrics {
	return &Metrics{
		LocalHits:  reg.Counter(prefix + ".local_hits"),
		RemoteHits: reg.Counter(prefix + ".remote_hits"),
		Misses:     reg.Counter(prefix + ".misses"),
		Evictions:  reg.Counter(prefix + ".evictions"),
	}
}

// access records one classified page request.
func (m *Metrics) access(class Class) {
	if m == nil {
		return
	}
	switch class {
	case LocalHit:
		m.LocalHits.Inc()
	case RemoteHit:
		m.RemoteHits.Inc()
	default:
		m.Misses.Inc()
	}
}

// evict records one eviction.
func (m *Metrics) evict() {
	if m == nil {
		return
	}
	m.Evictions.Inc()
}
