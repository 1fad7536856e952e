// Package metrics is the counter layer of the join pipeline: typed
// counters, gauges and fixed-bucket histograms registered by name in a
// Registry. Per-event observation (one span per disk read, buffer access,
// expansion, reassignment or idle wait) is the timeline's job
// (internal/timeline); the registry holds the totals.
//
// The design contract, mirroring the paper's evaluation (§4) where every
// reported figure is a counter — disk accesses, per-processor run time,
// response time, task reassignments:
//
//   - Steady-state increments are allocation-free: Counter.Inc/Add,
//     Gauge.Set and Histogram.Observe are single atomic operations on
//     memory allocated at registration time.
//   - Every instrument is nil-safe: methods on a nil *Counter, *Gauge,
//     *Histogram or *Registry are no-ops (or zero values), so pipeline
//     layers thread instruments unconditionally and pay one predictable
//     branch when metrics are disabled.
//   - Export is deterministic: Snapshot and WriteJSON order instruments
//     by name, so two runs with equal counters produce byte-identical
//     JSON — the property the golden-metrics regression harness asserts.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64. The zero value is ready to
// use; a nil *Counter ignores all operations.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n may be any value, but counters are conventionally
// monotonic; use a Gauge for values that go down).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current value (0 for a nil counter).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 instantaneous value (virtual times, rates). The zero
// value is ready; a nil *Gauge ignores all operations.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Load returns the current value (0 for a nil gauge).
func (g *Gauge) Load() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts int64 observations into fixed buckets. Bucket i counts
// observations v <= Bounds[i]; one implicit overflow bucket counts the
// rest. All storage is allocated at registration, so Observe is a bounded
// scan plus one atomic increment. A nil *Histogram ignores observations.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1, last = overflow
	sum    atomic.Int64
	n      atomic.Int64
}

// newHistogram copies bounds (which must be strictly ascending).
func newHistogram(bounds []int64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram bounds not ascending: %v", bounds))
		}
	}
	h := &Histogram{bounds: append([]int64(nil), bounds...)}
	h.counts = make([]atomic.Int64, len(bounds)+1)
	return h
}

// Observe records one value. Bucket edges are inclusive upper bounds: a
// value exactly equal to Bounds[i] lands in bucket i, not the next one —
// the boundary-observation regression test pins this.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// HistSnapshot is the exported state of one histogram.
type HistSnapshot struct {
	Bounds []int64 `json:"bounds"` // bucket upper bounds; one overflow bucket follows
	Counts []int64 `json:"counts"` // len(Bounds)+1 entries
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
}

// Snapshot is a point-in-time copy of a Registry, ordered for
// deterministic JSON encoding (encoding/json sorts map keys).
type Snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]float64      `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// Names returns all instrument names of the snapshot, sorted, with a
// one-letter kind prefix resolved by the caller via the maps. Helper for
// table rendering.
func (s Snapshot) Names() (counters, gauges, histograms []string) {
	for name := range s.Counters {
		counters = append(counters, name)
	}
	for name := range s.Gauges {
		gauges = append(gauges, name)
	}
	for name := range s.Histograms {
		histograms = append(histograms, name)
	}
	sort.Strings(counters)
	sort.Strings(gauges)
	sort.Strings(histograms)
	return counters, gauges, histograms
}

// Registry holds named instruments. Registration (the Counter, Gauge and
// Histogram lookups) takes a mutex and may allocate; the returned
// instruments are then free of the registry on the hot path. Lookups are
// idempotent: the same name always returns the same instrument. A nil
// *Registry returns nil instruments, which are themselves no-ops — so a
// pipeline layer can hold an optional registry and instrument
// unconditionally.
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it if new.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counts[name]
	if !ok {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it if new.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket bounds if new (bounds are ignored on re-lookup).
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Snapshot copies the current state of every instrument.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistSnapshot{},
	}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counts {
		snap.Counters[name] = c.Load()
	}
	for name, g := range r.gauges {
		snap.Gauges[name] = g.Load()
	}
	for name, h := range r.hists {
		hs := HistSnapshot{
			Bounds: append([]int64(nil), h.bounds...),
			Counts: make([]int64, len(h.counts)),
			Count:  h.n.Load(),
			Sum:    h.sum.Load(),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		snap.Histograms[name] = hs
	}
	return snap
}

// WriteJSON writes the registry snapshot as indented JSON. The output is
// deterministic: equal registry states produce byte-identical documents.
func (r *Registry) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
