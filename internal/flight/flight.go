// Package flight is the always-on flight recorder of the wall-clock join
// engines: a bounded ring buffer holding the last N join executions — the
// plan that drove each one, per-phase wall timings, per-worker pair and
// steal counts, and (from the partition engine) the tile-cost top-K and
// heat grid. Where internal/metrics aggregates over a process
// lifetime and internal/timeline records one run in full span detail, this
// package answers the operational question in between: "why was *this*
// join slow?" — hours later, without having asked in advance.
//
// Design contract:
//
//   - Bounded. NewRecorder(n) holds exactly the last n records; slot
//     buffers are reused across laps of the ring, so a warm recorder adds
//     records without allocating.
//   - Nil-safe. A nil *Recorder ignores Add and reports nothing, so call
//     sites need no guards — the same convention as the metrics instruments.
//   - Passive. The engines know nothing about this package; the driver
//     (cmd/spjoin, a future join server) assembles a Record from the
//     engine's Result and the planner's Decision and hands it over.
//
// The EXPLAIN ANALYZE renderer over one Record lives in explain.go; the
// OpenMetrics phase-latency export in metrics.go.
package flight

import (
	"sync"
	"time"

	"spjoin/internal/partjoin"
	"spjoin/internal/runtimeobs"
	"spjoin/internal/timeline"
)

// Plan is the captured planning decision and the statistics that drove it
// (a flattened snapshot of plan.Stats + plan.Decision, JSON-friendly so
// /debug/joins can serve it verbatim).
type Plan struct {
	// Source is how the plan came to be: "auto" (the planner decided) or
	// "forced" (the caller pinned the engine); empty when the driver
	// recorded no plan at all.
	Source string `json:"source,omitempty"`
	Engine string `json:"engine,omitempty"`

	Grid            int   `json:"grid,omitempty"`
	RefineThreshold int64 `json:"refine_threshold,omitempty"`
	Workers         int   `json:"workers,omitempty"`

	// The driving statistics (plan.Analyze); zero when Source is "forced"
	// and the driver skipped the probe pass.
	NR          int     `json:"nr,omitempty"`
	NS          int     `json:"ns,omitempty"`
	Skew        float64 `json:"skew,omitempty"`
	Rep         float64 `json:"rep,omitempty"`
	Selectivity float64 `json:"selectivity,omitempty"`
	Probe       int     `json:"probe,omitempty"`
}

// Record is one captured join execution.
type Record struct {
	// Seq numbers records monotonically across the recorder's lifetime
	// (the ring keeps only the last N, but Seq exposes how many ran).
	Seq   uint64    `json:"seq"`
	Start time.Time `json:"start"`
	// WallNS is the join's end-to-end wall time as the driver measured it
	// (including tree builds for the tree engine — everything the caller
	// waited for).
	WallNS int64 `json:"wall_ns"`
	// Engine is the engine that executed: "partition" or "tree".
	Engine string `json:"engine"`
	Plan   Plan   `json:"plan"`

	// Input cardinalities as executed.
	NR int `json:"nr"`
	NS int `json:"ns"`

	// Filter-step figures.
	Candidates  int `json:"candidates"`
	Comparisons int `json:"comparisons,omitempty"`
	Duplicates  int `json:"duplicates,omitempty"`

	// Partition-engine shape (zero for the tree engine).
	GX           int `json:"gx,omitempty"`
	GY           int `json:"gy,omitempty"`
	Partitions   int `json:"partitions,omitempty"`
	RefinedTiles int `json:"refined_tiles,omitempty"`
	Subtiles     int `json:"subtiles,omitempty"`
	// Reuse is the tier of the resident Joiner's cache that served the
	// join (cold, clean, delta, rebuild); DeltaRects the changed rects the
	// delta tier patched in place.
	Reuse      partjoin.Reuse `json:"reuse,omitempty"`
	DeltaRects int            `json:"delta_rects,omitempty"`

	// Tree-engine shape (zero for the partition engine).
	Tasks         int `json:"tasks,omitempty"`
	Steals        int `json:"steals,omitempty"`
	StealAttempts int `json:"steal_attempts,omitempty"`

	// PhaseNS is the engine's per-phase attribution, indexed by the
	// timeline.Phase* constants: every bucket is that phase's wall time on
	// the joining goroutine, so the buckets sum to at most WallNS.
	PhaseNS [timeline.NumPhases]int64 `json:"phase_ns"`

	// Per-worker figures: candidate pairs emitted, and (tree engine)
	// steals performed as the thief.
	WorkerPairs  []int64 `json:"worker_pairs,omitempty"`
	WorkerSteals []int64 `json:"worker_steals,omitempty"`

	// Tile-cost introspection (partition engine only).
	TopTiles []partjoin.TileCost `json:"top_tiles,omitempty"`
	HeatW    int                 `json:"heat_w,omitempty"`
	HeatH    int                 `json:"heat_h,omitempty"`
	Heat     []int64             `json:"heat,omitempty"`

	// Health is the runtime health window the driver sampled around the
	// join (runtimeobs.Sampler); Health.Sampled false means no sampler
	// was attached. A value type, so the ring's slot reuse copies it for
	// free alongside the scalars.
	Health runtimeobs.Health `json:"health"`
}

// Workers returns the worker count the execution used (from the per-worker
// pair table, falling back to the plan).
func (r *Record) Workers() int {
	if len(r.WorkerPairs) > 0 {
		return len(r.WorkerPairs)
	}
	return r.Plan.Workers
}

// Recorder is the bounded ring. Create with NewRecorder; the zero value is
// unusable (capacity 0 records nothing), a nil *Recorder is a no-op sink.
type Recorder struct {
	mu   sync.Mutex
	ring []Record
	seq  uint64 // total records ever added
	next int    // ring slot the next Add writes
}

// NewRecorder returns a recorder keeping the last n joins (minimum 1).
func NewRecorder(n int) *Recorder {
	if n < 1 {
		n = 1
	}
	return &Recorder{ring: make([]Record, n)}
}

// Add captures one execution: rec is copied into the ring (the caller
// keeps ownership of rec and its slices) and its assigned sequence number
// is returned. Slot buffers are reused lap over lap, so a warm recorder
// does not allocate unless a record's slices outgrow the slot's. Nil-safe:
// a nil receiver returns 0 without touching rec.
func (r *Recorder) Add(rec *Record) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	r.seq++
	slot := &r.ring[r.next]
	r.next = (r.next + 1) % len(r.ring)

	// Detach the slot's buffers, copy the scalar fields, then refill the
	// buffers from rec — reusing their capacity across ring laps.
	pairs, steals := slot.WorkerPairs[:0], slot.WorkerSteals[:0]
	tops, heat := slot.TopTiles[:0], slot.Heat[:0]
	*slot = *rec
	slot.Seq = r.seq
	slot.WorkerPairs = append(pairs, rec.WorkerPairs...)
	slot.WorkerSteals = append(steals, rec.WorkerSteals...)
	slot.TopTiles = append(tops, rec.TopTiles...)
	slot.Heat = append(heat, rec.Heat...)
	seq := r.seq
	r.mu.Unlock()
	return seq
}

// Len returns how many records the ring currently holds.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return int(min64(r.seq, uint64(len(r.ring))))
}

// Total returns the lifetime record count (Seq of the newest record).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Last returns a deep copy of the newest record (ok=false when empty).
func (r *Recorder) Last() (Record, bool) {
	if r == nil {
		return Record{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seq == 0 {
		return Record{}, false
	}
	idx := (r.next - 1 + len(r.ring)) % len(r.ring)
	return deepCopy(&r.ring[idx]), true
}

// Snapshot returns deep copies of the held records, oldest first.
func (r *Recorder) Snapshot() []Record {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := int(min64(r.seq, uint64(len(r.ring))))
	out := make([]Record, 0, n)
	start := r.next - n
	if start < 0 {
		start += len(r.ring)
	}
	for i := 0; i < n; i++ {
		out = append(out, deepCopy(&r.ring[(start+i)%len(r.ring)]))
	}
	return out
}

// deepCopy detaches a record from the ring's reused buffers.
func deepCopy(rec *Record) Record {
	out := *rec
	out.WorkerPairs = append([]int64(nil), rec.WorkerPairs...)
	out.WorkerSteals = append([]int64(nil), rec.WorkerSteals...)
	out.TopTiles = append([]partjoin.TileCost(nil), rec.TopTiles...)
	out.Heat = append([]int64(nil), rec.Heat...)
	return out
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
