package runtimeobs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Progress is the live-progress publisher of one join slot: the engines
// bump atomic units-done/units-total counters (work units and their
// estimated sweep cost) as the schedule drains, and Status derives a
// completion fraction and an ETA at any moment — including mid-join, from
// another goroutine, which is the whole point.
//
// The hot path is UnitDone: one nil-check and two atomic adds, nothing
// else — no locks, no time reads, no allocation. Start, Finish and Status
// are cold-path operations and take a mutex so the identity fields (seq,
// start time, running flag) read consistently.
//
// A slot is reusable across joins (Start resets the counters), so a
// long-lived driver allocates one Progress per engine once and the steady
// state publishes progress allocation-free. A nil *Progress ignores every
// call.
type Progress struct {
	mu        sync.Mutex
	engine    string
	seq       uint64
	running   bool
	startedAt time.Time

	unitsDone  atomic.Int64
	unitsTotal atomic.Int64
	costDone   atomic.Int64
	costTotal  atomic.Int64
}

// NewProgress returns a standalone (unregistered) slot for the engine.
// Drivers that want the slot served by /debug/joins/live use Live.NewProgress.
func NewProgress(engine string) *Progress {
	return &Progress{engine: engine}
}

// Start opens a new join window on the slot: counters reset, the sequence
// number advances, and Status reports the slot as in-flight until Finish.
func (p *Progress) Start() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.seq++
	p.running = true
	p.startedAt = time.Now()
	p.mu.Unlock()
	p.unitsDone.Store(0)
	p.unitsTotal.Store(0)
	p.costDone.Store(0)
	p.costTotal.Store(0)
}

// SetTotal publishes the schedule size: units work units whose estimated
// costs sum to cost. Engines call it once the schedule is built; a
// schedule that grows later (task expansion) adjusts with AddTotal.
func (p *Progress) SetTotal(units, cost int64) {
	if p == nil {
		return
	}
	p.unitsTotal.Store(units)
	p.costTotal.Store(cost)
}

// AddTotal adjusts the published schedule by a (possibly negative) delta —
// tree tasks spawning children, or work found to be empty.
func (p *Progress) AddTotal(units, cost int64) {
	if p == nil {
		return
	}
	p.unitsTotal.Add(units)
	p.costTotal.Add(cost)
}

// UnitDone records one completed work unit of the given estimated cost.
// This is the engines' hot-path call: nil-check plus two atomic adds.
func (p *Progress) UnitDone(cost int64) {
	if p == nil {
		return
	}
	p.unitsDone.Add(1)
	p.costDone.Add(cost)
}

// Finish closes the window; the slot keeps its final counters for Status
// until the next Start.
func (p *Progress) Finish() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.running = false
	p.mu.Unlock()
}

// Status is one observable moment of a Progress slot.
type Status struct {
	Engine    string    `json:"engine"`
	Seq       uint64    `json:"seq"`
	Running   bool      `json:"running"`
	StartedAt time.Time `json:"started_at"`
	ElapsedNS int64     `json:"elapsed_ns"`

	UnitsDone  int64 `json:"units_done"`
	UnitsTotal int64 `json:"units_total"`
	CostDone   int64 `json:"cost_done"`
	CostTotal  int64 `json:"cost_total"`

	// Frac is the cost-weighted completion fraction (0..1). ETANS estimates
	// the remaining wall time by scaling the elapsed time with the pending
	// cost ratio; -1 while no cost has completed yet. Because the engines
	// schedule largest-cost-first, the estimate converges from above early
	// in the join rather than oscillating.
	Frac  float64 `json:"frac"`
	ETANS int64   `json:"eta_ns"`
}

// Status reports the slot's current state; ok is false for a slot that
// never started (or a nil receiver).
func (p *Progress) Status() (Status, bool) {
	if p == nil {
		return Status{}, false
	}
	p.mu.Lock()
	st := Status{
		Engine:    p.engine,
		Seq:       p.seq,
		Running:   p.running,
		StartedAt: p.startedAt,
	}
	p.mu.Unlock()
	if st.Seq == 0 {
		return Status{}, false
	}
	st.ElapsedNS = time.Since(st.StartedAt).Nanoseconds()
	st.UnitsDone = p.unitsDone.Load()
	st.UnitsTotal = p.unitsTotal.Load()
	st.CostDone = p.costDone.Load()
	st.CostTotal = p.costTotal.Load()
	st.ETANS = -1
	if st.CostTotal > 0 {
		f := float64(st.CostDone) / float64(st.CostTotal)
		if f > 1 {
			f = 1
		}
		st.Frac = f
	}
	if st.CostDone > 0 && st.CostTotal > st.CostDone {
		st.ETANS = int64(float64(st.ElapsedNS) *
			float64(st.CostTotal-st.CostDone) / float64(st.CostDone))
	} else if st.CostDone >= st.CostTotal && st.CostTotal > 0 {
		st.ETANS = 0
	}
	return st, true
}

// Live is the registry behind /debug/joins/live: every Progress slot it
// hands out is tracked, and Snapshot reports the in-flight ones. A nil
// *Live hands out nil slots and snapshots empty, so a driver without the
// endpoint wires nothing.
type Live struct {
	mu    sync.Mutex
	slots []*Progress
}

// NewLive returns an empty registry.
func NewLive() *Live { return &Live{} }

// NewProgress allocates a reusable slot for the engine and registers it.
func (l *Live) NewProgress(engine string) *Progress {
	if l == nil {
		return nil
	}
	p := NewProgress(engine)
	l.mu.Lock()
	l.slots = append(l.slots, p)
	l.mu.Unlock()
	return p
}

// Snapshot reports the currently in-flight joins, in slot registration
// order. Finished and never-started slots are omitted.
func (l *Live) Snapshot() []Status {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	slots := append([]*Progress(nil), l.slots...)
	l.mu.Unlock()
	out := make([]Status, 0, len(slots))
	for _, p := range slots {
		if st, ok := p.Status(); ok && st.Running {
			out = append(out, st)
		}
	}
	return out
}
