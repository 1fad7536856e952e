package parnative

import (
	"sync"
	"sync/atomic"
	"time"

	"spjoin/internal/join"
	"spjoin/internal/sim"
	"spjoin/internal/timeline"
)

// Work-stealing scheduler for the native executor. Every worker owns a
// deque of pending units (node pairs, or parts of a block pair): the owner pushes and pops at the top
// (depth-first, preserving local plane-sweep order), idle workers steal
// from the bottom — the least imminent, highest-level pairs, exactly the
// work the paper's task reassignment moves (§3.3 "the processors are
// informed about ... the highest level hl of a pair of subtrees which has
// not yet been joined, and the number ns of such pairs"). Victim selection
// follows the same heuristic: the worker whose remaining work load has the
// largest (level, pairs-at-that-level) report is helped first.
//
// Compared to the seed's single shared atomic task counter, this keeps the
// owner's hot path on an uncontended per-worker lock and lets workers that
// drew small initial tasks take over the unstarted subtrees of overloaded
// ones, instead of idling once the shared counter runs out.

// workerDeque is one worker's pending work load. The slice end is the top
// (owner side); index 0 is the bottom (steal side).
type workerDeque struct {
	mu    sync.Mutex
	items []unit
}

// pop removes the top unit (the next in the owner's plane-sweep order).
func (d *workerDeque) pop() (unit, bool) {
	d.mu.Lock()
	n := len(d.items)
	if n == 0 {
		d.mu.Unlock()
		return unit{}, false
	}
	item := d.items[n-1]
	d.items = d.items[:n-1]
	d.mu.Unlock()
	return item, true
}

// push adds a node pair's children, given in plane-sweep order, as whole
// units; they are pushed reversed so the owner pops them in order.
func (d *workerDeque) push(children []join.NodePair) {
	d.mu.Lock()
	for i := len(children) - 1; i >= 0; i-- {
		d.items = append(d.items, unit{NodePair: children[i], parts: 1})
	}
	d.mu.Unlock()
}

// size returns the current deque length (metrics support).
func (d *workerDeque) size() int {
	d.mu.Lock()
	n := len(d.items)
	d.mu.Unlock()
	return n
}

// report returns the paper's (hl, ns) victim-selection measure: the highest
// subtree level among the pending pairs and how many pairs sit at that
// level. hl is -1 when the deque is empty.
func (d *workerDeque) report() (hl, ns int) {
	d.mu.Lock()
	hl = -1
	for i := range d.items {
		l := d.items[i].MaxLevel()
		if l > hl {
			hl, ns = l, 1
		} else if l == hl {
			ns++
		}
	}
	d.mu.Unlock()
	return hl, ns
}

// stealHalf moves half of the deque (at least one pair) from the bottom
// into buf and returns it, preserving deque order. The remaining items are
// compacted so the owner's capacity is retained.
func (d *workerDeque) stealHalf(buf []unit) []unit {
	d.mu.Lock()
	n := len(d.items)
	if n == 0 {
		d.mu.Unlock()
		return buf[:0]
	}
	take := n / 2
	if take < 1 {
		take = 1
	}
	buf = append(buf[:0], d.items[:take]...)
	copy(d.items, d.items[take:])
	d.items = d.items[:n-take]
	d.mu.Unlock()
	return buf
}

// pushBottom places stolen pairs under the current items, preserving their
// order. The thief's deque is normally empty when this runs (it only steals
// out of work), but other thieves may race it, so the general case is
// handled too.
func (d *workerDeque) pushBottom(items []unit) {
	d.mu.Lock()
	if len(d.items) == 0 {
		d.items = append(d.items[:0], items...)
	} else {
		merged := make([]unit, 0, len(items)+len(d.items))
		merged = append(merged, items...)
		merged = append(merged, d.items...)
		d.items = merged
	}
	d.mu.Unlock()
}

// stealScheduler coordinates the worker deques: termination detection via
// an in-flight pair count, sleeping idle workers, and steal bookkeeping.
type stealScheduler struct {
	deques []*workerDeque
	bufs   [][]unit // per-worker steal scratch

	// inflight counts pairs that are queued or being processed; the join is
	// complete when it reaches zero.
	inflight atomic.Int64
	steals   atomic.Int64
	attempts atomic.Int64
	aborted  atomic.Bool

	// perSteals splits steals by the thief. Slot w is written only from
	// worker w's goroutine (steal runs on the thief), so no atomics are
	// needed; readers wait for the workers to exit first.
	perSteals []int

	// met is the optional observability bundle (nil disables everything
	// beyond the always-on steals/attempts counters above).
	met *nativeMetrics
	// rec, when set, records queue-idle and reassign spans stamped with
	// wall time since epoch. Each worker writes only its own track.
	rec   *timeline.Recorder
	epoch time.Time

	mu      sync.Mutex
	cond    *sync.Cond
	version uint64 // bumped whenever new work appears; guards against lost wake-ups
	waiters int
	done    bool
}

// newStealScheduler distributes the created tasks over the workers by the
// paper's static range assignment (§3.1, join.SplitRange: contiguous
// blocks in plane-sweep order) and lets stealing balance from there.
func newStealScheduler(workers int, tasks []unit) *stealScheduler {
	s := &stealScheduler{
		deques: make([]*workerDeque, workers),
		bufs:   make([][]unit, workers),
	}
	s.cond = sync.NewCond(&s.mu)
	for i, block := range join.SplitRange(tasks, workers) {
		d := &workerDeque{items: make([]unit, 0, 2*len(block)+8)}
		// Load bottom-up so the top of the deque pops in plane-sweep order.
		for j := len(block) - 1; j >= 0; j-- {
			d.items = append(d.items, block[j])
		}
		s.deques[i] = d
	}
	s.inflight.Store(int64(len(tasks)))
	s.done = len(tasks) == 0
	return s
}

// next returns the next pair for worker w: its own top, else stolen work,
// else it sleeps until work appears or the join completes. ok is false when
// the whole join is done (or aborted).
func (s *stealScheduler) next(w int) (unit, bool) {
	if s.aborted.Load() {
		return unit{}, false
	}
	if item, ok := s.deques[w].pop(); ok {
		return item, true
	}
	for {
		s.mu.Lock()
		if s.done {
			s.mu.Unlock()
			return unit{}, false
		}
		v := s.version
		s.mu.Unlock()

		if item, ok := s.steal(w); ok {
			return item, true
		}

		s.mu.Lock()
		// Only sleep if no work appeared since the version read above;
		// otherwise retry the steal immediately (the producer may have
		// published between our failed steal and this lock).
		if !s.done && s.version == v {
			s.waiters++
			var t0 sim.Time
			if s.rec != nil {
				t0 = wallSince(s.epoch)
			}
			s.cond.Wait()
			if s.rec != nil {
				// The native scheduler broadcasts anonymously, so no waker
				// is recorded (-1), unlike the simulated executor.
				s.rec.Complete(w, t0, wallSince(s.epoch), timeline.KindQueueIdle, sim.SpanArgs{A: -1})
			}
			s.waiters--
		}
		done := s.done
		s.mu.Unlock()
		if done {
			return unit{}, false
		}
	}
}

// complete finishes one pair processed by worker w, publishing its children
// (in plane-sweep order) and updating termination state.
func (s *stealScheduler) complete(w int, children []join.NodePair) {
	if len(children) > 0 {
		s.deques[w].push(children)
		if s.met != nil {
			s.met.queueDepth.Observe(int64(s.deques[w].size()))
		}
		s.mu.Lock()
		s.version++
		if s.waiters > 0 {
			s.cond.Broadcast()
		}
		s.mu.Unlock()
	}
	// The processed pair leaves flight; its children entered above. Ordering
	// matters: children are visible before the count can reach zero.
	if s.inflight.Add(int64(len(children))-1) == 0 {
		s.finish()
	}
}

// steal picks the victim with the largest (hl, ns) work report, takes half
// of its deque from the bottom, and returns the first stolen pair (the rest
// goes under w's own deque).
func (s *stealScheduler) steal(w int) (unit, bool) {
	s.attempts.Add(1)
	best, bestHl, bestNs := -1, -1, 0
	for i := range s.deques {
		if i == w {
			continue
		}
		hl, ns := s.deques[i].report()
		if hl < 0 {
			continue
		}
		if hl > bestHl || (hl == bestHl && ns > bestNs) {
			best, bestHl, bestNs = i, hl, ns
		}
	}
	if best < 0 {
		return unit{}, false
	}
	moved := s.deques[best].stealHalf(s.bufs[w])
	s.bufs[w] = moved[:0]
	if len(moved) == 0 {
		return unit{}, false // raced: the victim drained meanwhile
	}
	s.steals.Add(1)
	if s.perSteals != nil {
		s.perSteals[w]++
	}
	if s.met != nil {
		s.met.stole(len(moved))
	}
	if s.rec != nil {
		now := wallSince(s.epoch)
		s.rec.Complete(w, now, now, timeline.KindReassign, sim.SpanArgs{
			A: int64(best), B: int64(len(moved)), C: int64(bestHl), D: int64(bestNs),
		})
		s.rec.AddFlow(w, best, now)
	}
	s.deques[w].pushBottom(moved)
	if item, ok := s.deques[w].pop(); ok {
		return item, true
	}
	// Another thief took everything we just published; treat as a miss.
	return unit{}, false
}

// finish marks the join complete and wakes every sleeping worker.
func (s *stealScheduler) finish() {
	s.mu.Lock()
	s.done = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// abort stops the join early (worker error): workers drop their remaining
// work at the next scheduling point.
func (s *stealScheduler) abort() {
	s.aborted.Store(true)
	s.finish()
}
