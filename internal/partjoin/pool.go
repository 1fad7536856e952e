package partjoin

import "sync"

// PoolTask is one parallel phase executed on a Pool: RunWorker is invoked
// once per worker, concurrently, with the worker index in [0, Workers()).
// Implementations decide how to split the work (contiguous chunks, an
// atomic cursor, ...); the Pool only provides the goroutines.
type PoolTask interface {
	RunWorker(w int)
}

// Pool is a reusable fixed-size worker pool for phase-structured parallel
// algorithms (the partition-based join runs its count, scatter and
// per-tile sweep phases on one). Unlike the per-Join goroutines of the
// tree executor, the pool's workers are spawned once and parked on a
// condition variable between phases, so launching a phase costs no
// goroutine creation and — because tasks are passed as interface pointers,
// not closures — no allocation.
//
// The calling goroutine participates as worker 0: a one-worker pool runs
// every task inline with zero synchronization, and a k-worker pool parks
// only k-1 goroutines. Run and Close must be called from a single
// goroutine (the pool's owner); RunWorker bodies run concurrently with
// each other but never with the owner between phases.
type Pool struct {
	workers int

	mu     sync.Mutex
	wake   sync.Cond // parked workers wait here for the next phase
	done   sync.Cond // the owner waits here for phase completion
	task   PoolTask
	gen    uint64 // phase generation; bumped by Run
	active int    // helper workers still inside the current phase
	closed bool
}

// NewPool starts a pool of the given size (minimum 1).
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{workers: workers}
	p.wake.L = &p.mu
	p.done.L = &p.mu
	for w := 1; w < workers; w++ {
		go p.loop(w)
	}
	return p
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// Run executes t.RunWorker(w) for every worker w and returns when all have
// finished. The caller runs worker 0 itself.
func (p *Pool) Run(t PoolTask) {
	if p.workers == 1 {
		t.RunWorker(0)
		return
	}
	p.mu.Lock()
	p.task = t
	p.gen++
	p.active = p.workers - 1
	p.wake.Broadcast()
	p.mu.Unlock()

	t.RunWorker(0)

	p.mu.Lock()
	for p.active > 0 {
		p.done.Wait()
	}
	p.task = nil
	p.mu.Unlock()
}

// Close terminates the pool's goroutines. The pool must be idle (no Run in
// flight); a closed pool must not be reused.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.wake.Broadcast()
	p.mu.Unlock()
}

// loop is the parked helper worker: wait for a generation bump, run the
// phase, report back.
func (p *Pool) loop(w int) {
	p.mu.Lock()
	gen := uint64(0)
	for {
		for !p.closed && p.gen == gen {
			p.wake.Wait()
		}
		if p.closed {
			p.mu.Unlock()
			return
		}
		gen = p.gen
		t := p.task
		p.mu.Unlock()

		t.RunWorker(w)

		p.mu.Lock()
		p.active--
		if p.active == 0 {
			p.done.Signal()
		}
	}
}
