// Package parnative executes the parallel spatial join with real goroutines
// on the host machine. Where package parjoin reproduces the paper's
// measurements in simulated virtual time, this package delivers the actual
// result set with task parallelism: task creation follows §3.1 down to the
// pairs of level-1 nodes, and the workers claim the created units in
// plane-sweep order off one shared atomic cursor — the paper's dynamic task
// assignment, without reassignment. In memory every unit is a block pair, or
// a part of one, joined as dense blocks (blocks.go); from page files every
// unit is a level-1 node pair whose leaf pairs the claiming worker expands
// on its own stack with the node-pair kernel. Workers emit candidates in
// batches.
package parnative

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"spjoin/internal/join"
	"spjoin/internal/rtree"
	"spjoin/internal/runtimeobs"
	"spjoin/internal/sim"
	"spjoin/internal/timeline"
)

// Config controls a native parallel join.
type Config struct {
	// Workers is the number of goroutines (default: GOMAXPROCS).
	Workers int
	// TaskFactor sets the split share of the in-memory join: a block pair
	// whose estimated cost exceeds 1/(TaskFactor*Workers) of all block
	// pairs' cost is cut into parts (default 3). Task creation itself always
	// runs down to the level-1 pairs.
	TaskFactor int
	// Refiner, when set, is the refinement step: it receives every filter
	// candidate and keeps only those passing the exact join predicate.
	// Like in the paper, the worker that found a candidate refines it, so
	// refinement runs in parallel too. The Refiner must be safe for
	// concurrent use (pure functions over immutable geometry are).
	Refiner func(join.Candidate) bool
	// Timeline, when set, records wall-clock spans (cpu-sweep per unit,
	// refine-wait) — the lighter native mirror of the simulator's
	// virtual-time profiler. Size it with timeline.NewWallRecorder over the
	// resolved worker count; each worker writes only its own track, so
	// recording needs no locks.
	Timeline *timeline.Recorder
	// Progress, when set, receives live progress: the unit count is
	// published when the schedule exists, every unit (a part of a block
	// pair, or a paged node pair) reports one unit done, and the leaf pairs
	// a paged worker expands grow the total — so done converges on total
	// exactly as the join drains. Observation-only: a nil slot costs one
	// nil-check per unit.
	Progress *runtimeobs.Progress
}

// Result of a native parallel join.
type Result struct {
	// Candidates is the filter-step output.
	Candidates []join.Candidate
	// Tasks is the number of created tasks (m): the units on the cursor, a
	// block pair cut into parts counting once per part.
	Tasks int
	// Workers is the number of goroutines actually used.
	Workers int
	// PerWorker counts the units each worker ran (diagnostic for
	// load-balance inspection). In memory the sum is Tasks; paged it adds
	// the leaf pairs the workers expanded from their units.
	PerWorker []int
	// Steals and StealAttempts are always 0: workers claim units off one
	// cursor and never take work from each other.
	Steals        int
	StealAttempts int
	// FalseHits counts candidates the Refiner rejected (0 without one), so
	// the filter step found len(Candidates) + FalseHits pairs.
	FalseHits int
	// PairsExpanded counts the node pairs joined: every block pair once,
	// however many parts it was cut into, and paged, every unit and leaf
	// pair. Comparisons counts the rectangle comparisons they made (the
	// paper's CPU cost driver). Both are scheduling-independent: the same
	// at every worker count.
	PairsExpanded int
	Comparisons   int
	// PhaseNS is the wall time spent in each pipeline phase, indexed by the
	// timeline.Phase* constants. The tree executor fills the subset that
	// applies: prep (PrepareBlocks, or the root reads of paged trees),
	// partition (task creation), sweep (the parallel expansion loop) and
	// merge (result assembly).
	PhaseNS [timeline.NumPhases]int64
}

// Join runs the parallel filter step of r ⋈ s and returns all candidate
// pairs. The result set is exactly the sequential join's result set. It
// joins pairs of level-1 nodes (or leaf roots) as blocks; the trees are
// prepared for that first (rtree.Tree.PrepareBlocks), which writes to them
// unless they are prepared already — the bulk loaders prepare their trees.
func Join(r, s *rtree.Tree, cfg Config) Result {
	// The in-memory source cannot fail, so run's error is always nil.
	var blockMax [2]int
	res, _ := run(cfg, &blockMax, func() (join.NodePair, bool, error) {
		// Workers share the in-memory nodes; build the directory caches and
		// the blocks up front so no lazy construction races inside the join.
		r.PrepareBlocks()
		s.PrepareBlocks()
		blockMax = [2]int{r.MaxBlockLen(), s.MaxBlockLen()}
		root, ok := join.RootPair(r, s)
		return root, ok, nil
	}, func() (join.Source, func() error) {
		return join.DirectSource{R: r, S: s}, nil
	})
	return res
}

// JoinPaged runs the parallel filter join out-of-core: both trees live in
// real page files and every node access goes through their (concurrency-
// safe) buffer pools. It is Join over a paged source: each worker drives
// its own, and the first read error (I/O, checksum, or a node at the wrong
// level) aborts the whole join: every worker stops at its next unit. The
// page file has no block format, so every node pair, leaf pairs included,
// is expanded with the node-pair kernel.
func JoinPaged(r, s *rtree.PagedTree, cfg Config) (Result, error) {
	return run(cfg, nil, func() (join.NodePair, bool, error) {
		return join.PagedRootPair(r, s)
	}, func() (join.Source, func() error) {
		return join.NewPagedSource(r, s)
	})
}

// run is the native tree join behind Join and JoinPaged. A non-nil blockMax
// says the source's level-1 nodes and leaf roots carry blocks, so every unit
// is joined as a block pair; once root has run it holds the longest block of
// either side. root prepares the trees and returns their root pair (false:
// nothing to join); its time is the prep phase. newSource gives task
// creation and each worker its own node source plus that source's error
// check (nil for a source that cannot fail).
//
// The schedule is one list of units in plane-sweep order, complete before
// any worker starts, and one atomic cursor over it: a worker takes the next
// unclaimed unit, so idle workers drain the tail with no stealing and no
// sleeping. A paged worker first drains its own stack of the leaf pairs its
// last unit expanded to. A failed error check, or a panic in a worker (in a
// Refiner, say), sets the abort flag, and every worker stops at its next
// unit; run then returns the error, or re-panics with the first panic's
// value on the caller's goroutine.
func run(cfg Config, blockMax *[2]int, root func() (join.NodePair, bool, error),
	newSource func() (join.Source, func() error)) (Result, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.TaskFactor <= 0 {
		cfg.TaskFactor = 3
	}
	rec := cfg.Timeline
	if rec != nil {
		if got := len(rec.Procs()); got != cfg.Workers {
			panic(fmt.Sprintf("parnative: Timeline has %d tracks, need %d (size with NewWallRecorder(Workers))",
				got, cfg.Workers))
		}
	}
	res := Result{Workers: cfg.Workers, PerWorker: make([]int, cfg.Workers)}
	t0 := time.Now()
	epoch := t0
	rootPair, ok, err := root()
	if err != nil {
		return res, fmt.Errorf("parnative: roots: %w", err)
	}
	t1 := time.Now()
	blocks := blockMax != nil
	var tasks []unit
	if ok {
		src, check := newSource()
		// No minimum: every pair above level 1 is expanded, in plane-sweep
		// order, so no unit has children a worker would have to share.
		pairs, _, _ := join.CreateTasks(src, rootPair, join.Options{}, math.MaxInt, 1)
		if blocks {
			tasks = splitTasks(src, pairs, cfg.TaskFactor*cfg.Workers)
		} else {
			tasks = wholeUnits(pairs)
		}
		if check != nil {
			if err := check(); err != nil {
				return res, fmt.Errorf("parnative: task creation: %w", err)
			}
		}
	}
	t2 := time.Now()
	if rec != nil {
		// Owner-side phase spans on track 0 (the worker goroutines are not
		// running yet, so the track has a single writer here).
		rec.Complete(0, 0, wallAt(t1, epoch), timeline.KindPhase,
			sim.SpanArgs{A: timeline.PhasePrep})
		rec.Complete(0, wallAt(t1, epoch), wallAt(t2, epoch), timeline.KindPhase,
			sim.SpanArgs{A: timeline.PhasePartition})
	}
	res.Tasks = len(tasks)
	res.PhaseNS[timeline.PhasePrep] = t1.Sub(t0).Nanoseconds()
	res.PhaseNS[timeline.PhasePartition] = t2.Sub(t1).Nanoseconds()
	// Live progress: one unit at unit cost each (the tree walk has no
	// per-unit cost estimate); the leaf pairs a paged worker expands grow
	// the total, so done meets total exactly at the drain.
	prog := cfg.Progress
	prog.Start()
	defer prog.Finish()
	prog.SetTotal(int64(len(tasks)), int64(len(tasks)))
	if len(tasks) == 0 {
		return res, nil
	}

	out := make([]join.CandidateBuf, cfg.Workers)
	// tally holds each worker's counts, written once as it exits.
	tally := make([]struct{ pairs, comps, falseHits int }, cfg.Workers)
	workerErrs := make([]error, cfg.Workers)
	// The workers' shared state: the cursor (the index of the next
	// unclaimed unit), the abort flag, and the first worker panic's value.
	var sched struct {
		next              atomic.Int64
		aborted, panicked atomic.Bool
		panicVal          any
	}
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					if sched.panicked.CompareAndSwap(false, true) {
						sched.panicVal = p
					}
					sched.aborted.Store(true)
				}
			}()
			if rec != nil {
				// The whole worker loop is one sweep-phase span; the unit
				// spans nest inside it.
				rec.BeginSpan(w, wallSince(epoch), timeline.KindPhase,
					sim.SpanArgs{A: timeline.PhaseSweep})
			}
			src, check := newSource()
			var sc join.Scratch
			var bs *blockScratch
			if blocks {
				bs = newBlockScratch(blockMax[0], blockMax[1])
			}
			// stack holds the leaf pairs of a paged worker's last unit, the
			// next in plane-sweep order on top.
			var stack []join.NodePair
			// Hot-path counts stay in locals; tallied once on exit.
			var pairs, comps, falseHits int
			for !sched.aborted.Load() {
				var u unit
				if n := len(stack); n > 0 {
					u = unit{NodePair: stack[n-1], parts: 1}
					stack = stack[:n-1]
				} else if i := sched.next.Add(1) - 1; i < int64(len(tasks)) {
					u = tasks[i]
				} else {
					break
				}
				res.PerWorker[w]++
				if u.part == 0 {
					pairs++
				}
				var t0 sim.Time
				if rec != nil {
					t0 = wallSince(epoch)
				}
				before := out[w].Len()
				var comparisons int
				if blocks {
					a, b := blockPair(src, u.NodePair)
					comparisons = bs.joinBlocks(a, b, u.part, u.parts, &out[w])
				} else {
					nr := src.Node(join.SideR, u.RPage, u.RLevel)
					ns := src.Node(join.SideS, u.SPage, u.SLevel)
					var cands []join.Candidate
					var children []join.NodePair
					cands, children, comparisons = sc.Expand(nr, ns, join.Options{})
					if check != nil {
						if err := check(); err != nil {
							workerErrs[w] = err
							sched.aborted.Store(true)
							break
						}
					}
					out[w].Append(cands)
					for i := len(children) - 1; i >= 0; i-- {
						stack = append(stack, children[i])
					}
					if n := len(children); n > 0 {
						prog.AddTotal(int64(n), int64(n))
					}
				}
				if rec != nil {
					rec.Complete(w, t0, wallSince(epoch), timeline.KindCPUSweep, sim.SpanArgs{
						A: int64(u.RPage), B: int64(u.SPage), C: int64(u.MaxLevel()), D: int64(comparisons),
					})
				}
				comps += comparisons
				found := out[w].Len() - before
				if cfg.Refiner != nil && found > 0 {
					// The unit's candidates are refined in place, behind its
					// sweep, like a node pair's.
					r0 := sim.Time(0)
					if rec != nil {
						r0 = wallSince(epoch)
					}
					falseHits += out[w].Filter(before, cfg.Refiner)
					if rec != nil {
						rec.Complete(w, r0, wallSince(epoch), timeline.KindRefineWait,
							sim.SpanArgs{A: int64(found)})
					}
				}
				prog.UnitDone(1)
			}
			tally[w].pairs, tally[w].comps, tally[w].falseHits = pairs, comps, falseHits
			if rec != nil {
				rec.EndSpan(w, wallSince(epoch), sim.SpanArgs{}, false)
			}
		}()
	}
	wg.Wait()
	if sched.panicked.Load() {
		panic(sched.panicVal)
	}
	t3 := time.Now()
	res.PhaseNS[timeline.PhaseSweep] = t3.Sub(t2).Nanoseconds()
	for _, err := range workerErrs {
		if err != nil {
			return res, fmt.Errorf("parnative: traversal: %w", err)
		}
	}

	for _, t := range tally {
		res.PairsExpanded += t.pairs
		res.Comparisons += t.comps
		res.FalseHits += t.falseHits
	}
	res.Candidates = gather(out)
	res.PhaseNS[timeline.PhaseMerge] = time.Since(t3).Nanoseconds()
	if rec != nil {
		rec.Complete(0, wallAt(t3, epoch), wallSince(epoch), timeline.KindPhase,
			sim.SpanArgs{A: timeline.PhaseMerge})
	}
	return res, nil
}

// wallSince returns wall milliseconds since epoch on the recorder's clock.
func wallSince(epoch time.Time) sim.Time {
	return sim.Time(float64(time.Since(epoch)) / float64(time.Millisecond))
}

// wallAt converts an absolute timestamp to the recorder's clock.
func wallAt(t, epoch time.Time) sim.Time {
	return sim.Time(float64(t.Sub(epoch)) / float64(time.Millisecond))
}

// gather is the native join's output path: every worker
// emits into its own chunked buffer, and once all have finished a prefix
// sum over the buffer lengths gives each worker its slice of the exact-size
// result, in worker-major order — copied there by one goroutine per
// non-empty buffer, unless the whole result fits one block and starting
// goroutines would cost more than the copy.
func gather(bufs []join.CandidateBuf) []join.Candidate {
	total := 0
	for w := range bufs {
		total += bufs[w].Len()
	}
	out := make([]join.Candidate, total)
	parallel := total > join.CandidateBlock
	var wg sync.WaitGroup
	off := 0
	for w := range bufs {
		b := &bufs[w]
		dst := out[off : off+b.Len()]
		off += len(dst)
		if !parallel || len(dst) == 0 {
			b.CopyTo(dst)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.CopyTo(dst)
		}()
	}
	wg.Wait()
	return out
}
