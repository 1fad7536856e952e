// Package parnative executes the parallel spatial join with real goroutines
// on the host machine. Where package parjoin reproduces the paper's
// measurements in simulated virtual time, this package delivers the actual
// result set with task parallelism: task creation follows §3.1, and the
// created tasks are balanced across workers with per-worker deques plus
// work-stealing whose victim selection mirrors the paper's §3.3 task
// reassignment heuristic (help the worker with the largest remaining
// (level, tasks) work load). Each worker expands node pairs with the
// zero-allocation sequential kernel and emits candidates in batches.
package parnative

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"spjoin/internal/join"
	"spjoin/internal/metrics"
	"spjoin/internal/parjoin"
	"spjoin/internal/rtree"
	"spjoin/internal/runtimeobs"
	"spjoin/internal/sim"
	"spjoin/internal/timeline"
)

// Config controls a native parallel join.
type Config struct {
	// Workers is the number of goroutines (default: GOMAXPROCS).
	Workers int
	// TaskFactor requests at least TaskFactor*Workers tasks from task
	// creation, like the simulated executor (default 3).
	TaskFactor int
	// Opts are the sequential engine's tuning switches.
	Opts join.Options
	// Refiner, when set, is the refinement step: it receives every filter
	// candidate and keeps only those passing the exact join predicate.
	// Like in the paper, the worker that found a candidate refines it, so
	// refinement runs in parallel too. The Refiner must be safe for
	// concurrent use (pure functions over immutable geometry are).
	Refiner func(join.Candidate) bool
	// Metrics, when set, receives the run's counters under the "native."
	// prefix. Workers accumulate locally and flush on exit, so the hot
	// expansion loop is not slowed by shared counters.
	Metrics *metrics.Registry
	// Timeline, when set, records wall-clock spans (cpu-sweep per expanded
	// pair, refine-wait, queue-idle, reassign) — the lighter native mirror
	// of the simulator's virtual-time profiler. Size it with
	// timeline.NewWallRecorder over the resolved worker count; each worker
	// writes only its own track, so recording needs no locks.
	Timeline *timeline.Recorder
	// Progress, when set, receives live progress: the initial task count
	// is published when the schedule exists, every expanded node pair
	// reports one unit done, and children entering the deques grow the
	// total — so done converges on total exactly as the join drains.
	// Observation-only: a nil slot costs one nil-check per expansion.
	Progress *runtimeobs.Progress
}

// Result of a native parallel join.
type Result struct {
	// Candidates is the filter-step output.
	Candidates []join.Candidate
	// Tasks is the number of created tasks (m).
	Tasks int
	// Workers is the number of goroutines actually used.
	Workers int
	// PerWorker counts the node pairs each worker expanded (diagnostic for
	// load-balance inspection). The sum is the total pairs visited, which
	// is at least Tasks: every task is itself a pair, and deeper pairs are
	// scheduled individually so they can be stolen.
	PerWorker []int
	// Steals counts how often an idle worker took work from a loaded one;
	// StealAttempts additionally counts the failed tries (empty victims,
	// lost races). PerWorkerSteals splits Steals by the thief.
	Steals          int
	StealAttempts   int
	PerWorkerSteals []int
	// FalseHits counts candidates the Refiner rejected (0 without one).
	FalseHits int
	// PhaseNS is the wall time spent in each pipeline phase, indexed by the
	// timeline.Phase* constants. The tree executor fills the subset that
	// applies: prep (sweep-cache build), partition (task creation), sweep
	// (the parallel expansion loop) and merge (result assembly).
	PhaseNS [timeline.NumPhases]int64
}

// Join runs the parallel filter step of r ⋈ s and returns all candidate
// pairs. The result set is exactly the sequential join's result set.
func Join(r, s *rtree.Tree, cfg Config) Result {
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
	// Workers share the in-memory nodes; build every node's sweep cache up
	// front so no lazy construction races inside the join.
	t0 := time.Now()
	epoch := t0
	r.PrepareSweep()
	s.PrepareSweep()
	t1 := time.Now()
	tasks, _, _ := parjoin.CreateTasks(r, s, cfg.Opts, cfg.TaskFactor*cfg.Workers)
	t2 := time.Now()
	if rec != nil {
		// Owner-side phase spans on track 0 (the worker goroutines are not
		// running yet, so the track has a single writer here).
		rec.Complete(0, 0, wallAt(t1, epoch), timeline.KindPhase,
			sim.SpanArgs{A: timeline.PhasePrep})
		rec.Complete(0, wallAt(t1, epoch), wallAt(t2, epoch), timeline.KindPhase,
			sim.SpanArgs{A: timeline.PhasePartition})
	}
	res := Result{
		Tasks:           len(tasks),
		Workers:         cfg.Workers,
		PerWorker:       make([]int, cfg.Workers),
		PerWorkerSteals: make([]int, cfg.Workers),
	}
	res.PhaseNS[timeline.PhasePrep] = t1.Sub(t0).Nanoseconds()
	res.PhaseNS[timeline.PhasePartition] = t2.Sub(t1).Nanoseconds()
	// Live progress: the unit is one expanded node pair at unit cost (the
	// tree walk has no per-pair cost estimate); children entering the
	// deques grow the total, so done meets total exactly at the drain.
	prog := cfg.Progress
	prog.Start()
	prog.SetTotal(int64(len(tasks)), int64(len(tasks)))
	if len(tasks) == 0 {
		prog.Finish()
		return res
	}

	var met *nativeMetrics
	if cfg.Metrics != nil {
		met = newNativeMetrics(cfg.Metrics, cfg.Workers)
	}
	out := make([]join.CandidateBuf, cfg.Workers)
	falseHits := make([]int, cfg.Workers)
	sched := newStealScheduler(cfg.Workers, tasks)
	sched.met = met
	sched.perSteals = res.PerWorkerSteals
	if rec != nil {
		sched.rec, sched.epoch = rec, epoch
	}
	src := join.DirectSource{R: r, S: s}
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			if rec != nil {
				// The whole worker loop is one sweep-phase span; expansion
				// and idle spans nest inside it.
				rec.BeginSpan(w, wallSince(epoch), timeline.KindPhase,
					sim.SpanArgs{A: timeline.PhaseSweep})
			}
			var sc join.Scratch
			// Hot-path counts stay in locals; flushed once on exit.
			var pairs, comps, candTotal int64
			for {
				p, ok := sched.next(w)
				if !ok {
					break
				}
				res.PerWorker[w]++
				pairs++
				var t0 sim.Time
				if rec != nil {
					t0 = wallSince(epoch)
				}
				nr := src.Node(join.SideR, p.RPage, p.RLevel)
				ns := src.Node(join.SideS, p.SPage, p.SLevel)
				cands, children, comparisons := sc.Expand(nr, ns, cfg.Opts)
				if rec != nil {
					rec.Complete(w, t0, wallSince(epoch), timeline.KindCPUSweep, sim.SpanArgs{
						A: int64(p.RPage), B: int64(p.SPage), C: int64(p.MaxLevel()), D: int64(comparisons),
					})
				}
				comps += int64(comparisons)
				candTotal += int64(len(cands))
				if len(cands) > 0 {
					if cfg.Refiner != nil {
						r0 := sim.Time(0)
						if rec != nil {
							r0 = wallSince(epoch)
						}
						for _, c := range cands {
							if cfg.Refiner(c) {
								out[w].Push(c)
							} else {
								falseHits[w]++
							}
						}
						if rec != nil {
							rec.Complete(w, r0, wallSince(epoch), timeline.KindRefineWait,
								sim.SpanArgs{A: int64(len(cands))})
						}
					} else {
						out[w].Append(cands)
					}
				}
				if n := len(children); n > 0 {
					prog.AddTotal(int64(n), int64(n))
				}
				prog.UnitDone(1)
				sched.complete(w, children)
			}
			met.flushWorker(w, pairs, comps, candTotal, int64(falseHits[w]))
			if rec != nil {
				rec.EndSpan(w, wallSince(epoch), sim.SpanArgs{}, false)
			}
		}()
	}
	wg.Wait()
	t3 := time.Now()
	res.PhaseNS[timeline.PhaseSweep] = t3.Sub(t2).Nanoseconds()
	res.Steals = int(sched.steals.Load())
	res.StealAttempts = int(sched.attempts.Load())

	for _, fh := range falseHits {
		res.FalseHits += fh
	}
	res.Candidates = gather(out)
	res.PhaseNS[timeline.PhaseMerge] = time.Since(t3).Nanoseconds()
	if rec != nil {
		rec.Complete(0, wallAt(t3, epoch), wallSince(epoch), timeline.KindPhase,
			sim.SpanArgs{A: timeline.PhaseMerge})
	}
	met.finish(&res)
	prog.Finish()
	return res
}

// wallSince returns wall milliseconds since epoch on the recorder's clock.
func wallSince(epoch time.Time) sim.Time {
	return sim.Time(float64(time.Since(epoch)) / float64(time.Millisecond))
}

// wallAt converts an absolute timestamp to the recorder's clock.
func wallAt(t, epoch time.Time) sim.Time {
	return sim.Time(float64(t.Sub(epoch)) / float64(time.Millisecond))
}

// gather is the output path shared by Join and JoinPaged: every worker
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
