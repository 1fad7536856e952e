package parnative

import (
	"fmt"
	"runtime"
	"sync"

	"spjoin/internal/join"
	"spjoin/internal/rtree"
)

// JoinPaged runs the parallel filter join out-of-core: both trees live in
// real page files and every node access goes through their (concurrency-
// safe) buffer pools. Task creation and work-stealing scheduling work
// exactly as in Join; each worker drives its own paged source, and the
// first I/O error aborts the whole join at the next scheduling point.
func JoinPaged(r, s *rtree.PagedTree, cfg Config) (Result, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.TaskFactor <= 0 {
		cfg.TaskFactor = 3
	}
	res := Result{Workers: cfg.Workers, PerWorker: make([]int, cfg.Workers)}
	if r.Len() == 0 || s.Len() == 0 {
		return res, nil
	}
	rRoot, err := r.Node(r.Root())
	if err != nil {
		return res, err
	}
	sRoot, err := s.Node(s.Root())
	if err != nil {
		return res, err
	}
	if !rRoot.MBR().Intersects(sRoot.MBR()) {
		return res, nil
	}

	creationSrc, creationErr := join.NewPagedSource(r, s)
	tasks, _, _ := join.CreateTasks(creationSrc, join.NodePair{
		RPage: r.Root(), SPage: s.Root(),
		RLevel: rRoot.Level, SLevel: sRoot.Level,
	}, cfg.Opts, cfg.TaskFactor*cfg.Workers)
	if err := creationErr(); err != nil {
		return res, fmt.Errorf("parnative: task creation: %w", err)
	}
	res.Tasks = len(tasks)
	if len(tasks) == 0 {
		return res, nil
	}

	out := make([]join.CandidateBuf, cfg.Workers)
	falseHits := make([]int, cfg.Workers)
	workerErrs := make([]error, cfg.Workers)
	sched := newStealScheduler(cfg.Workers, tasks)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			src, srcErr := join.NewPagedSource(r, s)
			var sc join.Scratch
			for {
				p, ok := sched.next(w)
				if !ok {
					return
				}
				res.PerWorker[w]++
				nr := src.Node(join.SideR, p.RPage, p.RLevel)
				ns := src.Node(join.SideS, p.SPage, p.SLevel)
				cands, children, _ := sc.Expand(nr, ns, cfg.Opts)
				if err := srcErr(); err != nil {
					workerErrs[w] = err
					sched.abort()
					return
				}
				if len(cands) > 0 {
					if cfg.Refiner != nil {
						for _, c := range cands {
							if cfg.Refiner(c) {
								out[w].Push(c)
							} else {
								falseHits[w]++
							}
						}
					} else {
						out[w].Append(cands)
					}
				}
				sched.complete(w, children)
			}
		}()
	}
	wg.Wait()
	res.Steals = int(sched.steals.Load())
	for _, err := range workerErrs {
		if err != nil {
			return res, fmt.Errorf("parnative: paged traversal: %w", err)
		}
	}

	for _, fh := range falseHits {
		res.FalseHits += fh
	}
	res.Candidates = gather(out)
	return res, nil
}
