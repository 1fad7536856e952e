package parnative

// Concurrency stress for the work-stealing scheduler, meant for `go test
// -race`: a deterministic seedable synthetic workload — a forest of node
// pairs with a precomputed expansion tree — is hammered by concurrent
// workers pushing children and stealing from each other. Every pair must
// be delivered exactly once: a lost pair means dropped join work, a
// duplicated one means duplicated candidates. This extends
// race_repro_test.go, which stresses the same window through real trees.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"spjoin/internal/join"
	"spjoin/internal/metrics"
	"spjoin/internal/storage"
)

// synthForest is a deterministic workload: root pairs plus a child table
// keyed by pair ID (stored in RPage). Levels decrease toward the leaves so
// the (hl, ns) victim-selection reports are meaningful.
type synthForest struct {
	roots    []join.NodePair
	children map[storage.PageID][]join.NodePair
	total    int
}

func buildForest(seed int64, roots, maxChildren, depth int) *synthForest {
	rng := rand.New(rand.NewSource(seed))
	f := &synthForest{children: make(map[storage.PageID][]join.NodePair)}
	nextID := storage.PageID(0)
	newPair := func(level int) join.NodePair {
		nextID++
		f.total++
		return join.NodePair{RPage: nextID, SPage: nextID, RLevel: level, SLevel: level}
	}
	var expand func(p join.NodePair, depth int)
	expand = func(p join.NodePair, depth int) {
		if depth == 0 {
			return
		}
		n := rng.Intn(maxChildren + 1)
		kids := make([]join.NodePair, 0, n)
		for i := 0; i < n; i++ {
			c := newPair(depth - 1)
			kids = append(kids, c)
			expand(c, depth-1)
		}
		f.children[p.RPage] = kids
	}
	for i := 0; i < roots; i++ {
		r := newPair(depth)
		f.roots = append(f.roots, r)
		expand(r, depth)
	}
	return f
}

func TestStealSchedulerNoLossNoDuplication(t *testing.T) {
	cases := []struct {
		workers, roots, maxChildren, depth int
		seed                               int64
	}{
		{workers: 4, roots: 8, maxChildren: 6, depth: 4, seed: 1},
		{workers: 16, roots: 2, maxChildren: 8, depth: 5, seed: 2}, // skewed: stealing is the only balance
		{workers: 8, roots: 64, maxChildren: 3, depth: 3, seed: 3},
		{workers: 8, roots: 0, maxChildren: 3, depth: 3, seed: 4},   // empty workload terminates
		{workers: 3, roots: 1, maxChildren: 1, depth: 200, seed: 5}, // deep chain: constant republish
	}
	for _, tc := range cases {
		tc := tc
		name := fmt.Sprintf("w%d_r%d_c%d_d%d_seed%d", tc.workers, tc.roots, tc.maxChildren, tc.depth, tc.seed)
		t.Run(name, func(t *testing.T) {
			f := buildForest(tc.seed, tc.roots, tc.maxChildren, tc.depth)
			reg := metrics.NewRegistry()
			sched := newStealScheduler(tc.workers, f.roots)
			sched.met = newNativeMetrics(reg, tc.workers)

			seen := make([]map[storage.PageID]int, tc.workers)
			var wg sync.WaitGroup
			for w := 0; w < tc.workers; w++ {
				w := w
				seen[w] = make(map[storage.PageID]int)
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						p, ok := sched.next(w)
						if !ok {
							return
						}
						seen[w][p.RPage]++
						sched.complete(w, f.children[p.RPage])
					}
				}()
			}
			wg.Wait()

			counts := make(map[storage.PageID]int, f.total)
			for _, m := range seen {
				for id, n := range m {
					counts[id] += n
				}
			}
			delivered := 0
			for id, n := range counts {
				delivered += n
				if n != 1 {
					t.Errorf("pair %d delivered %d times", id, n)
				}
			}
			if delivered != f.total {
				t.Fatalf("delivered %d pairs, workload has %d", delivered, f.total)
			}
			for id := storage.PageID(1); id <= storage.PageID(f.total); id++ {
				if counts[id] == 0 {
					t.Fatalf("pair %d lost", id)
				}
			}
			if sched.inflight.Load() != 0 {
				t.Fatalf("inflight = %d after completion", sched.inflight.Load())
			}
			if att, st := sched.attempts.Load(), sched.steals.Load(); att < st {
				t.Fatalf("steal attempts %d < successes %d", att, st)
			}
			snap := reg.Snapshot()
			if snap.Counters["native.steal.successes"] != sched.steals.Load() {
				t.Fatalf("metrics successes %d, scheduler %d",
					snap.Counters["native.steal.successes"], sched.steals.Load())
			}
		})
	}
}

// TestStealSchedulerRepeatable runs the skewed case many times to widen the
// race window (the -race detector needs the interleavings to occur).
func TestStealSchedulerRepeatable(t *testing.T) {
	f := buildForest(7, 2, 5, 5)
	for round := 0; round < 200; round++ {
		sched := newStealScheduler(8, f.roots)
		var delivered [8]int64
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					p, ok := sched.next(w)
					if !ok {
						return
					}
					delivered[w]++
					sched.complete(w, f.children[p.RPage])
				}
			}()
		}
		wg.Wait()
		var total int64
		for _, n := range delivered {
			total += n
		}
		if total != int64(f.total) {
			t.Fatalf("round %d: delivered %d pairs, workload has %d", round, total, f.total)
		}
	}
}
