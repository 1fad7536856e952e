package rtree

import (
	"runtime"
	"sync"
)

// Parallel STR bulk load. bulkLoadSTR (bulk.go) decides nothing by worker
// count: each level's center-x order is one keyed radix sort on the calling
// goroutine (≈2 ms at 131k entries — a barrier per radix pass would cost
// more than it shares out), and the slabs' center-y orders, the key
// computation, the entry copies, the sweep caches and the blocks fan out
// over disjoint ranges. Both orderings are stable sorts, whose result is a unique
// sequence (equal keys keep input order, NaN keys go first — see
// geom.StableOrderByKey), and page numbers are assigned on the calling
// goroutine in final order, so the trees are byte-identical to
// BulkLoadSTR's under WriteTo for every input and every worker count.

// Thresholds below which the parallel paths fall back to the sequential
// code: goroutine fan-out costs more than it saves on small inputs.
// Package variables so tests can force the parallel path on tiny trees.
var (
	parallelBulkMinItems   = 4096
	parallelPackMinEntries = 2048
)

// BulkLoadSTRParallel builds the same tree as BulkLoadSTR — byte-identical
// under WriteTo — using the given number of goroutines for the key, slab
// sort, pack, and join-preparation phases. workers <= 0 means GOMAXPROCS. Small
// inputs run on the calling goroutine alone.
func BulkLoadSTRParallel(params Params, items []Item, fill float64, workers int) *Tree {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if len(items) < parallelBulkMinItems {
		workers = 1
	}
	return bulkLoadSTR(params, items, fill, workers)
}

// parallelRanges splits [0, n) into one contiguous range per worker and
// runs f on each concurrently, returning when all are done.
func parallelRanges(workers, n int, f func(lo, hi int)) {
	if n == 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		f(0, n)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := n*w/workers, n*(w+1)/workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(lo, hi)
		}()
	}
	wg.Wait()
}
