package geom

// IndexPair is one intersecting pair found by the plane-sweep kernels
// (SweepPairsPlanes, SweepPairsPlanesDense); the indices refer to the
// rectangles the sweep ran over.
type IndexPair struct {
	R, S int32
}

// rectLess is the total order the plane sweep requires: ascending MinX, ties
// broken on MinY and then on the original index for determinism.
func rectLess(a, b Rect, ia, ib int) bool {
	if a.MinX != b.MinX {
		return a.MinX < b.MinX
	}
	if a.MinY != b.MinY {
		return a.MinY < b.MinY
	}
	return ia < ib
}

// SortOrderByMinX sorts order so that the rects it indexes follow the
// plane-sweep order: ascending MinX, ties broken on MinY and then on the
// index. The R*-tree node join sorts entries by their lower x-coordinate
// before sweeping (§2.2 of the paper), and the node sweep cache stores the
// result. Allocation-free, and adaptive for long inputs: an already-ordered
// slice (e.g. the previous join's order over unchanged data) is verified in
// one linear pass and returned as-is, so steady-state re-sorts cost O(n).
func SortOrderByMinX(rects []Rect, order []int32) {
	if len(order) <= orderSortCutoff {
		insertionSortOrder(rects, order)
		return
	}
	if orderIsSorted(rects, order) {
		return
	}
	quickSortOrder(rects, order)
}

// orderSortCutoff is the length at or below which binary-insertion sort
// beats quicksort partitioning (node-sized lists sit below it).
const orderSortCutoff = 48

// repairMaxFrac bounds the repair path of SortOrderByMinXKeyed: with more
// than 1/repairMaxFrac of the elements displaced the extract-and-merge
// repair loses to a full sort, so the function falls back.
const repairMaxFrac = 4

// SortOrderByMinXKeyed is SortOrderByMinX with caller-provided buffers that
// enable a repair strategy for nearly-sorted inputs: one scan compacts an
// ascending subsequence in place and extracts the d elements that broke it
// into scratch; those are sorted on their own and merged back from the
// tail, for O(n + d log d) in total. A rect whose key shrank is extracted
// alone, and so is one whose key grew (the scan evicts it when its successor
// still fits behind its predecessor), so k isolated disturbances give
// d <= k; only a run of two or more adjacent rects whose keys all grew still
// drags the elements up to their new position into d. This is the partition
// join's order-maintenance workhorse — a mutated input typically displaces a
// handful of rectangles out of an otherwise intact sweep order.
//
// Once more than a quarter of the elements are displaced the scan stops and
// the whole order is sorted: by the keyed radix sort over the word buffers
// ka and kb (see radix.go), or by quicksort when the keys cannot be
// quantised. With len(ka), len(kb) >= len(order) and a scratch of
// len(order)/4+1 nothing is allocated; shorter (or nil) buffers are replaced.
// The word buffers' contents are scratch — the partition join lends its
// tile-code array as one of them. Returns the (possibly grown) scratch
// buffer for reuse.
func SortOrderByMinXKeyed(rects []Rect, order, scratch []int32, ka, kb []uint64) []int32 {
	scratch, _ = sortOrderRepair(rects, order, scratch, ka, kb)
	return scratch
}

// SortOrderByMinXScratch is SortOrderByMinXKeyed for callers without
// resident word buffers: a full sort allocates them.
func SortOrderByMinXScratch(rects []Rect, order []int32, scratch []int32) []int32 {
	return SortOrderByMinXKeyed(rects, order, scratch, nil, nil)
}

// sortOrderRepair implements SortOrderByMinXKeyed and reports the number of
// displaced elements its scan extracted (-1 when it took the full sort).
func sortOrderRepair(rects []Rect, order, scratch []int32, ka, kb []uint64) ([]int32, int) {
	n := len(order)
	if n <= orderSortCutoff {
		insertionSortOrder(rects, order)
		return scratch, 0
	}
	limit := n / repairMaxFrac
	if cap(scratch) <= limit {
		scratch = make([]int32, limit+1)
	}
	scratch = scratch[:cap(scratch)]
	// Split scan: order[:k] accumulates the kept ascending subsequence,
	// scratch[:d] the elements that broke it. Reads stay ahead of writes
	// (k+d == i), so the compaction is safe in place.
	k, d := 0, 0
	for i := 0; i < n && d <= limit; i++ {
		v := order[i]
		if k > 0 {
			p := order[k-1]
			if rectLess(rects[v], rects[p], int(v), int(p)) {
				// A descent. If v still fits behind p's predecessor, p is
				// the outlier (its key grew): evict it and keep v, or every
				// element up to p's key would be classed displaced.
				if k == 1 || !rectLess(rects[v], rects[order[k-2]], int(v), int(order[k-2])) {
					scratch[d] = p
					order[k-1] = v
				} else {
					scratch[d] = v
				}
				d++
				continue
			}
		}
		order[k] = v
		k++
	}
	if d == 0 {
		return scratch, 0 // already sorted
	}
	if d > limit {
		// Heavily disordered: put the extracted elements back into the gap
		// the compaction left (order[k+d:] is still unread) and sort outright.
		copy(order[k:k+d], scratch[:d])
		if !radixSortOrder(rects, order, ka, kb) {
			quickSortOrder(rects, order)
		}
		return scratch, -1
	}
	quickSortOrder(rects, scratch[:d])
	// Backward merge of order[:k] and scratch[:d] into order[:n]: writing
	// from the tail never clobbers an unread kept element because the write
	// position stays at least d slots ahead of the read position.
	i, jd := k-1, d-1
	for pos := n - 1; jd >= 0; pos-- {
		if i >= 0 && rectLess(rects[scratch[jd]], rects[order[i]], int(scratch[jd]), int(order[i])) {
			order[pos] = order[i]
			i--
		} else {
			order[pos] = scratch[jd]
			jd--
		}
	}
	return scratch, d
}

// insertionSortOrder is a binary-insertion sort over the order slice.
func insertionSortOrder(rects []Rect, order []int32) {
	for i := 1; i < len(order); i++ {
		v := order[i]
		r := rects[v]
		lo, hi := 0, i
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if rectLess(r, rects[order[mid]], int(v), int(order[mid])) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		copy(order[lo+1:i+1], order[lo:i])
		order[lo] = v
	}
}

func orderIsSorted(rects []Rect, order []int32) bool {
	if len(order) == 0 {
		return true
	}
	// Carry the previous rect through the scan so each step gathers one
	// rect, not two; this check runs on every steady-state re-sort.
	prev := &rects[order[0]]
	pi := order[0]
	for i := 1; i < len(order); i++ {
		cur := &rects[order[i]]
		ci := order[i]
		if cur.MinX < prev.MinX ||
			(cur.MinX == prev.MinX &&
				(cur.MinY < prev.MinY || (cur.MinY == prev.MinY && ci < pi))) {
			return false
		}
		prev, pi = cur, ci
	}
	return true
}

// quickSortOrder is a median-of-three quicksort with direct rect-key
// comparisons (no sort.Interface indirection); the unique index tiebreak
// in rectLess makes the order total, so equal-key pathologies cannot
// arise. Recurses on the smaller partition to bound stack depth.
func quickSortOrder(rects []Rect, order []int32) {
	for len(order) > orderSortCutoff {
		p := partitionOrder(rects, order)
		if p < len(order)-p-1 {
			quickSortOrder(rects, order[:p])
			order = order[p+1:]
		} else {
			quickSortOrder(rects, order[p+1:])
			order = order[:p]
		}
	}
	insertionSortOrder(rects, order)
}

// partitionOrder partitions order around the median of its first, middle
// and last keys, returning the pivot's final position.
func partitionOrder(rects []Rect, order []int32) int {
	n := len(order)
	mid := n / 2
	if rectLess(rects[order[mid]], rects[order[0]], int(order[mid]), int(order[0])) {
		order[0], order[mid] = order[mid], order[0]
	}
	if rectLess(rects[order[n-1]], rects[order[0]], int(order[n-1]), int(order[0])) {
		order[0], order[n-1] = order[n-1], order[0]
	}
	if rectLess(rects[order[n-1]], rects[order[mid]], int(order[n-1]), int(order[mid])) {
		order[mid], order[n-1] = order[n-1], order[mid]
	}
	order[mid], order[n-1] = order[n-1], order[mid] // pivot to the end
	pv := order[n-1]
	pr := rects[pv]
	i := 0
	for k := 0; k < n-1; k++ {
		if rectLess(rects[order[k]], pr, int(order[k]), int(pv)) {
			order[i], order[k] = order[k], order[i]
			i++
		}
	}
	order[i], order[n-1] = order[n-1], order[i]
	return i
}
