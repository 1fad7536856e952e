package geom

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// checkSortOrder sorts a copy of order both ways and requires the
// quicksort/insertion hybrid to match the reference sort exactly (the
// order is total thanks to the index tiebreak, so the result is unique).
func checkSortOrder(t *testing.T, rects []Rect, order []int32) {
	t.Helper()
	got := append([]int32(nil), order...)
	SortOrderByMinX(rects, got)
	want := append([]int32(nil), order...)
	sort.Slice(want, func(i, j int) bool {
		return rectLess(rects[want[i]], rects[want[j]], int(want[i]), int(want[j]))
	})
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("n=%d: position %d: got index %d, want %d", len(order), i, got[i], want[i])
		}
	}
}

// checkSortOrderScratch mirrors checkSortOrder for the scratch-buffer
// repair variant, alternating nil and reused scratch buffers.
func checkSortOrderScratch(t *testing.T, rects []Rect, order []int32, scratch []int32) []int32 {
	t.Helper()
	got := append([]int32(nil), order...)
	scratch = SortOrderByMinXScratch(rects, got, scratch)
	want := append([]int32(nil), order...)
	sort.Slice(want, func(i, j int) bool {
		return rectLess(rects[want[i]], rects[want[j]], int(want[i]), int(want[j]))
	})
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("n=%d: position %d: got index %d, want %d", len(order), i, got[i], want[i])
		}
	}
	return scratch
}

func TestSortOrderByMinXScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var scratch []int32
	for _, n := range []int{0, 1, 2, 47, 48, 49, 100, 1000, 5000} {
		rects := make([]Rect, n)
		order := make([]int32, n)
		for i := range rects {
			rects[i] = randomRect(rng)
			order[i] = int32(i)
		}
		// Random permutation (likely the quicksort fallback for large n).
		scratch = checkSortOrderScratch(t, rects, order, scratch)

		// Sorted baseline, then sparse disturbances of growing size: the
		// repair path must produce the same unique total order.
		sorted := append([]int32(nil), order...)
		SortOrderByMinX(rects, sorted)
		scratch = checkSortOrderScratch(t, rects, sorted, scratch)
		for _, k := range []int{1, 3, n / 8} {
			if k <= 0 || n < 2 {
				continue
			}
			dist := append([]int32(nil), sorted...)
			for j := 0; j < k; j++ {
				a, b := rng.Intn(n), rng.Intn(n)
				dist[a], dist[b] = dist[b], dist[a]
			}
			scratch = checkSortOrderScratch(t, rects, dist, scratch)
		}

		// Reverse order forces the heavy-disorder fallback.
		rev := make([]int32, n)
		for i := range rev {
			rev[i] = sorted[n-1-i]
		}
		scratch = checkSortOrderScratch(t, rects, rev, scratch)

		// Heavy MinX ties exercise the tiebreak through the repair merge.
		tied := make([]Rect, n)
		for i := range tied {
			tied[i] = NewRect(1, float64(i%7), 2, 10)
		}
		scratch = checkSortOrderScratch(t, tied, order, scratch)
	}
}

func TestSortOrderByMinXScratchZeroAlloc(t *testing.T) {
	const n = 4096
	rng := rand.New(rand.NewSource(13))
	rects := make([]Rect, n)
	order := make([]int32, n)
	for i := range rects {
		rects[i] = randomRect(rng)
		order[i] = int32(i)
	}
	SortOrderByMinX(rects, order)
	scratch := make([]int32, n)
	allocs := testing.AllocsPerRun(20, func() {
		order[10], order[2000] = order[2000], order[10]
		scratch = SortOrderByMinXScratch(rects, order, scratch)
	})
	if allocs != 0 {
		t.Fatalf("repair sort allocated %.1f times per run, want 0", allocs)
	}
}

// TestSortOrderByMinXKeyedZeroAlloc is the resident-buffer contract of the
// full-sort path: with word buffers of the order's length and a scratch of a
// quarter of it, a re-sort of a heavily disordered order (reversed, so the
// scan gives up) allocates nothing.
func TestSortOrderByMinXKeyedZeroAlloc(t *testing.T) {
	const n = 4096
	rng := rand.New(rand.NewSource(13))
	rects := make([]Rect, n)
	order := make([]int32, n)
	for i := range rects {
		rects[i] = randomRect(rng)
		order[i] = int32(i)
	}
	ka, kb := make([]uint64, n), make([]uint64, n)
	scratch := make([]int32, n/repairMaxFrac+1)
	if _, d := sortOrderRepair(rects, order, scratch, ka, kb); d != -1 {
		t.Fatalf("random order: scan extracted %d elements, want the full sort", d)
	}
	allocs := testing.AllocsPerRun(20, func() {
		slices.Reverse(order)
		scratch = SortOrderByMinXKeyed(rects, order, scratch, ka, kb)
	})
	if allocs != 0 {
		t.Fatalf("keyed full sort allocated %.1f times per run, want 0", allocs)
	}
	if !orderIsSorted(rects, order) {
		t.Fatal("order not sorted after the keyed full sort")
	}
}

// TestRepairScanSingleMove pins the scan's displaced count — not its time —
// for the two one-rect disturbances: a rect whose key shrank and a rect
// whose key grew each cost at most two extracted elements. Before the scan
// evicted a kept outlier, the second classed everything between the rect's
// old and new position as displaced and fell to a full sort.
func TestRepairScanSingleMove(t *testing.T) {
	const n = 4096
	rng := rand.New(rand.NewSource(19))
	rects := make([]Rect, n)
	order := make([]int32, n)
	for i := range rects {
		rects[i] = randomRect(rng)
		order[i] = int32(i)
	}
	quickSortOrder(rects, order)
	for name, move := range map[string][2]int{"key grew": {100, 3000}, "key shrank": {3000, 100}} {
		moved := append([]Rect(nil), rects...)
		from, to := order[move[0]], order[move[1]]
		w := moved[from].MaxX - moved[from].MinX
		moved[from].MinX = moved[to].MinX
		moved[from].MaxX = moved[from].MinX + w
		got := append([]int32(nil), order...)
		_, d := sortOrderRepair(moved, got, nil, nil, nil)
		if d < 1 || d > 2 {
			t.Errorf("%s: scan extracted %d elements, want 1 or 2", name, d)
		}
		want := append([]int32(nil), order...)
		quickSortOrder(moved, want)
		if !slices.Equal(got, want) {
			t.Errorf("%s: repaired order differs from the comparison sort's", name)
		}
	}
}

func TestSortOrderByMinXLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 47, 48, 49, 100, 1000, 5000} {
		rects := make([]Rect, n)
		order := make([]int32, n)
		for i := range rects {
			rects[i] = randomRect(rng)
			order[i] = int32(i)
		}
		checkSortOrder(t, rects, order)

		// Heavy ties: every rect shares MinX, exercising the MinY and
		// index tiebreaks through the quicksort path.
		tied := make([]Rect, n)
		for i := range tied {
			tied[i] = NewRect(1, float64(i%7), 2, 10)
		}
		checkSortOrder(t, tied, order)

		// Already sorted (the adaptive fast path) and reverse sorted.
		sorted := append([]int32(nil), order...)
		SortOrderByMinX(rects, sorted)
		checkSortOrder(t, rects, sorted)
		rev := make([]int32, n)
		for i := range rev {
			rev[i] = sorted[n-1-i]
		}
		checkSortOrder(t, rects, rev)
	}
}

// paperScaleN is the larger side of the paper's join (131,443 street MBRs).
const paperScaleN = 131443

// BenchmarkSortOrderCold is the cold join's global sort of one side at paper
// scale: identity order over unsorted rects, resident buffers.
func BenchmarkSortOrderCold(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	rects := make([]Rect, paperScaleN)
	for i := range rects {
		rects[i] = randomRect(rng)
	}
	order := make([]int32, len(rects))
	ka, kb := make([]uint64, len(rects)), make([]uint64, len(rects))
	var scratch []int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range order {
			order[j] = int32(j)
		}
		scratch = SortOrderByMinXKeyed(rects, order, scratch, ka, kb)
	}
}
