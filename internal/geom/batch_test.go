package geom

import (
	"math"
	"math/rand"
	"testing"
)

// The batch contract of IntersectBatchPlanes over hand-built adversarial
// inputs; kernels_test.go holds the dispatch and view tests.

// maskBit reads bit i of a bitmask written by IntersectBatchPlanes.
func maskBit(mask []uint64, i int) bool {
	return mask[i>>6]>>(uint(i)&63)&1 != 0
}

// batchMask runs IntersectBatchPlanes of q over rects into a fresh mask.
func batchMask(q Rect, rects []Rect) ([]uint64, int) {
	var p Planes
	p.FromRects(rects)
	mask := make([]uint64, MaskWords(len(rects)))
	return mask, IntersectBatchPlanes(q, &p, mask)
}

// TestIntersectBatchRandom: random queries against random blocks, on a
// seed of its own (TestIntersectBatchPlanesRandom runs seed 7).
func TestIntersectBatchRandom(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(19))
		for trial := 0; trial < 200; trial++ {
			rects := make([]Rect, rng.Intn(200))
			for i := range rects {
				rects[i] = randomRect(rng)
			}
			checkPlanesAgainstScalar(t, randomRect(rng), rects)
		}
	})
}

// TestIntersectBatchTouchingEdges pins the closed-rectangle semantics on
// adversarial inputs where the query and the rects share only an edge or a
// corner, or miss by the smallest representable amount.
func TestIntersectBatchTouchingEdges(t *testing.T) {
	q := NewRect(10, 10, 20, 20)
	eps := math.Nextafter(0, 1)
	rects := []Rect{
		NewRect(0, 0, 10, 10),                       // corner touch at (10,10)
		NewRect(20, 20, 30, 30),                     // corner touch at (20,20)
		NewRect(0, 10, 10, 20),                      // left edge touch
		NewRect(20, 10, 30, 20),                     // right edge touch
		NewRect(10, 0, 20, 10),                      // bottom edge touch
		NewRect(10, 20, 20, 30),                     // top edge touch
		NewRect(0, 0, 10-eps, 10),                   // miss by one ulp in x
		NewRect(0, 0, 10, 10-eps),                   // miss by one ulp in y
		NewRect(math.Nextafter(20, 21), 10, 30, 20), // miss past right edge
		NewRect(10, math.Nextafter(20, 21), 20, 30), // miss past top edge
		{MinX: 15, MinY: 15, MaxX: 15, MaxY: 15},    // degenerate point inside
		{MinX: 20, MinY: 20, MaxX: 20, MaxY: 20},    // degenerate point on corner
		{MinX: 9, MinY: 9, MaxX: 9, MaxY: 9},        // degenerate point outside
		NewRect(-1e300, -1e300, 1e300, 1e300),       // enormous cover-all
		NewRect(10, 10, 20, 20),                     // exact duplicate of q
	}
	eachKernel(t, func(t *testing.T) {
		checkPlanesAgainstScalar(t, q, rects)
		// Symmetric direction: each rect as the query against the rest.
		for _, r := range rects {
			checkPlanesAgainstScalar(t, r, rects)
		}
	})
}

// TestIntersectBatchNaNAndEmpty pins the degenerate-input contract: NaN
// coordinates and the canonical EmptyRect never match on either side, and
// finite inverted rectangles behave exactly like the scalar predicate
// (which can report them as intersecting when both coordinate ranges
// overlap).
func TestIntersectBatchNaNAndEmpty(t *testing.T) {
	nan := math.NaN()
	good := NewRect(0, 0, 100, 100)
	never := []Rect{
		{MinX: nan, MinY: 0, MaxX: 10, MaxY: 10},
		{MinX: 0, MinY: nan, MaxX: 10, MaxY: 10},
		{MinX: 0, MinY: 0, MaxX: nan, MaxY: 10},
		{MinX: 0, MinY: 0, MaxX: 10, MaxY: nan},
		{MinX: nan, MinY: nan, MaxX: nan, MaxY: nan},
		EmptyRect(),
	}
	inverted := []Rect{
		{MinX: 10, MinY: 0, MaxX: 0, MaxY: 10}, // inverted x, ranges overlap good
		{MinX: 0, MinY: 10, MaxX: 10, MaxY: 0}, // inverted y, ranges overlap good
	}
	all := append(append(append([]Rect{}, never...), inverted...), good)

	// The NaN/EmptyRect bits stay zero in the batch; everything, inverted
	// rects included, agrees with the scalar predicate bit for bit.
	eachKernel(t, func(t *testing.T) {
		mask, _ := batchMask(good, all)
		for i := range never {
			if maskBit(mask, i) {
				t.Fatalf("NaN/empty rect %v matched", all[i])
			}
		}
		if !maskBit(mask, len(all)-1) {
			t.Fatal("valid rect bit not set")
		}
		checkPlanesAgainstScalar(t, good, all)

		// NaN/EmptyRect as the query: nothing matches, ever.
		for _, q := range never {
			if _, n := batchMask(q, all); n != 0 {
				t.Fatalf("query %v matched %d rects, want 0", q, n)
			}
			checkPlanesAgainstScalar(t, q, all)
		}
		for _, q := range inverted {
			checkPlanesAgainstScalar(t, q, all)
		}
	})
}

// TestIntersectBatchSizes covers multi-word blocks whose tails straddle the
// 64-bit words, with a cover-all query so every bit is set.
func TestIntersectBatchSizes(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		for _, n := range []int{191, 192, 193, 255, 256, 257, 1000} {
			rects := make([]Rect, n)
			for i := range rects {
				rects[i] = randomRect(rng)
			}
			checkPlanesAgainstScalar(t, NewRect(-1, -1, 200, 200), rects)
			if _, got := batchMask(NewRect(-1, -1, 200, 200), rects); got != n {
				t.Fatalf("n=%d: cover-all query matched %d", n, got)
			}
		}
	})
}
