package geom

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// eachKernel runs fn once per selectable kernel path, restoring auto
// dispatch afterwards. On a purego build (or a CPU without AVX2) both
// subtests exercise the scalar path — which is exactly the point: the
// contract must hold wherever the test runs.
func eachKernel(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	defer SetKernel("auto")
	for _, mode := range []string{"auto", "purego"} {
		if err := SetKernel(mode); err != nil {
			t.Fatal(err)
		}
		t.Run("kernel="+mode, fn)
	}
}

// degenerateRects is the adversarial input set shared by the planes tests:
// NaN coordinates in every slot, the canonical EmptyRect, finite inverted
// rects, touching edges and one-ulp misses around a [10,20]² query.
func degenerateRects() []Rect {
	nan := math.NaN()
	eps := math.Nextafter(0, 1)
	return []Rect{
		{MinX: nan, MinY: 0, MaxX: 10, MaxY: 10},
		{MinX: 0, MinY: nan, MaxX: 10, MaxY: 10},
		{MinX: 0, MinY: 0, MaxX: nan, MaxY: 10},
		{MinX: 0, MinY: 0, MaxX: 10, MaxY: nan},
		{MinX: nan, MinY: nan, MaxX: nan, MaxY: nan},
		EmptyRect(),
		{MinX: 15, MinY: 0, MaxX: 5, MaxY: 30},  // inverted x over the query
		{MinX: 0, MinY: 18, MaxX: 30, MaxY: 12}, // inverted y over the query
		NewRect(0, 0, 10, 10),                   // corner touch at (10,10)
		NewRect(20, 20, 30, 30),                 // corner touch at (20,20)
		NewRect(0, 10, 10, 20),                  // edge touch
		NewRect(0, 0, 10-eps, 10),               // one-ulp miss in x
		NewRect(10, math.Nextafter(20, 21), 20, 30),
		NewRect(-1e300, -1e300, 1e300, 1e300), // enormous cover-all
		NewRect(10, 10, 20, 20),               // exact query duplicate
	}
}

// checkPlanesAgainstScalar asserts IntersectBatchPlanes agrees bit for bit
// with the scalar Intersects predicate on the active kernel path.
func checkPlanesAgainstScalar(t *testing.T, q Rect, rects []Rect) {
	t.Helper()
	var p Planes
	p.FromRects(rects)
	mask := make([]uint64, MaskWords(len(rects)))
	for i := range mask {
		mask[i] = ^uint64(0) // poison: words must be fully overwritten
	}
	n := IntersectBatchPlanes(q, &p, mask)
	want := 0
	for i, r := range rects {
		scalar := q.Intersects(r)
		if scalar {
			want++
		}
		if maskBit(mask, i) != scalar {
			t.Fatalf("bit %d: planes=%v scalar=%v (q=%v r=%v)", i, maskBit(mask, i), scalar, q, r)
		}
	}
	if n != want {
		t.Fatalf("IntersectBatchPlanes returned %d, scalar count %d", n, want)
	}
	if len(rects)&63 != 0 && len(mask) > 0 {
		if last := mask[len(mask)-1]; last>>(uint(len(rects))&63) != 0 {
			t.Fatalf("trailing bits of last word not zero: %064b", last)
		}
	}
}

// gatherPlanes fills dst with src's rectangles at the selected indices.
func gatherPlanes(dst, src *Planes, sel []int32) {
	dst.Reset(len(sel))
	for i, s := range sel {
		dst.SetRect(i, src.RectAt(int(s)))
	}
}

func TestIntersectBatchPlanesRandom(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 200; trial++ {
			n := rng.Intn(200)
			rects := make([]Rect, n)
			for i := range rects {
				rects[i] = randomRect(rng)
			}
			checkPlanesAgainstScalar(t, randomRect(rng), rects)
		}
	})
}

// TestIntersectBatchPlanesSizes covers lengths straddling the 4-lane
// vector groups, the scalar remainder, and the 64-bit word boundary.
func TestIntersectBatchPlanesSizes(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 31, 32, 63, 64, 65, 67, 127, 128, 129, 200} {
			rects := make([]Rect, n)
			for i := range rects {
				rects[i] = randomRect(rng)
			}
			checkPlanesAgainstScalar(t, NewRect(20, 20, 80, 80), rects)
		}
	})
}

// TestIntersectBatchPlanesDegenerate pins the NaN/EmptyRect/inverted/
// touching-edge contract on both kernel paths, in both query directions.
func TestIntersectBatchPlanesDegenerate(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		all := degenerateRects()
		checkPlanesAgainstScalar(t, NewRect(10, 10, 20, 20), all)
		for _, r := range all {
			checkPlanesAgainstScalar(t, r, all)
		}
	})
}

// TestSweepPairsPlanesOracle pins SweepPairsPlanes and SweepPairsPlanesDense
// to the scalar index-view sweep: identical pair sets, pair order, and
// comparison counts (the simulated cost model depends on the count, so the
// kernels must not drift by a single test), on both kernel paths, across
// sizes straddling the remainder boundaries.
func TestSweepPairsPlanesOracle(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(41))
		for trial := 0; trial < 120; trial++ {
			nr, ns := rng.Intn(70), rng.Intn(70)
			rs := make([]Rect, nr)
			ss := make([]Rect, ns)
			for i := range rs {
				rs[i] = randomRect(rng)
			}
			for i := range ss {
				ss[i] = randomRect(rng)
			}
			if trial%5 == 0 { // mix in degenerate rects
				for _, d := range degenerateRects() {
					if len(rs) > 0 && rng.Intn(2) == 0 {
						rs[rng.Intn(len(rs))] = d
					}
					if len(ss) > 0 {
						ss[rng.Intn(len(ss))] = d
					}
				}
			}
			checkSweepPlanesOracle(t, rs, ss)
		}
	})
}

// checkSweepPlanesOracle checks both planes kernels on one input against
// sweepIndexed on the same sweep orders: same pairs, same emission order,
// same comparison count. Degenerate rects are fair game — the kernels must
// match the scalar sweep on them too.
func checkSweepPlanesOracle(t *testing.T, rs, ss []Rect) {
	t.Helper()
	ri, si := sweepOrders(rs, ss)
	wantPairs, wantComps := sweepIndexed(rs, ss, ri, si)
	var rp, sp Planes
	rp.FromRects(rs)
	sp.FromRects(ss)
	gotPairs, gotComps := SweepPairsPlanes(&rp, &sp, ri, si, nil)
	if gotComps != wantComps {
		t.Fatalf("comparisons: planes=%d scalar=%d", gotComps, wantComps)
	}
	if len(gotPairs) != len(wantPairs) {
		t.Fatalf("pairs: planes=%d scalar=%d", len(gotPairs), len(wantPairs))
	}
	for i := range gotPairs {
		if gotPairs[i] != wantPairs[i] {
			t.Fatalf("pair %d: planes=%v scalar=%v", i, gotPairs[i], wantPairs[i])
		}
	}
	// Dense variant: the same sweep in position space over planes gathered
	// into sweep order; position pairs map back through the orders.
	var rd, sd Planes
	gatherPlanes(&rd, &rp, ri)
	gatherPlanes(&sd, &sp, si)
	densePairs, denseComps := SweepPairsPlanesDense(&rd, &sd, nil)
	if denseComps != wantComps {
		t.Fatalf("dense comparisons: %d != %d", denseComps, wantComps)
	}
	if len(densePairs) != len(wantPairs) {
		t.Fatalf("dense pairs: %d != %d", len(densePairs), len(wantPairs))
	}
	for i, h := range densePairs {
		if got := (IndexPair{R: ri[h.R], S: si[h.S]}); got != wantPairs[i] {
			t.Fatalf("dense pair %d: %v (mapped %v) != %v", i, h, got, wantPairs[i])
		}
	}
}

// checkDenseOracle runs SweepPairsPlanesDense over rs and ss exactly as
// laid out (no sort: every rect sits in the lane the test put it in) and
// requires the scalar oracle's pairs, pair order and comparison count over
// identity orders. The output goes behind a prefix of sentinel pairs in a
// buffer too small for the result, so the vector scan's output growth
// runs too, and the prefix must survive.
func checkDenseOracle(t *testing.T, rs, ss []Rect) {
	t.Helper()
	want, wantComps := sweepIndexed(rs, ss, identity32(len(rs)), identity32(len(ss)))
	var rp, sp Planes
	rp.FromRects(rs)
	sp.FromRects(ss)
	for _, prefix := range []int{0, 3} {
		out := make([]IndexPair, prefix, prefix+5)
		for i := range out {
			out[i] = IndexPair{R: -1, S: -1}
		}
		got, comps := SweepPairsPlanesDense(&rp, &sp, out)
		if comps != wantComps {
			t.Fatalf("prefix %d: comparisons %d, scalar %d", prefix, comps, wantComps)
		}
		if len(got) != prefix+len(want) {
			t.Fatalf("prefix %d: %d pairs, scalar %d", prefix, len(got)-prefix, len(want))
		}
		for i := range got[:prefix] {
			if got[i] != (IndexPair{R: -1, S: -1}) {
				t.Fatalf("prefix %d: sentinel %d overwritten with %v", prefix, i, got[i])
			}
		}
		for i, h := range got[prefix:] {
			if h != want[i] {
				t.Fatalf("prefix %d: pair %d is %v, scalar %v", prefix, i, h, want[i])
			}
		}
	}
}

// TestSweepDenseBlockEdges drives the dense sweep's scans across the
// vector scan's block edges: every scan length from 0 to 24 lanes (so the
// break falls at lane 0, 7, 8, 9, 15, 16 and everywhere between), views
// that end before, at and after the break, scans starting at every offset
// into the other side, and both sides as the sweep side. Pair order and
// comparison count must equal the scalar oracle's exactly.
func TestSweepDenseBlockEdges(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		for b := 0; b <= 24; b++ {
			for n := max(b-2, 0); n <= b+10; n++ {
				// One R rect scanning S lanes 0..n-1 at MinX 1..n: the
				// first b start within its MaxX, lane b (if any) past it.
				// S's y-extents cycle through hit, hit, miss.
				r := []Rect{NewRect(0, 0.5, float64(b)+0.5, 1.5)}
				s := make([]Rect, n)
				for k := range s {
					x, y := float64(k+1), float64(k%3)
					s[k] = NewRect(x, y, x+0.5, y+1)
				}
				checkDenseOracle(t, r, s)
				checkDenseOracle(t, s, r)
				// Staggered: R rect m starts between S lanes m and m+1 and
				// scans b of them from offset m+1, so the scans start at
				// every alignment.
				rs := make([]Rect, n)
				for m := range rs {
					x := float64(m) + 1.5
					rs[m] = NewRect(x, 0.5, x+float64(b), 1.5)
				}
				checkDenseOracle(t, rs, s)
				checkDenseOracle(t, s, rs)
			}
		}
	})
}

// TestSweepDenseEqualKeys runs scans through runs of equal MinX, with +0
// and −0 mixed in the keys and in the sweep rect's MaxX: −0 > +0 is false,
// so a run of zero keys stays in range for a zero MaxX of either sign.
func TestSweepDenseEqualKeys(t *testing.T) {
	negZero := math.Copysign(0, -1)
	eachKernel(t, func(t *testing.T) {
		for _, n := range []int{7, 8, 9, 16, 20} {
			for _, maxX := range []float64{0, negZero} {
				s := make([]Rect, n+4)
				for k := range s {
					x := 0.0
					if k%2 == 1 {
						x = negZero
					}
					if k >= n { // the run ends: keys past any zero MaxX
						x = 1
					}
					s[k] = Rect{MinX: x, MinY: float64(k % 3), MaxX: x + 1, MaxY: float64(k%3) + 1}
				}
				var r []Rect
				for m := 0; m < 3; m++ { // equal keys on the sweep side too
					r = append(r, Rect{MinX: negZero, MinY: 0.5, MaxX: maxX, MaxY: 1.5})
				}
				checkDenseOracle(t, r, s)
				checkDenseOracle(t, s, r)
			}
		}
	})
}

// TestSweepDenseSpecials puts NaN, +Inf and −Inf into each coordinate of
// one scanned lane, at positions around the block edges, and into each
// coordinate of the sweep rect. A NaN key never stops a scan (NaN > MaxX
// is false), +Inf stops it and −Inf does not; a NaN in the sweep rect's
// MaxX keeps the scan going to the view's end, as the scalar loop does.
func TestSweepDenseSpecials(t *testing.T) {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	// 32 S lanes at MinX 0..31; the sweep rect reaches MinX 20.5, so the
	// scan breaks at lane 21.
	base := func() (r, s []Rect) {
		s = make([]Rect, 32)
		for k := range s {
			x, y := float64(k), float64(k%3)
			s[k] = NewRect(x, y, x+1, y+1)
		}
		return []Rect{NewRect(0, 0.5, 20.5, 1.5)}, s
	}
	eachKernel(t, func(t *testing.T) {
		for _, v := range specials {
			for c := 0; c < 4; c++ {
				for _, p := range []int{0, 1, 7, 8, 9, 15, 16, 20, 21, 22, 31} {
					r, s := base()
					setCoord(&s[p], c, v)
					checkDenseOracle(t, r, s)
					checkDenseOracle(t, s, r)
				}
				r, s := base()
				setCoord(&r[0], c, v)
				checkDenseOracle(t, r, s)
				checkDenseOracle(t, s, r)
			}
		}
		// The NaN MaxX case on its own: one scan over all 32 lanes.
		r, s := base()
		r[0].MaxX = math.NaN()
		var rp, sp Planes
		rp.FromRects(r)
		sp.FromRects(s)
		if _, comps := SweepPairsPlanesDense(&rp, &sp, nil); comps != len(s) {
			t.Fatalf("NaN MaxX: %d comparisons, want a scan over all %d lanes", comps, len(s))
		}
	})
}

// mergeStates replays the dense sweep's event merge over two ascending key
// sequences — the R event first on equal keys, the rest of one side once
// the other is exhausted — and returns the state (i, j) after each of the
// len(rMinX)+len(sMinX) events, the state before the first at index 0.
func mergeStates(rMinX, sMinX []float64) [][2]int {
	states := [][2]int{{0, 0}}
	i, j := 0, 0
	for i < len(rMinX) || j < len(sMinX) {
		if i < len(rMinX) && (j == len(sMinX) || rMinX[i] <= sMinX[j]) {
			i++
		} else {
			j++
		}
		states = append(states, [2]int{i, j})
	}
	return states
}

// checkDenseSplit sweeps rs against ss (brought into sweep order) whole and
// then as the event ranges between the merge states MergeSplit finds at the
// given ascending cut positions: the ranges' pairs, concatenated, must be
// the whole sweep's in the same order, and their comparisons must sum to
// the whole sweep's count. Each MergeSplit state must be the merge's own.
func checkDenseSplit(t *testing.T, rs, ss []Rect, cuts []int) {
	t.Helper()
	ri, si := sweepOrders(rs, ss)
	var rp, sp, rd, sd Planes
	rp.FromRects(rs)
	sp.FromRects(ss)
	gatherPlanes(&rd, &rp, ri)
	gatherPlanes(&sd, &sp, si)
	want, wantComps := SweepPairsPlanesDense(&rd, &sd, nil)
	states := mergeStates(rd.MinX, sd.MinX)
	var got []IndexPair
	comps := 0
	i0, j0 := 0, 0
	for _, p := range append(cuts, len(rs)+len(ss)) {
		i1, j1 := MergeSplit(rd.MinX, sd.MinX, p)
		if st := states[p]; i1 != st[0] || j1 != st[1] {
			t.Fatalf("MergeSplit(p=%d) = (%d, %d), the merge passes (%d, %d)", p, i1, j1, st[0], st[1])
		}
		var c int
		got, c = SweepPairsPlanesDenseRange(&rd, &sd, i0, i1, j0, j1, got)
		comps += c
		i0, j0 = i1, j1
	}
	if comps != wantComps {
		t.Fatalf("cuts %v: %d comparisons, the whole sweep %d", cuts, comps, wantComps)
	}
	if len(got) != len(want) {
		t.Fatalf("cuts %v: %d pairs, the whole sweep %d", cuts, len(got), len(want))
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("cuts %v: pair %d is %v, the whole sweep's %v", cuts, k, got[k], want[k])
		}
	}
}

// splitRects draws n rects on a coarse lattice, so MinX runs of equal keys
// are common; every few rects are swapped for a special: a ±0 key, a −Inf
// key, a +Inf key, or EmptyRect.
func splitRects(rng *rand.Rand, n int) []Rect {
	negZero := math.Copysign(0, -1)
	inf := math.Inf(1)
	out := make([]Rect, n)
	for k := range out {
		x, y := float64(rng.Intn(12)), float64(rng.Intn(12))
		out[k] = NewRect(x, y, x+float64(rng.Intn(6)), y+float64(rng.Intn(6)))
		switch rng.Intn(16) {
		case 0:
			out[k].MinX = 0
		case 1:
			out[k].MinX = negZero
		case 2:
			out[k].MinX = -inf
		case 3:
			out[k] = Rect{MinX: inf, MinY: y, MaxX: inf, MaxY: y + 1}
		case 4:
			out[k] = EmptyRect()
		}
	}
	return out
}

// TestSweepDenseRanges pins the range sweep's exactness: on random inputs
// with runs of equal keys, ±0, ±Inf and EmptyRect lanes, sweeping the event
// ranges between one to eight random cuts — and between cuts at every event
// — gives exactly the whole sweep's pairs, order and comparison count.
func TestSweepDenseRanges(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(83))
		for round := 0; round < 200; round++ {
			rs := splitRects(rng, rng.Intn(60))
			ss := splitRects(rng, rng.Intn(60))
			n := len(rs) + len(ss)
			cuts := make([]int, 1+rng.Intn(8))
			for k := range cuts {
				cuts[k] = rng.Intn(n + 1)
			}
			slices.Sort(cuts)
			checkDenseSplit(t, rs, ss, cuts)
			every := make([]int, n+1)
			for p := range every {
				every[p] = p
			}
			checkDenseSplit(t, rs, ss, every)
		}
	})
}

// TestMergeSplitEdges covers MergeSplit's corners: the first and the last
// state, one side empty, and all keys equal (the R events come first).
func TestMergeSplitEdges(t *testing.T) {
	keys := []float64{1, 2, 2, 3, 5}
	for _, tc := range []struct {
		name      string
		r, s      []float64
		p, wi, wj int
	}{
		{"p=0", keys, keys, 0, 0, 0},
		{"p=n", keys, keys, 10, 5, 5},
		{"both empty", nil, nil, 0, 0, 0},
		{"R empty", nil, keys, 3, 0, 3},
		{"S empty", keys, nil, 4, 4, 0},
		{"all equal, R first", []float64{7, 7, 7}, []float64{7, 7}, 2, 2, 0},
		{"all equal, R done", []float64{7, 7, 7}, []float64{7, 7}, 4, 3, 1},
		{"equal run across sides", []float64{1, 2, 2}, []float64{2, 2, 3}, 3, 3, 0},
		{"S before R", []float64{4, 5}, []float64{1, 2}, 2, 0, 2},
	} {
		if i, j := MergeSplit(tc.r, tc.s, tc.p); i != tc.wi || j != tc.wj {
			t.Errorf("%s: MergeSplit(p=%d) = (%d, %d), want (%d, %d)", tc.name, tc.p, i, j, tc.wi, tc.wj)
		}
		st := mergeStates(tc.r, tc.s)[tc.p]
		if st != [2]int{tc.wi, tc.wj} {
			t.Errorf("%s: the merge passes %v at p=%d, the table says (%d, %d)", tc.name, st, tc.p, tc.wi, tc.wj)
		}
	}
}

// TestPlanesSetRectQuantSync verifies a point mutation leaves a Planes in
// sync with one built fresh from the same rects: every coordinate plane
// matches lane for lane, and the batch kernel gives the same mask.
func TestPlanesSetRectQuantSync(t *testing.T) {
	var p Planes
	p.FromRects([]Rect{NewRect(0, 0, 1, 1), NewRect(2, 2, 3, 3)})
	moved := NewRect(40, 40, 60, 60)
	p.SetRect(1, moved)
	var fresh Planes
	fresh.FromRects([]Rect{NewRect(0, 0, 1, 1), moved})
	for i := 0; i < 2; i++ {
		if p.MinX[i] != fresh.MinX[i] || p.MinY[i] != fresh.MinY[i] ||
			p.MaxX[i] != fresh.MaxX[i] || p.MaxY[i] != fresh.MaxY[i] {
			t.Fatalf("lane %d planes diverge after SetRect", i)
		}
	}
	if p.RectAt(1) != moved {
		t.Fatalf("RectAt(1) = %v, want %v", p.RectAt(1), moved)
	}
	q := NewRect(50, 50, 70, 70)
	got := []uint64{^uint64(0)}
	want := []uint64{^uint64(0)}
	ng := IntersectBatchPlanes(q, &p, got)
	nw := IntersectBatchPlanes(q, &fresh, want)
	if ng != 1 || nw != 1 || got[0] != want[0] || !maskBit(got, 1) || maskBit(got, 0) {
		t.Fatalf("mask after SetRect = %b (n=%d), fresh %b (n=%d)", got[0], ng, want[0], nw)
	}
}

// TestPlanesView pins the zero-copy subrange view: the batch kernel over a
// view must agree with the scalar predicate over the corresponding rect
// subslice, for spans straddling word and vector-group boundaries, and a
// SetRect on the parent must read back exactly, through the view too.
func TestPlanesView(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(77))
		rects := make([]Rect, 150)
		for i := range rects {
			rects[i] = randomRect(rng)
		}
		var p Planes
		p.FromRects(rects)
		q := NewRect(20, 20, 80, 80)
		for _, span := range [][2]int{{0, 150}, {10, 74}, {64, 150}, {37, 37}, {149, 150}, {3, 68}} {
			v := p.View(span[0], span[1])
			sub := rects[span[0]:span[1]]
			if v.Len() != len(sub) {
				t.Fatalf("view %v: len=%d", span, v.Len())
			}
			mask := make([]uint64, MaskWords(v.Len()))
			for i := range mask {
				mask[i] = ^uint64(0)
			}
			n := IntersectBatchPlanes(q, &v, mask)
			want := 0
			for i, r := range sub {
				scalar := q.Intersects(r)
				if scalar {
					want++
				}
				if maskBit(mask, i) != scalar {
					t.Fatalf("view %v bit %d: planes=%v scalar=%v", span, i, maskBit(mask, i), scalar)
				}
			}
			if n != want {
				t.Fatalf("view %v: count %d != %d", span, n, want)
			}
		}
		v := p.View(10, 74)
		moved := NewRect(40, 40, 60, 60)
		p.SetRect(11, moved)
		if p.RectAt(11) != moved || v.RectAt(1) != moved {
			t.Fatalf("after SetRect: RectAt = %v, view %v, want %v", p.RectAt(11), v.RectAt(1), moved)
		}
	})
}

func TestKernelDispatch(t *testing.T) {
	defer SetKernel("auto")
	if err := SetKernel("purego"); err != nil {
		t.Fatal(err)
	}
	if got := KernelName(); got != "purego" {
		t.Fatalf("KernelName after purego = %q", got)
	}
	if err := SetKernel("bogus"); err == nil {
		t.Fatal("SetKernel(bogus) did not error")
	}
	if err := SetKernel("auto"); err != nil {
		t.Fatal(err)
	}
	name := KernelName()
	if name != "avx2" && name != "purego" {
		t.Fatalf("KernelName = %q", name)
	}
}

func FuzzIntersectBatchPlanes(f *testing.F) {
	f.Add([]byte{3, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		defer SetKernel("auto")
		rs, ss := fuzzRects(data)
		all := append(rs, ss...)
		if len(all) == 0 {
			return
		}
		q := all[0]
		var p Planes
		p.FromRects(all)
		var ref []uint64
		for _, mode := range []string{"auto", "purego"} {
			SetKernel(mode)
			mask := make([]uint64, MaskWords(len(all)))
			n := IntersectBatchPlanes(q, &p, mask)
			want := 0
			for i, r := range all {
				scalar := q.Intersects(r)
				if scalar {
					want++
				}
				if maskBit(mask, i) != scalar {
					t.Fatalf("%s: bit %d disagrees with scalar", mode, i)
				}
			}
			if n != want {
				t.Fatalf("%s: count %d != %d", mode, n, want)
			}
			if ref == nil {
				ref = mask
			} else {
				for i := range mask {
					if mask[i] != ref[i] {
						t.Fatalf("kernel paths disagree at word %d", i)
					}
				}
			}
		}
	})
}

// FuzzSweepPairsPlanes checks both sweep kernels on both kernel paths:
// finite rects against the scalar sweep and brute force, then the same
// rects with NaN, ±Inf or −0 coordinates injected against the scalar sweep
// alone (a NaN key has no sweep order, so brute force does not apply).
// The rects are wide enough for scans of many lanes, so the vector scan
// runs (see fuzzSweepRects). Wherever the rects hold no NaN, the dense
// sweep is also run as event ranges between the cuts the split byte picks
// (checkDenseSplit).
func FuzzSweepPairsPlanes(f *testing.F) {
	f.Add([]byte{3, 1, 5, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0})
	long := []byte{40, 0x25, 0x93}
	for i := 0; i < 80; i++ {
		long = append(long, byte(i*5), byte(i*11), byte(i*13), byte(i*7))
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		defer SetKernel("auto")
		rs, ss, sel, split := fuzzSweepRects(data)
		cuts := splitCuts(split, len(rs)+len(ss))
		for _, mode := range []string{"auto", "purego"} {
			if err := SetKernel(mode); err != nil {
				t.Fatal(err)
			}
			checkSweepAgainstOracles(t, rs, ss)
			checkDenseSplit(t, rs, ss, cuts)
		}
		injectSpecials(rs, sel)
		injectSpecials(ss, sel>>1)
		for _, mode := range []string{"auto", "purego"} {
			if err := SetKernel(mode); err != nil {
				t.Fatal(err)
			}
			checkSweepPlanesOracle(t, rs, ss)
			if !hasNaN(rs) && !hasNaN(ss) {
				checkDenseSplit(t, rs, ss, cuts)
			}
		}
	})
}

// fuzzSweepRects decodes a sweep fuzz payload: byte 0 picks how many rects
// go to R, byte 1 is the special-value selector for injectSpecials, byte 2
// the split byte for splitCuts, and every further 4 bytes are one rect on a
// 64×64 integer grid with extents under 32 — up to 128 rects, so a side
// holds up to 64 and a scan often covers eight lanes or more.
func fuzzSweepRects(data []byte) (rs, ss []Rect, sel, split byte) {
	if len(data) < 3 {
		return nil, nil, 0, 0
	}
	nr, sel, split := int(data[0])%65, data[1], data[2]
	var all []Rect
	for data = data[3:]; len(data) >= 4 && len(all) < 128; data = data[4:] {
		x, y := float64(data[0]%64), float64(data[1]%64)
		all = append(all, NewRect(x, y, x+float64(data[2]%32), y+float64(data[3]%32)))
	}
	nr = min(nr, len(all))
	return all[:nr], all[nr:], sel, split
}

// splitCuts derives one to eight ascending cut positions in [0, n] from the
// split byte: its low three bits give the count, the byte seeds the spread.
func splitCuts(split byte, n int) []int {
	cuts := make([]int, 1+int(split&7))
	for k := range cuts {
		cuts[k] = (int(split) + 1) * (2*k + 1) * 37 % (n + 1)
	}
	slices.Sort(cuts)
	return cuts
}

// hasNaN reports whether any coordinate of any rect is NaN.
func hasNaN(rects []Rect) bool {
	for _, r := range rects {
		if r.MinX != r.MinX || r.MinY != r.MinY || r.MaxX != r.MaxX || r.MaxY != r.MaxY {
			return true
		}
	}
	return false
}

// injectSpecials overwrites one coordinate of every few rects with a
// special value. sel's low two bits pick the value (NaN, +Inf, −Inf, −0),
// the next two the coordinate, and the high four the spacing; sel == 0
// leaves the rects finite.
func injectSpecials(rects []Rect, sel byte) {
	if sel == 0 {
		return
	}
	v := [...]float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}[sel&3]
	for k := int(sel>>4) % 3; k < len(rects); k += int(sel>>4) + 1 {
		setCoord(&rects[k], int(sel>>2)&3, v)
	}
}

// setCoord sets coordinate c of r (0 MinX, 1 MinY, 2 MaxX, 3 MaxY) to v.
func setCoord(r *Rect, c int, v float64) {
	switch c {
	case 0:
		r.MinX = v
	case 1:
		r.MinY = v
	case 2:
		r.MaxX = v
	default:
		r.MaxY = v
	}
}

func BenchmarkIntersectBatchPlanes(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	rects := make([]Rect, 128)
	for i := range rects {
		rects[i] = randomRect(rng)
	}
	var p Planes
	p.FromRects(rects)
	q := NewRect(25, 25, 75, 75)
	mask := make([]uint64, MaskWords(p.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		IntersectBatchPlanes(q, &p, mask)
	}
}

func BenchmarkSweepPairsPlanes(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	const n = 256
	rs := make([]Rect, n)
	ss := make([]Rect, n)
	for i := range rs {
		rs[i] = randomRect(rng)
		ss[i] = randomRect(rng)
	}
	ri := make([]int32, n)
	si := make([]int32, n)
	for i := range ri {
		ri[i], si[i] = int32(i), int32(i)
	}
	SortOrderByMinX(rs, ri)
	SortOrderByMinX(ss, si)
	var rp, sp Planes
	rp.FromRects(rs)
	sp.FromRects(ss)
	out := make([]IndexPair, 0, 4*n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _ = SweepPairsPlanes(&rp, &sp, ri, si, out[:0])
	}
}

// BenchmarkSweepPairsPlanesDense is the position-space sweep the partition
// join runs per tile: both sides gathered into sweep order, no index
// indirection.
func BenchmarkSweepPairsPlanesDense(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	const n = 256
	rs := make([]Rect, n)
	ss := make([]Rect, n)
	for i := range rs {
		rs[i] = randomRect(rng)
		ss[i] = randomRect(rng)
	}
	ri := make([]int32, n)
	si := make([]int32, n)
	for i := range ri {
		ri[i], si[i] = int32(i), int32(i)
	}
	SortOrderByMinX(rs, ri)
	SortOrderByMinX(ss, si)
	var rp, sp, rd, sd Planes
	rp.FromRects(rs)
	sp.FromRects(ss)
	gatherPlanes(&rd, &rp, ri)
	gatherPlanes(&sd, &sp, si)
	out := make([]IndexPair, 0, 4*n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _ = SweepPairsPlanesDense(&rd, &sd, out[:0])
	}
}
