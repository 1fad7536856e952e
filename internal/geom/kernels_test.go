package geom

import (
	"math"
	"math/rand"
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
// with the scalar Intersects predicate, with and without the quantized
// prefilter, on the active kernel path.
func checkPlanesAgainstScalar(t *testing.T, q Rect, rects []Rect, quantBounds Rect) {
	t.Helper()
	var p Planes
	p.FromRects(rects)
	for pass := 0; pass < 2; pass++ {
		if pass == 1 {
			p.Quantize(quantBounds)
		}
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
				t.Fatalf("quant=%v bit %d: planes=%v scalar=%v (q=%v r=%v)",
					pass == 1, i, maskBit(mask, i), scalar, q, r)
			}
		}
		if n != want {
			t.Fatalf("quant=%v: IntersectBatchPlanes returned %d, scalar count %d", pass == 1, n, want)
		}
		if len(rects)&63 != 0 && len(mask) > 0 {
			if last := mask[len(mask)-1]; last>>(uint(len(rects))&63) != 0 {
				t.Fatalf("trailing bits of last word not zero: %064b", last)
			}
		}
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
			checkPlanesAgainstScalar(t, randomRect(rng), rects, NewRect(0, 0, 110, 110))
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
			checkPlanesAgainstScalar(t, NewRect(20, 20, 80, 80), rects, NewRect(0, 0, 110, 110))
		}
	})
}

// TestIntersectBatchPlanesDegenerate pins the NaN/EmptyRect/inverted/
// touching-edge contract on both kernel paths, in both query directions,
// including degenerate quantization bounds.
func TestIntersectBatchPlanesDegenerate(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		all := degenerateRects()
		q := NewRect(10, 10, 20, 20)
		for _, bounds := range []Rect{
			NewRect(0, 0, 30, 30),                 // tight
			NewRect(-1e300, -1e300, 1e300, 1e300), // huge: scale collapses fine rects to few cells
			{MinX: 5, MinY: 5, MaxX: 5, MaxY: 5},  // degenerate: scale 0
			EmptyRect(),                           // inverted bounds: scale 0
		} {
			checkPlanesAgainstScalar(t, q, all, bounds)
			for _, r := range all {
				checkPlanesAgainstScalar(t, r, all, bounds)
			}
		}
	})
}

// TestQuantOutwardRounding pins the rounding rule that makes the prefilter
// conservative: mins round down, maxes round up, NaN maps to the widest
// cell for its role, and for every value qDown(v) <= qUp(v).
func TestQuantOutwardRounding(t *testing.T) {
	origin, scale := quantParams(0, 255) // identity-ish mapping: 1 unit per cell
	if origin != 0 || scale != 1 {
		t.Fatalf("quantParams(0,255) = %g, %g; want 0, 1", origin, scale)
	}
	cases := []struct {
		v        float64
		down, up uint8
	}{
		{0, 0, 0},
		{0.25, 0, 1},
		{1, 1, 1},
		{254.5, 254, 255},
		{300, 255, 255}, // clamp high
		{-3, 0, 0},      // clamp low
		{math.NaN(), 0, 255},
		{math.Inf(1), 255, 255},
		{math.Inf(-1), 0, 0},
	}
	for _, c := range cases {
		if got := qDown(c.v, origin, scale); got != c.down {
			t.Errorf("qDown(%g) = %d, want %d", c.v, got, c.down)
		}
		if got := qUp(c.v, origin, scale); got != c.up {
			t.Errorf("qUp(%g) = %d, want %d", c.v, got, c.up)
		}
	}
	// Degenerate axes collapse to scale 0.
	for _, b := range [][2]float64{{5, 5}, {7, 3}, {math.Inf(-1), math.Inf(1)}, {math.NaN(), 4}} {
		if _, s := quantParams(b[0], b[1]); s != 0 {
			t.Errorf("quantParams(%g,%g) scale = %g, want 0", b[0], b[1], s)
		}
	}
}

// TestQuantConservative is the property the whole prefilter rests on:
// under any bounds, every exactly-intersecting pair also passes the
// quantized byte test.
func TestQuantConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 500; trial++ {
		var p Planes
		r := randomRect(rng)
		p.FromRects([]Rect{r})
		bounds := NewRect(rng.Float64()*50, rng.Float64()*50, 50+rng.Float64()*60, 50+rng.Float64()*60)
		p.Quantize(bounds)
		q := randomRect(rng)
		if !q.Intersects(r) {
			continue
		}
		qq := p.quantQuery(q)
		if !(p.qMinX[0] <= qq[2] && qq[0] <= p.qMaxX[0] &&
			p.qMinY[0] <= qq[3] && qq[1] <= p.qMaxY[0]) {
			t.Fatalf("exact intersection rejected by quant gate: q=%v r=%v bounds=%v", q, r, bounds)
		}
	}
}

// TestPlanesSetRectQuantSync verifies point mutations keep a quantized
// Planes conservative.
func TestPlanesSetRectQuantSync(t *testing.T) {
	var p Planes
	p.FromRects([]Rect{NewRect(0, 0, 1, 1), NewRect(2, 2, 3, 3)})
	bounds := NewRect(0, 0, 100, 100)
	p.Quantize(bounds)
	moved := NewRect(40, 40, 60, 60)
	p.SetRect(1, moved)
	var fresh Planes
	fresh.FromRects([]Rect{p.RectAt(0), p.RectAt(1)})
	fresh.Quantize(bounds)
	for i := 0; i < 2; i++ {
		if p.qMinX[i] != fresh.qMinX[i] || p.qMinY[i] != fresh.qMinY[i] ||
			p.qMaxX[i] != fresh.qMaxX[i] || p.qMaxY[i] != fresh.qMaxY[i] {
			t.Fatalf("lane %d quant bytes diverge after SetRect", i)
		}
	}
	if p.RectAt(1) != moved {
		t.Fatalf("RectAt(1) = %v, want %v", p.RectAt(1), moved)
	}
}

// TestPlanesGather verifies Gather carries rects and the quant mirror.
func TestPlanesGather(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var src Planes
	rects := make([]Rect, 50)
	for i := range rects {
		rects[i] = randomRect(rng)
	}
	src.FromRects(rects)
	src.Quantize(NewRect(0, 0, 110, 110))
	sel := []int32{49, 0, 17, 17, 3}
	var dst Planes
	dst.Gather(&src, sel)
	if dst.Len() != len(sel) || !dst.HasQuant() {
		t.Fatalf("gather: len=%d quant=%v", dst.Len(), dst.HasQuant())
	}
	for i, s := range sel {
		if dst.RectAt(i) != rects[s] {
			t.Fatalf("gather lane %d: %v != %v", i, dst.RectAt(i), rects[s])
		}
		if dst.qMinX[i] != src.qMinX[s] || dst.qMaxY[i] != src.qMaxY[s] {
			t.Fatalf("gather lane %d: quant bytes not carried", i)
		}
	}
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
	rd.Gather(&rp, ri)
	sd.Gather(&sp, si)
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

// TestPlanesView pins the zero-copy subrange view: the batch kernel over a
// view (quantized mirror included) must agree with the scalar predicate
// over the corresponding rect subslice, for spans straddling word and
// vector-group boundaries.
func TestPlanesView(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(77))
		rects := make([]Rect, 150)
		for i := range rects {
			rects[i] = randomRect(rng)
		}
		var p Planes
		p.FromRects(rects)
		p.Quantize(NewRect(0, 0, 110, 110))
		q := NewRect(20, 20, 80, 80)
		for _, span := range [][2]int{{0, 150}, {10, 74}, {64, 150}, {37, 37}, {149, 150}, {3, 68}} {
			v := p.View(span[0], span[1])
			sub := rects[span[0]:span[1]]
			if v.Len() != len(sub) || v.HasQuant() != p.HasQuant() {
				t.Fatalf("view %v: len=%d quant=%v", span, v.Len(), v.HasQuant())
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
		for pass := 0; pass < 2; pass++ {
			if pass == 1 {
				p.Quantize(NewRect(0, 0, 40, 40))
			}
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
						t.Fatalf("quant=%v %s: bit %d disagrees with scalar", pass == 1, mode, i)
					}
				}
				if n != want {
					t.Fatalf("quant=%v %s: count %d != %d", pass == 1, mode, n, want)
				}
				if ref == nil {
					ref = mask
				} else {
					for i := range mask {
						if mask[i] != ref[i] {
							t.Fatalf("quant=%v: kernel paths disagree at word %d", pass == 1, i)
						}
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
// runs (see fuzzSweepRects).
func FuzzSweepPairsPlanes(f *testing.F) {
	f.Add([]byte{3, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0})
	long := []byte{40, 0x25}
	for i := 0; i < 80; i++ {
		long = append(long, byte(i*5), byte(i*11), byte(i*13), byte(i*7))
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		defer SetKernel("auto")
		rs, ss, sel := fuzzSweepRects(data)
		for _, mode := range []string{"auto", "purego"} {
			if err := SetKernel(mode); err != nil {
				t.Fatal(err)
			}
			checkSweepAgainstOracles(t, rs, ss)
		}
		injectSpecials(rs, sel)
		injectSpecials(ss, sel>>1)
		for _, mode := range []string{"auto", "purego"} {
			if err := SetKernel(mode); err != nil {
				t.Fatal(err)
			}
			checkSweepPlanesOracle(t, rs, ss)
		}
	})
}

// fuzzSweepRects decodes a sweep fuzz payload: byte 0 picks how many rects
// go to R, byte 1 is the special-value selector for injectSpecials, and
// every further 4 bytes are one rect on a 64×64 integer grid with extents
// under 32 — up to 128 rects, so a side holds up to 64 and a scan often
// covers eight lanes or more.
func fuzzSweepRects(data []byte) (rs, ss []Rect, sel byte) {
	if len(data) < 2 {
		return nil, nil, 0
	}
	nr, sel := int(data[0])%65, data[1]
	var all []Rect
	for data = data[2:]; len(data) >= 4 && len(all) < 128; data = data[4:] {
		x, y := float64(data[0]%64), float64(data[1]%64)
		all = append(all, NewRect(x, y, x+float64(data[2]%32), y+float64(data[3]%32)))
	}
	nr = min(nr, len(all))
	return all[:nr], all[nr:], sel
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

// BenchmarkIntersectBatchPlanesQuant is the same block with the quantized
// prefilter active and a query that misses most of the data, the case the
// gate is built for.
func BenchmarkIntersectBatchPlanesQuant(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	rects := make([]Rect, 128)
	for i := range rects {
		rects[i] = randomRect(rng)
	}
	var p Planes
	p.FromRects(rects)
	p.Quantize(NewRect(0, 0, 110, 110))
	q := NewRect(105, 105, 109, 109)
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
	rd.Gather(&rp, ri)
	sd.Gather(&sp, si)
	out := make([]IndexPair, 0, 4*n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _ = SweepPairsPlanesDense(&rd, &sd, out[:0])
	}
}
