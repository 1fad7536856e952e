package geom

import (
	"math/rand"
	"sort"
	"testing"
)

// bruteForcePairs is the nested-loops oracle: every combination tested with
// Rect.Intersects, pairs in (R, S) index order.
func bruteForcePairs(rs, ss []Rect) (pairs []IndexPair, comparisons int) {
	for i := range rs {
		for j := range ss {
			comparisons++
			if rs[i].Intersects(ss[j]) {
				pairs = append(pairs, IndexPair{R: int32(i), S: int32(j)})
			}
		}
	}
	return pairs, comparisons
}

// sweepIndexed is the scalar plane-sweep oracle over index views of rect
// slices (ri and si in SortOrderByMinX order): the reference the planes
// kernels must match in pair set, pair order and comparison count. A scan
// stops at the first rect starting past the sweep rect's MaxX (a NaN MinX
// does not stop it), exactly as the kernels' scans do.
func sweepIndexed(r, s []Rect, ri, si []int32) (pairs []IndexPair, comparisons int) {
	i, j := 0, 0
	for i < len(ri) && j < len(si) {
		if r[ri[i]].MinX <= s[si[j]].MinX {
			t := r[ri[i]]
			for k := j; k < len(si); k++ {
				c := s[si[k]]
				if c.MinX > t.MaxX {
					break
				}
				comparisons++
				if t.MinY <= c.MaxY && c.MinY <= t.MaxY {
					pairs = append(pairs, IndexPair{R: ri[i], S: si[k]})
				}
			}
			i++
		} else {
			t := s[si[j]]
			for k := i; k < len(ri); k++ {
				c := r[ri[k]]
				if c.MinX > t.MaxX {
					break
				}
				comparisons++
				if c.MinY <= t.MaxY && t.MinY <= c.MaxY {
					pairs = append(pairs, IndexPair{R: ri[k], S: si[j]})
				}
			}
			j++
		}
	}
	return pairs, comparisons
}

func identity32(n int) []int32 {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	return idx
}

// sweepOrders returns both sides' sweep orders.
func sweepOrders(rs, ss []Rect) (ri, si []int32) {
	ri, si = identity32(len(rs)), identity32(len(ss))
	SortOrderByMinX(rs, ri)
	SortOrderByMinX(ss, si)
	return ri, si
}

// collectSweep runs SweepPairsPlanes over planes copies of the given
// (unsorted) rect slices in sweep order, returning the pairs in
// original-index space, in emission order, and the comparison count.
func collectSweep(rs, ss []Rect) ([]IndexPair, int) {
	ri, si := sweepOrders(rs, ss)
	var rp, sp Planes
	rp.FromRects(rs)
	sp.FromRects(ss)
	return SweepPairsPlanes(&rp, &sp, ri, si, nil)
}

func pairSet(pairs []IndexPair) map[IndexPair]bool {
	m := make(map[IndexPair]bool, len(pairs))
	for _, p := range pairs {
		m[p] = true
	}
	return m
}

func TestSweepPairsPaperExample(t *testing.T) {
	// Mirrors the structure of Figure 1: three R rects, two S rects with
	// known intersections.
	rs := []Rect{
		NewRect(0, 0, 2, 2), // r1
		NewRect(3, 0, 5, 2), // r2
		NewRect(6, 0, 8, 2), // r3
	}
	ss := []Rect{
		NewRect(1, 1, 4, 3),   // s1 intersects r1, r2
		NewRect(4.5, 0, 7, 1), // s2 intersects r2, r3
	}
	pairs, _ := collectSweep(rs, ss)
	got := pairSet(pairs)
	want := pairSet([]IndexPair{{0, 0}, {1, 0}, {1, 1}, {2, 1}})
	if len(got) != len(want) {
		t.Fatalf("got %d pairs, want %d: %v", len(got), len(want), got)
	}
	for p := range want {
		if !got[p] {
			t.Errorf("missing pair %v", p)
		}
	}
}

func TestSweepPairsEmptyInputs(t *testing.T) {
	rs := []Rect{NewRect(0, 0, 1, 1)}
	for _, c := range [][2][]Rect{{nil, nil}, {rs, nil}, {nil, rs}} {
		if pairs, n := collectSweep(c[0], c[1]); len(pairs) != 0 || n != 0 {
			t.Fatalf("%d pairs, %d comparisons on an empty side, want 0", len(pairs), n)
		}
		var rp, sp Planes
		rp.FromRects(c[0])
		sp.FromRects(c[1])
		if pairs, n := SweepPairsPlanesDense(&rp, &sp, nil); len(pairs) != 0 || n != 0 {
			t.Fatalf("dense: %d pairs, %d comparisons on an empty side, want 0", len(pairs), n)
		}
	}
}

func TestSweepMatchesBruteForceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		nr, ns := rng.Intn(40), rng.Intn(40)
		rs := make([]Rect, nr)
		ss := make([]Rect, ns)
		for i := range rs {
			rs[i] = randomRect(rng)
		}
		for i := range ss {
			ss[i] = randomRect(rng)
		}
		pairs, _ := collectSweep(rs, ss)
		got := pairSet(pairs)
		want, _ := bruteForcePairs(rs, ss)
		if len(pairs) != len(want) || len(got) != len(want) {
			t.Fatalf("trial %d: sweep found %d pairs (%d unique), brute force %d",
				trial, len(pairs), len(got), len(want))
		}
		for _, p := range want {
			if !got[p] {
				t.Fatalf("trial %d: sweep missed pair %v", trial, p)
			}
		}
	}
}

func TestSweepComparisonsAtMostBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		rs := make([]Rect, 30)
		ss := make([]Rect, 30)
		for i := range rs {
			rs[i] = randomRect(rng)
		}
		for i := range ss {
			ss[i] = randomRect(rng)
		}
		_, sweepCmp := collectSweep(rs, ss)
		_, bruteCmp := bruteForcePairs(rs, ss)
		if sweepCmp > bruteCmp {
			t.Fatalf("trial %d: sweep used %d comparisons > brute force %d",
				trial, sweepCmp, bruteCmp)
		}
	}
}

func TestSweepOrderIsByMinX(t *testing.T) {
	// The local plane-sweep order: every pair is emitted while the sweep
	// line stands at its anchor rectangle — the one of the two with the
	// smaller MinX — so the anchors' MinX never decreases along the output.
	rng := rand.New(rand.NewSource(11))
	rs := make([]Rect, 60)
	ss := make([]Rect, 60)
	for i := range rs {
		rs[i] = randomRect(rng)
		ss[i] = randomRect(rng)
	}
	pairs, _ := collectSweep(rs, ss)
	anchors := make([]float64, len(pairs))
	for i, p := range pairs {
		anchors[i] = min(rs[p.R].MinX, ss[p.S].MinX)
	}
	if !sort.Float64sAreSorted(anchors) {
		t.Fatalf("sweep anchors not sorted: %v", anchors)
	}
}

// TestSortRectsByMinXDeterministicTies pins the sweep sort's tie order:
// equal MinX breaks on MinY, then on the index.
func TestSortRectsByMinXDeterministicTies(t *testing.T) {
	rects := []Rect{
		NewRect(1, 5, 2, 6),
		NewRect(1, 3, 2, 4),
		NewRect(1, 3, 9, 9),
	}
	idx := identity32(3)
	SortOrderByMinX(rects, idx)
	// MinX all equal; order by MinY then index: rect1 (y=3,i=1), rect2
	// (y=3,i=2), rect0 (y=5).
	want := []int32{1, 2, 0}
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("tie-broken order = %v, want %v", idx, want)
		}
	}
}

func TestSweepAllIdenticalRects(t *testing.T) {
	// Adversarial: every rectangle identical — the sweep must emit the full
	// cross product exactly once.
	r := NewRect(1, 1, 2, 2)
	rs := make([]Rect, 20)
	ss := make([]Rect, 15)
	for i := range rs {
		rs[i] = r
	}
	for i := range ss {
		ss[i] = r
	}
	pairs, _ := collectSweep(rs, ss)
	if got := pairSet(pairs); len(pairs) != 20*15 || len(got) != 20*15 {
		t.Fatalf("identical rects: %d pairs (%d unique), want %d", len(pairs), len(got), 20*15)
	}
}

func TestSweepTouchingOnlyAtX(t *testing.T) {
	// Rectangles that touch exactly at their x-boundaries must pair.
	rs := []Rect{NewRect(0, 0, 1, 1)}
	ss := []Rect{NewRect(1, 0, 2, 1)}
	pairs, _ := collectSweep(rs, ss)
	if !pairSet(pairs)[IndexPair{0, 0}] {
		t.Fatal("x-touching rectangles not paired")
	}
}

// TestSweepSoAMatchesOraclesRandom runs the planes kernels over larger and
// denser inputs than the oracle test — long scans, many pairs per sweep
// stop — against both oracles.
func TestSweepSoAMatchesOraclesRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		rs := make([]Rect, 100+rng.Intn(300))
		ss := make([]Rect, 100+rng.Intn(300))
		for i := range rs {
			x, y := rng.Float64()*100, rng.Float64()*100
			rs[i] = NewRect(x, y, x+rng.Float64()*40, y+rng.Float64()*40)
		}
		for i := range ss {
			x, y := rng.Float64()*100, rng.Float64()*100
			ss[i] = NewRect(x, y, x+rng.Float64()*40, y+rng.Float64()*40)
		}
		checkSweepAgainstOracles(t, rs, ss)
	}
}

func TestSweepSoAEdgeCases(t *testing.T) {
	ident := NewRect(1, 1, 2, 2)
	same := make([]Rect, 10)
	for i := range same {
		same[i] = ident
	}
	cases := [][2][]Rect{
		{nil, nil},
		{{ident}, nil},
		{nil, {ident}},
		{same, same[:7]}, // full cross product
		{{NewRect(0, 0, 1, 1)}, {NewRect(1, 0, 2, 1)}},       // x-touching
		{{NewRect(0, 0, 1, 1)}, {NewRect(2, 0, 3, 1)}},       // disjoint in x
		{{NewRect(0, 0, 1, 1)}, {NewRect(0.5, 2, 1.5, 3)}},   // x-overlap, y-disjoint
		{{NewRect(0, 0, 10, 1), NewRect(0, 5, 10, 6)}, same}, // long spanners
	}
	for _, c := range cases {
		rs := append([]Rect(nil), c[0]...)
		ss := append([]Rect(nil), c[1]...)
		checkSweepAgainstOracles(t, rs, ss)
	}
}

func TestSweepSoAReusesOutBuffer(t *testing.T) {
	// The zero-allocation contract: with a cap-sufficient out slice the
	// sweep must append into it rather than allocate a fresh backing array.
	rs := []Rect{NewRect(0, 0, 2, 2), NewRect(1, 0, 3, 2)}
	ss := []Rect{NewRect(0, 1, 2, 3), NewRect(1, 1, 3, 3)}
	ri, si := sweepOrders(rs, ss)
	var rp, sp Planes
	rp.FromRects(rs)
	sp.FromRects(ss)
	buf := make([]IndexPair, 0, 16)
	out, _ := SweepPairsPlanes(&rp, &sp, ri, si, buf)
	if len(out) == 0 {
		t.Fatal("no pairs found")
	}
	if &out[0] != &buf[:1][0] {
		t.Fatal("sweep abandoned the provided buffer despite sufficient capacity")
	}
}

// checkSweepAgainstOracles is checkSweepPlanesOracle plus the pair set
// against bruteForcePairs, for well-formed rects (on an inverted rect the
// sweep and Rect.Intersects may legitimately disagree).
func checkSweepAgainstOracles(t *testing.T, rs, ss []Rect) {
	t.Helper()
	checkSweepPlanesOracle(t, rs, ss)
	pairs, _ := collectSweep(rs, ss)
	got := pairSet(pairs)
	brute, _ := bruteForcePairs(rs, ss)
	if len(pairs) != len(brute) || len(got) != len(brute) {
		t.Fatalf("sweep found %d pairs (%d unique), brute force %d", len(pairs), len(got), len(brute))
	}
	for _, p := range brute {
		if !got[p] {
			t.Fatalf("sweep missed pair %v", p)
		}
	}
}

// fuzzRects decodes raw fuzz bytes into two small rect sets with
// intersection-rich integer coordinates (small grid, modest extents).
func fuzzRects(data []byte) (rs, ss []Rect) {
	if len(data) == 0 {
		return nil, nil
	}
	nr := int(data[0]) % 24
	data = data[1:]
	decode := func() []Rect {
		var out []Rect
		for len(data) >= 4 {
			x := float64(data[0] % 32)
			y := float64(data[1] % 32)
			w := float64(data[2] % 8)
			h := float64(data[3] % 8)
			data = data[4:]
			out = append(out, NewRect(x, y, x+w, y+h))
		}
		return out
	}
	all := decode()
	if nr > len(all) {
		nr = len(all)
	}
	return all[:nr], all[nr:]
}
