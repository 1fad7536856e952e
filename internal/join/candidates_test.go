package join

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"spjoin/internal/geom"
	"spjoin/internal/rtree"
	"spjoin/internal/tiger"
)

// refCompare is the test's own (R, S) order, independent of the package's
// comparator and of the radix key packing.
func refCompare(a, b Candidate) int {
	switch {
	case a.R < b.R:
		return -1
	case a.R > b.R:
		return 1
	case a.S < b.S:
		return -1
	case a.S > b.S:
		return 1
	}
	return 0
}

// TestSortCandidatesRadixExact pins that SortCandidates yields exactly the
// comparison sort's order on both sides of the radix cutoff, on ties and on
// the ids whose sign bit the key packing flips.
func TestSortCandidatesRadixExact(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	gen := func(n int, id func() rtree.EntryID) []Candidate {
		c := make([]Candidate, n)
		for i := range c {
			c[i] = Candidate{R: id(), S: id()}
		}
		return c
	}
	extremes := []rtree.EntryID{math.MinInt32, -1, 0, math.MaxInt32}
	cases := map[string][]Candidate{
		"empty":  nil,
		"single": {{R: 7, S: -3}},
		"all-equal": gen(3*geom.RadixMinLen, func() rtree.EntryID {
			return 42
		}),
		"duplicates": gen(5000, func() rtree.EntryID {
			return rtree.EntryID(rng.Intn(40))
		}),
		"extremes": gen(4*geom.RadixMinLen, func() rtree.EntryID {
			return extremes[rng.Intn(len(extremes))]
		}),
		"random-200k": gen(200_000, func() rtree.EntryID {
			return rtree.EntryID(rng.Uint32())
		}),
	}
	for _, n := range []int{geom.RadixMinLen - 1, geom.RadixMinLen, geom.RadixMinLen + 1} {
		cases[fmt.Sprintf("cutoff%+d", n-geom.RadixMinLen)] = gen(n, func() rtree.EntryID {
			return rtree.EntryID(rng.Intn(1000) - 500)
		})
	}
	for name, in := range cases {
		want := slices.Clone(in)
		slices.SortFunc(want, refCompare)
		got := slices.Clone(in)
		SortCandidates(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s (n=%d): radix order differs from the comparison sort", name, len(in))
		}
	}
}

// BenchmarkSortCandidates sorts the tree join's candidates of the paper-scale
// TIGER maps, as JoinParallel does, from the join's own emit order.
func BenchmarkSortCandidates(b *testing.B) {
	streets, mixed := tiger.Maps(1.0, 7)
	p := rtree.DefaultParams()
	cands := Sequential(rtree.BulkLoadSTR(p, streets, 0.73), rtree.BulkLoadSTR(p, mixed, 0.73), Options{})
	work := make([]Candidate, len(cands))
	b.ReportMetric(float64(len(cands)), "pairs")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, cands)
		SortCandidates(work)
	}
}
