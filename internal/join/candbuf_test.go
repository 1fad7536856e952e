package join

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"spjoin/internal/rtree"
	"spjoin/internal/tiger"
)

// TestCandidateIsIDPair pins the candidate's size: two 4-byte ids and
// nothing else. Every byte added here is paid once per result pair in the
// buffer and again in the result (DESIGN.md, "Output path").
func TestCandidateIsIDPair(t *testing.T) {
	if got := unsafe.Sizeof(Candidate{}); got != 8 {
		t.Fatalf("sizeof(Candidate) = %d B, want 8", got)
	}
}

// seqCandidate is the i-th candidate of a recognisable sequence: R counts up
// and S counts down with i, so a misplaced, torn, swapped or duplicated copy
// shows.
func seqCandidate(i int) Candidate {
	return Candidate{R: rtree.EntryID(i), S: rtree.EntryID(-i)}
}

func checkSeq(t *testing.T, b *CandidateBuf, n int) {
	t.Helper()
	if b.Len() != n {
		t.Fatalf("Len() = %d, want %d", b.Len(), n)
	}
	dst := make([]Candidate, n+1)
	dst[n] = seqCandidate(-7) // sentinel past the end
	if got := b.CopyTo(dst); got != n {
		t.Fatalf("CopyTo returned %d, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		if dst[i] != seqCandidate(i) {
			t.Fatalf("candidate %d of %d is %+v", i, n, dst[i])
		}
	}
	if dst[n] != seqCandidate(-7) {
		t.Fatalf("CopyTo of %d candidates wrote past its end", n)
	}
}

// TestCandidateBuf drives the buffer through every block-edge shape by both
// emit paths, then pins the Reset contract: a refill up to the high-water
// mark reuses the blocks and allocates nothing.
func TestCandidateBuf(t *testing.T) {
	const blk = CandidateBlock
	for _, n := range []int{0, 1, candidateBlockMin, candidateBlockMin + 1, blk - 1, blk, blk + 1, 3*blk + 7} {
		src := make([]Candidate, n)
		for i := range src {
			src[i] = seqCandidate(i)
		}
		fills := []struct {
			name string
			fill func(b *CandidateBuf)
		}{
			{"push", func(b *CandidateBuf) {
				for i := range src {
					b.Push(src[i])
				}
			}},
			{"append", func(b *CandidateBuf) { b.Append(src) }},
			// Batches of 1000 straddle every block edge at a different
			// offset (4096 is not a multiple of 1000).
			{"append-batches", func(b *CandidateBuf) {
				for lo := 0; lo < n; lo += 1000 {
					b.Append(src[lo:min(lo+1000, n)])
				}
			}},
			{"mixed", func(b *CandidateBuf) {
				half := n / 2
				for i := 0; i < half; i++ {
					b.Push(src[i])
				}
				b.Append(src[half:])
			}},
		}
		for _, f := range fills {
			t.Run(fmt.Sprintf("%s/%d", f.name, n), func(t *testing.T) {
				var b CandidateBuf
				f.fill(&b)
				checkSeq(t, &b, n)
				// Whole blocks waste under one block; the first block grows
				// with its contents, so a small result holds a small block.
				held, limit := 0, n+blk
				for _, blk := range b.blocks {
					held += cap(blk)
				}
				if n < blk {
					limit = 2 * max(n, candidateBlockMin)
				}
				if held >= limit {
					t.Errorf("%d candidates hold %d slots of blocks, want < %d", n, held, limit)
				}

				b.Reset()
				checkSeq(t, &b, 0)
				if allocs := testing.AllocsPerRun(5, func() {
					b.Reset()
					f.fill(&b)
				}); allocs != 0 {
					t.Errorf("refill after Reset: %.1f allocs, want 0", allocs)
				}
				checkSeq(t, &b, n)

				// A shorter refill must not resurface the old contents.
				b.Reset()
				b.Append(src[:n/3])
				checkSeq(t, &b, n/3)
			})
		}
	}
}

// TestCandidateBufFilter filters the tail of buffers whose lengths straddle
// the first block's growth and the block edges: the prefix stays, the kept
// candidates close up in order, and further pushes continue behind them.
func TestCandidateBufFilter(t *testing.T) {
	const cb = CandidateBlock
	for _, tc := range []struct{ n, from, keepEvery int }{
		{0, 0, 1}, {10, 0, 2}, {10, 10, 2}, {100, 37, 3}, {cb, 0, 1}, {cb, 1, cb + 1},
		{cb + 1, cb, 2}, {2 * cb, 5, 2}, {2*cb + 3, cb - 1, 1 << 30}, {3 * cb, 0, cb},
	} {
		t.Run(fmt.Sprintf("n%d_from%d_every%d", tc.n, tc.from, tc.keepEvery), func(t *testing.T) {
			var b CandidateBuf
			for i := 0; i < tc.n; i++ {
				b.Push(seqCandidate(i))
			}
			dropped := b.Filter(tc.from, func(c Candidate) bool { return int(c.R)%tc.keepEvery == 0 })
			var want []Candidate
			for i := 0; i < tc.n; i++ {
				if i < tc.from || i%tc.keepEvery == 0 {
					want = append(want, seqCandidate(i))
				}
			}
			if dropped != tc.n-len(want) || b.Len() != len(want) {
				t.Fatalf("dropped %d, Len %d; want %d, %d", dropped, b.Len(), tc.n-len(want), len(want))
			}
			for k := 0; k < cb+5; k++ {
				b.Push(seqCandidate(-k - 1))
				want = append(want, seqCandidate(-k-1))
			}
			got := make([]Candidate, b.Len())
			b.CopyTo(got)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("candidate %d = %v, want %v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestCandidateBufCopyToShortPanics pins CopyTo's contract: a destination
// shorter than Len() is a caller bug and must not be truncated silently.
func TestCandidateBufCopyToShortPanics(t *testing.T) {
	for _, n := range []int{1, CandidateBlock, CandidateBlock + 1} {
		var b CandidateBuf
		b.Append(make([]Candidate, n))
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("CopyTo of %d candidates into %d slots did not panic", n, n-1)
				}
			}()
			b.CopyTo(make([]Candidate, n-1))
		}()
	}
}

// TestSequentialOutputAllocationBounded pins the sequential join's output
// path the way parnative's TestJoinOutputAllocationBounded pins the
// parallel one: Sequential collects into a CandidateBuf and copies it once
// into an exact-size result, so the output costs the buffer blocks plus
// the result, where a slice grown by append allocates about five times the
// result. The traversal's own allocations are measured by an Engine run
// over the same source that only counts its candidates, and subtracted.
func TestSequentialOutputAllocationBounded(t *testing.T) {
	// The replication regime of the planner corpus: 3,000 rects a side, each
	// an eighth of the world wide, about half a million pairs.
	side := func(seed int64) *rtree.Tree {
		items := tiger.Uniform(3000, 1, seed)
		for i := range items {
			items[i].Rect.MaxX = items[i].Rect.MinX + tiger.World/8
			items[i].Rect.MaxY = items[i].Rect.MinY + tiger.World/8
		}
		return rtree.BulkLoadSTR(rtree.DefaultParams(), items, 0.73)
	}
	r, s := side(5), side(6)
	measure := func(f func()) int64 {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		return int64(m1.TotalAlloc - m0.TotalAlloc)
	}
	root, ok := RootPair(r, s)
	if !ok {
		t.Fatal("trees do not overlap")
	}
	t.Run("Sequential", func(t *testing.T) {
		Sequential(r, s, Options{}) // warm up: both measured runs start alike
		var counted int
		base := measure(func() {
			e := Engine{Src: DirectSource{R: r, S: s}, OnCandidates: func(cs []Candidate) { counted += len(cs) }}
			e.Run(root)
		})
		var res []Candidate
		b := measure(func() { res = Sequential(r, s, Options{}) })

		const candBytes = int64(unsafe.Sizeof(Candidate{}))
		pairs := int64(len(res))
		if pairs != int64(counted) || pairs < 100*CandidateBlock {
			t.Fatalf("%d pairs (counted %d), want over a hundred blocks — test premise broken", pairs, counted)
		}
		// The blocks (the last one partial, the first one doubled up to a
		// full block), the result, and 1 MiB of slack.
		blocks := pairs/CandidateBlock + 1
		if limit := ((blocks+1)*CandidateBlock+pairs)*candBytes + 1<<20; b-base > limit {
			t.Errorf("output path allocated %d B for a %d B result (%.1fx), want <= %d B",
				b-base, pairs*candBytes, float64(b-base)/float64(pairs*candBytes), limit)
		}
		t.Logf("%d pairs: output path %.1f B/pair (traversal alone: %d B)",
			pairs, float64(b-base)/float64(pairs), base)
	})
}
