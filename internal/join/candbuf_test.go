package join

import (
	"fmt"
	"testing"

	"spjoin/internal/geom"
	"spjoin/internal/rtree"
)

// seqCandidate is the i-th candidate of a recognisable sequence: every field
// depends on i, so a misplaced, torn or duplicated copy shows.
func seqCandidate(i int) Candidate {
	f := float64(i)
	return Candidate{
		R: rtree.EntryID(i), S: rtree.EntryID(-i),
		RRect: geom.NewRect(f, f+1, f+2, f+3),
		SRect: geom.NewRect(-f, -f+1, -f+2, -f+3),
	}
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
