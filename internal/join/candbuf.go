package join

// CandidateBlock is the number of candidates per CandidateBuf block:
// 4096 × 8 B = 32 KiB. It is a constant, not a knob — large enough that the
// per-block bookkeeping (one allocation, one bounds reset) vanishes against
// 4096 emits, small enough that a worker's unused tail wastes at most one
// block and a block copy stays inside the L2 cache.
const CandidateBlock = 4096

// candidateBlockMin is the first block's starting size. Only the first
// block grows (by doubling, up to CandidateBlock): a join with a handful of
// results per worker must not pay for — and zero — a 32 KiB block each,
// and the copying this costs a large join is bounded by one block's worth.
const candidateBlockMin = 64

// CandidateBuf is the append-only candidate sink every join emits into —
// the parallel engines' workers and the sequential joins alike: a chain of
// fixed-size blocks, so collecting n candidates allocates about n of them
// once and never copies one past the first block while collecting — a
// slice grown by append allocates ≈5× its final size and copies ≈4×. The
// zero value is an empty buffer; a buffer belongs to one goroutine at a
// time.
type CandidateBuf struct {
	blocks [][]Candidate // every block ever allocated; blocks[:full] are full
	full   int
	tail   []Candidate // filled prefix of blocks[full]; nil before the first block
}

// Len returns the number of candidates held.
func (b *CandidateBuf) Len() int { return b.full*CandidateBlock + len(b.tail) }

// Push appends one candidate.
func (b *CandidateBuf) Push(c Candidate) {
	if len(b.tail) == cap(b.tail) {
		b.grow()
	}
	b.tail = append(b.tail, c) // within capacity: never reallocates
}

// Append appends a batch, splitting it across block edges.
func (b *CandidateBuf) Append(batch []Candidate) {
	for len(batch) > 0 {
		if len(b.tail) == cap(b.tail) {
			b.grow()
		}
		n := len(b.tail)
		k := copy(b.tail[n:cap(b.tail)], batch)
		b.tail = b.tail[:n+k]
		batch = batch[k:]
	}
}

// grow makes room behind a full tail: the first block doubles in place until
// it reaches CandidateBlock; after that the tail is retired and the next
// block becomes current, recycling one left by an earlier Reset before
// allocating. Kept out of line so that Push stays within the inliner's
// budget at the emit sites.
//
//go:noinline
func (b *CandidateBuf) grow() {
	if n := cap(b.tail); n < CandidateBlock {
		first := make([]Candidate, max(2*n, candidateBlockMin))
		b.tail = first[:copy(first, b.tail)]
		b.blocks = append(b.blocks[:0], first)
		return
	}
	b.full++
	if b.full == len(b.blocks) {
		b.blocks = append(b.blocks, make([]Candidate, CandidateBlock))
	}
	b.tail = b.blocks[b.full][:0]
}

// Reset empties the buffer and keeps its blocks, so a refill up to the
// previous high-water mark allocates nothing.
func (b *CandidateBuf) Reset() {
	b.full = 0
	if len(b.blocks) > 0 {
		b.tail = b.blocks[0][:0]
	}
}

// Filter keeps, among the candidates at positions from and after, those
// keep accepts, in push order, and returns how many it dropped. Positions
// before from are untouched; capacity is kept.
func (b *CandidateBuf) Filter(from int, keep func(Candidate) bool) int {
	n := b.Len()
	w := from
	for r := from; r < n; r++ {
		c := b.blocks[r/CandidateBlock][r%CandidateBlock]
		if keep(c) {
			b.blocks[w/CandidateBlock][w%CandidateBlock] = c
			w++
		}
	}
	if w < n {
		// Keep the invariant that only a full tail is followed by a grow:
		// a length on a block edge leaves the previous block as the full
		// tail.
		b.full = max(w-1, 0) / CandidateBlock
		b.tail = b.blocks[b.full][:w-b.full*CandidateBlock]
	}
	return n - w
}

// CopyTo copies the held candidates, in push order, to the front of dst,
// which must have room for Len() of them, and returns that count.
func (b *CandidateBuf) CopyTo(dst []Candidate) int {
	n := 0
	for _, blk := range b.blocks[:b.full] {
		n += copy(dst[n:n+CandidateBlock], blk)
	}
	return n + copy(dst[n:n+len(b.tail)], b.tail)
}

// flatten returns the held candidates as one exact-size slice, nil when
// there are none: the sequential joins' result.
func (b *CandidateBuf) flatten() []Candidate {
	if b.Len() == 0 {
		return nil
	}
	out := make([]Candidate, b.Len())
	b.CopyTo(out)
	return out
}
