package join

import (
	"cmp"
	"slices"

	"spjoin/internal/geom"
	"spjoin/internal/rtree"
)

// compareCandidates orders candidates by (R, S) id — the deterministic
// output order SortCandidates produces.
func compareCandidates(a, b Candidate) int {
	if c := cmp.Compare(a.R, b.R); c != 0 {
		return c
	}
	return cmp.Compare(a.S, b.S)
}

// SortCandidates orders candidates by (R, S) id in place: one LSD radix sort
// over the pairs packed into 64-bit words (see candidateKey), sharing the
// build-time sort's digit loop. It allocates two words per candidate; inputs
// shorter than geom.RadixMinLen take a comparison sort, which allocates
// nothing. The engines emit in no particular order — callers that need a
// deterministic sequence sort the result with this.
func SortCandidates(cands []Candidate) {
	n := len(cands)
	if n < geom.RadixMinLen {
		slices.SortFunc(cands, compareCandidates)
		return
	}
	words := make([]uint64, 2*n)
	keys := words[:n]
	for i, c := range cands {
		keys[i] = candidateKey(c)
	}
	for i, k := range geom.SortWords(keys, words[n:]) {
		cands[i] = Candidate{R: keyID(k >> 32), S: keyID(k)}
	}
}

// candidateKey packs a candidate so that unsigned word order is signed
// (R, S) order: R in the upper half, S in the lower, each with its sign bit
// flipped (EntryID is an int32).
func candidateKey(c Candidate) uint64 {
	return uint64(uint32(c.R)^1<<31)<<32 | uint64(uint32(c.S)^1<<31)
}

// keyID recovers an id from the low 32 bits of a packed half.
func keyID(half uint64) rtree.EntryID {
	return rtree.EntryID(int32(uint32(half) ^ 1<<31))
}
