package join

import (
	"cmp"
	"slices"
)

// compareCandidates orders candidates by (R, S) id — the deterministic
// output order of every Sorted join variant.
func compareCandidates(a, b Candidate) int {
	if c := cmp.Compare(a.R, b.R); c != 0 {
		return c
	}
	return cmp.Compare(a.S, b.S)
}

// SortCandidates orders candidates by (R, S) id in place. The generic sort
// needs no reflection swapper and boxes no closure, so it allocates nothing.
func SortCandidates(cands []Candidate) {
	slices.SortFunc(cands, compareCandidates)
}

// MergeCandidateRuns k-way-merges runs — each already sorted by (R, S) id —
// into dst and returns it. Together with per-worker sorting, this replaces
// a full sort of the concatenated result: each worker sorts only its own
// run (in parallel), and the single-threaded tail is a linear merge instead
// of an O(n log n) sort.
//
// The merge consumes the runs: every run slice is advanced to empty. Ties
// break toward the lower run index, so the result is deterministic even if
// the same (R, S) pair appears in several runs. The scan over run heads is
// linear in the number of runs, which is the worker count — small enough
// that a loser tree would cost more than it saves. With sufficient dst
// capacity the merge performs no allocation.
func MergeCandidateRuns(dst []Candidate, runs [][]Candidate) []Candidate {
	for {
		best := -1
		for i := range runs {
			if len(runs[i]) == 0 {
				continue
			}
			if best < 0 || compareCandidates(runs[i][0], runs[best][0]) < 0 {
				best = i
			}
		}
		if best < 0 {
			return dst
		}
		dst = append(dst, runs[best][0])
		runs[best] = runs[best][1:]
	}
}
