// Quickstart: build two R*-trees over the synthetic TIGER-like maps and
// compute the spatial join (filter step) in parallel.
package main

import (
	"fmt"

	"spjoin"
)

func main() {
	// Two spatial relations at 1% of the paper's cardinality: ~1300 street
	// segments, ~1300 boundary/river/railway features.
	streets, features := spjoin.SampleMaps(0.01, 42)
	fmt.Printf("relation R: %d street segments\n", len(streets))
	fmt.Printf("relation S: %d mixed features\n", len(features))

	// Build the R*-trees (dynamic insertion, like the paper).
	r := spjoin.Build(streets)
	s := spjoin.Build(features)
	fmt.Printf("R*-trees built: heights %d and %d\n", r.Height(), s.Height())

	// Parallel spatial join: all pairs of objects whose MBRs intersect.
	// 0 workers means "use every CPU".
	pairs := spjoin.JoinParallel(r, s, 0)
	fmt.Printf("filter step found %d candidate pairs\n", len(pairs))

	// Show a few results. A candidate holds only the two object ids; the
	// MBRs are looked up by id (SampleMaps numbers objects by position).
	for i, c := range pairs {
		if i == 5 {
			break
		}
		fmt.Printf("  street %4d  ×  feature %4d   MBRs %v ∩ %v\n",
			c.R, c.S, streets[c.R].Rect, features[c.S].Rect)
	}

	// Cross-check against the sequential algorithm of [BKS 93].
	if seq := spjoin.Join(r, s); len(seq) != len(pairs) {
		panic("parallel and sequential joins disagree")
	}
	fmt.Println("sequential cross-check passed")
}
