// Package runtimeobs_test holds the cross-package observation-only proof:
// it imports the engines, which the library package cannot.
package runtimeobs_test

import (
	"testing"
	"time"

	"spjoin/internal/join"
	"spjoin/internal/partjoin"
	"spjoin/internal/rtree"
	"spjoin/internal/runtimeobs"
	"spjoin/internal/tiger"
)

// goldenCounters are the deterministic partjoin metrics a fixed
// join must reproduce bit-identically run over run (wall_ms is excluded:
// it is nondeterministic with or without sampling).
var goldenCounters = []string{
	"partjoin.partitions",
	"partjoin.duplicates_suppressed",
	"partjoin.comparisons",
	"partjoin.candidates",
	"partjoin.refined_tiles",
	"partjoin.subtiles",
}

func joinOnce(tb testing.TB, r, s []rtree.Item, sample bool) ([]int64, map[string]int64, runtimeobs.Health) {
	tb.Helper()
	var j partjoin.Joiner
	defer j.Close()
	cfg := partjoin.Config{Workers: 4, RefineThreshold: 1}
	var sampler *runtimeobs.Sampler
	if sample {
		sampler = runtimeobs.NewSampler()
		cfg.Progress = runtimeobs.NewProgress("partition")
	}
	t0 := time.Now()
	sampler.Begin()
	res := j.Join(r, s, cfg)
	health := sampler.End(time.Since(t0).Nanoseconds(), res.Workers)
	join.SortCandidates(res.Candidates)

	pairs := make([]int64, 0, 2*len(res.Candidates))
	for _, c := range res.Candidates {
		pairs = append(pairs, int64(c.R), int64(c.S))
	}
	counters := map[string]int64{
		"partjoin.partitions":            int64(res.Partitions),
		"partjoin.duplicates_suppressed": int64(res.Duplicates),
		"partjoin.comparisons":           int64(res.Comparisons),
		"partjoin.candidates":            int64(len(res.Candidates)),
		"partjoin.refined_tiles":         int64(res.RefinedTiles),
		"partjoin.subtiles":              int64(res.Subtiles),
	}
	return pairs, counters, health
}

// TestHealthObservationOnly is the acceptance pin for the tentpole: a run
// bracketed by the health sampler with a live-progress slot attached
// produces the exact pair sequence and golden metrics of an unsampled
// run — observation changes nothing but what is observed.
func TestHealthObservationOnly(t *testing.T) {
	r := tiger.GaussianClusters(3000, 4, 2, 0.05, 41, 42)
	s := tiger.GaussianClusters(3000, 4, 2, 0.05, 41, 43)

	plainPairs, plainCounters, plainHealth := joinOnce(t, r, s, false)
	obsPairs, obsCounters, obsHealth := joinOnce(t, r, s, true)

	if plainHealth.Sampled {
		t.Fatal("unsampled run reported a health window")
	}
	if !obsHealth.Sampled {
		t.Fatal("sampled run reported no health window")
	}
	if got := obsHealth.WorkNS + obsHealth.GCNS + obsHealth.SchedNS + obsHealth.ContentionNS; got != obsHealth.WallNS {
		t.Fatalf("attribution does not tile the wall: %d != %d", got, obsHealth.WallNS)
	}

	if len(plainPairs) != len(obsPairs) {
		t.Fatalf("pair count differs: %d unsampled, %d sampled",
			len(plainPairs)/2, len(obsPairs)/2)
	}
	for i := range plainPairs {
		if plainPairs[i] != obsPairs[i] {
			t.Fatalf("pair sequence diverges at element %d: %d vs %d",
				i, plainPairs[i], obsPairs[i])
		}
	}
	for _, name := range goldenCounters {
		if plainCounters[name] != obsCounters[name] {
			t.Fatalf("%s differs: %d unsampled, %d sampled",
				name, plainCounters[name], obsCounters[name])
		}
	}
}
