package partjoin

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"spjoin/internal/join"
	"spjoin/internal/rtree"
	"spjoin/internal/tiger"
)

// pairDigest is an FNV-64a digest of a candidate list in (R, S) order.
func pairDigest(cands []join.Candidate) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, c := range sortedCands(cands) {
		binary.LittleEndian.PutUint32(b[:4], uint32(c.R))
		binary.LittleEndian.PutUint32(b[4:], uint32(c.S))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestPinnedWork pins the work the engine does on two fixed inputs at a
// fixed grid: the comparisons its sweeps make, the duplicates the
// reference-point test suppresses, the work units it joins, the tiles it
// splits, and the pairs it returns (count and digest). A kernel or emit
// change that only makes the join faster leaves every figure as it is, on
// the vector and the scalar kernel path alike (the purego build runs this
// test too). The split depends on the worker count, so the clustered
// input has one row per count; its comparisons and duplicates do not.
func TestPinnedWork(t *testing.T) {
	streets, mixed := tiger.Maps(0.05, 42)
	cr := tiger.GaussianClusters(6000, 4, 2, 0.1, 41, 7)
	cs := tiger.GaussianClusters(6000, 4, 2, 0.1, 41, 8)
	type work struct{ comparisons, duplicates, partitions, refinedTiles, pairs int }
	for _, tc := range []struct {
		name   string
		r, s   []rtree.Item
		cfg    Config
		want   map[int]work // by worker count
		digest uint64
	}{
		{"tiger", streets, mixed, Config{Grid: 8, RefineThreshold: RefineDisabled},
			map[int]work{1: {27427, 0, 64, 0, 407}, 4: {27427, 0, 64, 0, 407}}, 0x8f687a7d7f823b1f},
		{"clusters", cr, cs, Config{Grid: 16},
			map[int]work{1: {129105, 0, 16, 3, 1797}, 4: {129105, 0, 40, 4, 1797}}, 0x4abe067355ff4305},
	} {
		for _, workers := range []int{1, 4} {
			cfg := tc.cfg
			cfg.Workers = workers
			res := Join(tc.r, tc.s, cfg)
			got := work{res.Comparisons, res.Duplicates, res.Partitions, res.RefinedTiles, len(res.Candidates)}
			if got != tc.want[workers] {
				t.Errorf("%s/w%d: %+v, want %+v", tc.name, workers, got, tc.want[workers])
			}
			if d := pairDigest(res.Candidates); d != tc.digest {
				t.Errorf("%s/w%d: pair digest %#x, want %#x", tc.name, workers, d, tc.digest)
			}
		}
	}
}
