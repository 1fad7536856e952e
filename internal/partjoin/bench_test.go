package partjoin

import (
	"fmt"
	"testing"

	"spjoin/internal/tiger"
)

// BenchmarkJoinGrid sweeps the grid side on the seed workload — the
// tuning data behind autoGrid's rects-per-tile constant.
func BenchmarkJoinGrid(b *testing.B) {
	streets, mixed := tiger.Maps(0.02, 42)
	for _, g := range []int{0, 4, 6, 8, 11, 16, 24} {
		b.Run(fmt.Sprintf("grid%d", g), func(b *testing.B) {
			var j Joiner
			defer j.Close()
			cfg := Config{Grid: g}
			j.Join(streets, mixed, cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j.Join(streets, mixed, cfg)
			}
		})
	}
}

// BenchmarkSplitVsWholeClustered is the wall-clock side of
// TestRefinedBeatsUnrefinedClustered: warm re-joins of the clustered
// 60k × 60k workload with the hot-tile split off and at its auto trigger.
func BenchmarkSplitVsWholeClustered(b *testing.B) {
	r, s := clusteredExtreme()
	for _, c := range []struct {
		name string
		thr  int64
	}{{"whole", RefineDisabled}, {"split", 0}} {
		b.Run(c.name, func(b *testing.B) {
			var j Joiner
			defer j.Close()
			cfg := Config{Workers: 4, RefineThreshold: c.thr}
			j.Join(r, s, cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j.Join(r, s, cfg)
			}
		})
	}
}
