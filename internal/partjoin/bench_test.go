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

// BenchmarkRefinedVsUnrefinedClustered is the wall-clock side of
// TestRefinedBeatsUnrefinedClustered: warm re-joins of the clustered
// 60k × 60k workload with tile refinement off and at its auto threshold.
// The refined run is expected at least 1.25× faster at four workers.
func BenchmarkRefinedVsUnrefinedClustered(b *testing.B) {
	r, s := clusteredExtreme()
	for _, c := range []struct {
		name string
		thr  int64
	}{{"unrefined", RefineDisabled}, {"refined", 0}} {
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
