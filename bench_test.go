package spjoin

// Benchmarks regenerating every table and figure of the paper (at a reduced
// workload scale so `go test -bench` stays quick; run cmd/experiments at
// -scale 1.0 for the full-scale numbers recorded in EXPERIMENTS.md), plus
// ablation benchmarks for the design choices called out in DESIGN.md.
//
// The per-figure benchmarks report the paper's own metric (virtual response
// time, disk accesses) via b.ReportMetric in addition to wall time.

import (
	"io"
	"testing"
	"time"

	"path/filepath"
	"spjoin/internal/exp"

	"spjoin/internal/flight"
	"spjoin/internal/geom"
	"spjoin/internal/join"
	"spjoin/internal/pagefile"
	"spjoin/internal/parjoin"
	"spjoin/internal/parnative"
	"spjoin/internal/partjoin"
	"spjoin/internal/rtree"
	"spjoin/internal/runtimeobs"
	"spjoin/internal/tiger"
	"spjoin/internal/timeline"
	"spjoin/internal/zorder"
)

// benchScale keeps bench iterations in the low-millisecond range.
const benchScale = 0.02

func benchWorkload(b *testing.B) *exp.Workload {
	b.Helper()
	return exp.NewWorkload(benchScale, 42)
}

// --- one benchmark per paper table/figure -------------------------------

func BenchmarkTable1(b *testing.B) {
	streets, mixed := tiger.Maps(benchScale, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := rtree.BulkLoadSTR(rtree.DefaultParams(), streets, 0.73)
		s := rtree.BulkLoadSTR(rtree.DefaultParams(), mixed, 0.73)
		_ = r.Stats()
		_ = s.Stats()
	}
}

func BenchmarkTable2(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exp.Table2(w, io.Discard)
	}
}

func BenchmarkFig5(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exp.Fig5(w, io.Discard)
	}
}

func BenchmarkFig7(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exp.Fig7(w, io.Discard)
	}
}

func BenchmarkFig8(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exp.Fig8(w, io.Discard)
	}
}

func BenchmarkFig9(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := benchWorkload(b) // fresh workload: Fig9 memoizes its sweep
		exp.Fig9(w, io.Discard)
	}
}

func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := benchWorkload(b)
		exp.Fig10(w, io.Discard)
	}
}

// --- representative single-configuration benches ------------------------

// BenchmarkSimulatedJoin runs one simulated parallel join per named variant
// and reports the virtual response time and disk accesses alongside wall
// time.
func BenchmarkSimulatedJoin(b *testing.B) {
	w := benchWorkload(b)
	for _, v := range []string{"lsr", "gsrr", "gd"} {
		b.Run(v, func(b *testing.B) {
			var res parjoin.Result
			for i := 0; i < b.N; i++ {
				res = parjoin.Run(w.R, w.S, parjoin.DefaultConfig(8, 8, w.Pages(800, 8)).Variant(v))
			}
			b.ReportMetric(res.ResponseTime.Seconds(), "virtual-s")
			b.ReportMetric(float64(res.DiskAccesses), "disk-accesses")
		})
	}
}

// BenchmarkSequentialJoin measures the pure CPU cost of the [BKS 93] filter
// join.
func BenchmarkSequentialJoin(b *testing.B) {
	w := benchWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		join.Sequential(w.R, w.S, join.Options{})
	}
}

// BenchmarkKernelExpand isolates the join kernel's steady state: node sweep
// caches are prebuilt and the scratch buffers warmed, so the measured loop is
// exactly the per-node-pair work the traversal repeats. Both sub-benchmarks
// must report 0 allocs/op — that is the zero-allocation contract of
// join.Scratch (see DESIGN.md, "Kernel layers").
func BenchmarkKernelExpand(b *testing.B) {
	w := benchWorkload(b)
	w.R.PrepareSweep()
	w.S.PrepareSweep()
	src := join.DirectSource{R: w.R, S: w.S}
	root, ok := join.RootPair(w.R, w.S)
	if !ok {
		b.Fatal("empty workload")
	}

	b.Run("expand-root", func(b *testing.B) {
		nr := src.Node(join.SideR, root.RPage, root.RLevel)
		ns := src.Node(join.SideS, root.SPage, root.SLevel)
		var sc join.Scratch
		sc.Expand(nr, ns, join.Options{}) // warm the scratch buffers
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sc.Expand(nr, ns, join.Options{})
		}
	})

	b.Run("engine-run", func(b *testing.B) {
		e := join.Engine{
			Src:           src,
			OnCandidates:  func([]join.Candidate) {},
			OnComparisons: func(int) {},
		}
		e.Run(root) // warm scratch and traversal stack to steady state
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Run(root)
		}
	})
}

// --- in-memory engine head-to-head (DESIGN.md: partition-based engine) ---

// BenchmarkPartitionJoin measures the grid-partitioned in-memory join in
// steady state: the Joiner is reused across unchanged inputs, so after
// warm-up every buffer is grown to size, each join is allocation-free
// (the zero-allocation contract pinned by TestJoinerReuseZeroAlloc), and
// the mirror-check pass proves the cached tile segments reusable — the
// join is one sequential scan plus the per-tile sweeps.
func BenchmarkPartitionJoin(b *testing.B) {
	streets, mixed := tiger.Maps(benchScale, 42)
	var j partjoin.Joiner
	defer j.Close()
	cfg := partjoin.Config{}
	j.Join(streets, mixed, cfg) // warm buffers and pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.Join(streets, mixed, cfg)
	}
}

// BenchmarkPartitionJoinIntrospected is BenchmarkPartitionJoin plus
// assembling a flight.Record from the result (phase timings, the top tiles
// and heat grid every join fills) and adding it to a warm recorder every
// join — exactly what cmd/spjoin does per execution under -explain. The
// delta against BenchmarkPartitionJoin is the recording overhead; the
// recorder keeps this allocation-free in steady state.
func BenchmarkPartitionJoinIntrospected(b *testing.B) {
	streets, mixed := tiger.Maps(benchScale, 42)
	var j partjoin.Joiner
	defer j.Close()
	var cfg partjoin.Config
	flights := flight.NewRecorder(16)
	record := func() {
		res := j.Join(streets, mixed, cfg)
		rec := flight.Record{
			Engine: "partition",
			NR:     len(streets), NS: len(mixed),
			Candidates: len(res.Candidates), Comparisons: res.Comparisons,
			GX: res.GX, GY: res.GY, Partitions: res.Partitions,
			PhaseNS:  res.PhaseNS,
			TopTiles: res.TopTiles,
			HeatW:    res.HeatW, HeatH: res.HeatH, Heat: res.Heat,
		}
		flights.Add(&rec)
	}
	record() // warm buffers, pool and ring slots
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		record()
	}
}

// BenchmarkPartitionJoinHealth is BenchmarkPartitionJoinIntrospected with
// the runtime health observatory on top: a runtimeobs.Sampler window
// bracketing each join (two runtime/metrics reads reduced to scalars), a
// live-progress slot receiving every work unit, and the Health window
// stored in the flight record. The delta against Introspected is the
// sampler+progress overhead: ~3µs fixed per window (two runtime/metrics
// reads, see BenchmarkSamplerWindow) plus two contended atomic adds per
// work unit — a few percent at this toy scale (~64µs joins, hundreds of
// units), vanishing on realistic joins. Steady state stays 0 allocs/op.
func BenchmarkPartitionJoinHealth(b *testing.B) {
	streets, mixed := tiger.Maps(benchScale, 42)
	var j partjoin.Joiner
	defer j.Close()
	live := runtimeobs.NewLive()
	cfg := partjoin.Config{Progress: live.NewProgress("partition")}
	flights := flight.NewRecorder(16)
	sampler := runtimeobs.NewSampler()
	record := func() {
		t0 := time.Now()
		sampler.Begin()
		res := j.Join(streets, mixed, cfg)
		rec := flight.Record{
			Engine: "partition",
			NR:     len(streets), NS: len(mixed),
			Candidates: len(res.Candidates), Comparisons: res.Comparisons,
			GX: res.GX, GY: res.GY, Partitions: res.Partitions,
			PhaseNS:  res.PhaseNS,
			TopTiles: res.TopTiles,
			HeatW:    res.HeatW, HeatH: res.HeatH, Heat: res.Heat,
			Health: sampler.End(time.Since(t0).Nanoseconds(), res.Workers),
		}
		flights.Add(&rec)
	}
	record() // warm buffers, pool, ring slots and the sampler
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		record()
	}
}

// rebuildRects is how many rects the cold benchmarks displace per
// iteration: past what the Joiner's delta tier patches in place (64 per
// join), so every iteration runs the full rebuild.
const rebuildRects = 96

// displacer toggles rebuildRects rects from the middle of r between their
// home position and one at half their MinX (inside the data MBR, so the
// grid geometry stays representative).
type displacer struct {
	side []rtree.Item
	home []geom.Rect
}

func newDisplacer(r []rtree.Item) *displacer {
	side := r[len(r)/2:][:rebuildRects]
	home := make([]geom.Rect, len(side))
	for i := range side {
		home[i] = side[i].Rect
	}
	return &displacer{side, home}
}

func (d *displacer) toggle(away bool) {
	for i, rc := range d.home {
		if away {
			w := rc.MaxX - rc.MinX
			rc.MinX *= 0.5
			rc.MaxX = rc.MinX + w
		}
		d.side[i].Rect = rc
	}
}

// rebuildJoin re-joins and insists the full rebuild served it: a cold
// benchmark that silently landed on a cheaper tier would measure nothing.
func rebuildJoin(b *testing.B, j *partjoin.Joiner, r, s []rtree.Item, cfg partjoin.Config) {
	if res := j.Join(r, s, cfg); res.Reuse != partjoin.ReuseRebuild {
		b.Fatalf("re-join served by the %q tier, want rebuild", res.Reuse)
	}
}

// BenchmarkPartitionJoinCold defeats the Joiner's reuse cache by moving
// rebuildRects rectangles across the world every iteration (staying inside
// the data MBR so the grid geometry itself is representative), forcing the
// worst-tier fallback each time: re-sort the disturbed order, recount,
// re-scatter. This is the honest cost of joining fresh data with a warm
// Joiner.
func BenchmarkPartitionJoinCold(b *testing.B) {
	streets, mixed := tiger.Maps(benchScale, 42)
	var j partjoin.Joiner
	defer j.Close()
	cfg := partjoin.Config{}
	j.Join(streets, mixed, cfg) // warm buffers and pool
	d := newDisplacer(streets)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.toggle(i%2 == 0)
		rebuildJoin(b, &j, streets, mixed, cfg)
	}
}

// skewedSides builds the clustered workload the skew benchmarks share: both sides pile up on the same gaussian hot spots (shared
// centerSeed), the distribution where a uniform grid leaves one tile with
// a quadratic sweep.
func skewedSides() (r, s []rtree.Item) {
	return tiger.GaussianClusters(12000, 4, 2, 0.05, 41, 42),
		tiger.GaussianClusters(12000, 4, 2, 0.05, 41, 43)
}

// BenchmarkPartitionJoinSkewed is the adversarial baseline: the clustered
// workload on the uniform grid with the hot-tile split disabled — the
// hottest tile dominates the join.
func BenchmarkPartitionJoinSkewed(b *testing.B) {
	r, s := skewedSides()
	var j partjoin.Joiner
	defer j.Close()
	cfg := partjoin.Config{RefineThreshold: partjoin.RefineDisabled}
	j.Join(r, s, cfg) // warm buffers and pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.Join(r, s, cfg)
	}
}

// BenchmarkPartitionJoinSkewedRefined is the same workload with the
// hot-tile split at its auto threshold: hot tiles' sweeps are cut into
// several work units. Steady state reuses the cached schedule, so this
// stays allocation-free like BenchmarkPartitionJoin.
func BenchmarkPartitionJoinSkewedRefined(b *testing.B) {
	r, s := skewedSides()
	var j partjoin.Joiner
	defer j.Close()
	cfg := partjoin.Config{RefineThreshold: 0}
	j.Join(r, s, cfg) // warm buffers, pool and schedule
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.Join(r, s, cfg)
	}
}

// BenchmarkNativeTreeJoin is the tree-based comparison point: the same
// workload joined by the work-stealing native executor over prebuilt
// R*-trees (tree construction excluded, like the partition benchmark
// excludes nothing — it has no build phase).
func BenchmarkNativeTreeJoin(b *testing.B) {
	streets, mixed := tiger.Maps(benchScale, 42)
	r := rtree.BulkLoadSTR(rtree.DefaultParams(), streets, 0.73)
	s := rtree.BulkLoadSTR(rtree.DefaultParams(), mixed, 0.73)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parnative.Join(r, s, parnative.Config{})
	}
}

// BenchmarkPartitionJoinColdSkewed is the cold path on clustered data at
// 10x the skew benchmarks' cardinality: every iteration disturbs the
// order of rebuildRects rectangles so the build re-sorts, recounts and
// re-scatters a workload whose tiles are heavily skewed — hot tiles are
// split into units by the schedule build. Gates the cold build against the
// regime where the split matters most (many tiles, a few huge ones).
// Declared after the other snapshot
// benchmarks on purpose: its 240k-rect working set inflates the GC-paced
// heap for the rest of the process, so it must run last in a
// whole-snapshot `go test -bench` invocation to keep the smaller
// benchmarks' figures comparable.
func BenchmarkPartitionJoinColdSkewed(b *testing.B) {
	r := tiger.GaussianClusters(120000, 4, 2, 0.05, 41, 42)
	s := tiger.GaussianClusters(120000, 4, 2, 0.05, 41, 43)
	var j partjoin.Joiner
	defer j.Close()
	cfg := partjoin.Config{}
	j.Join(r, s, cfg) // warm buffers and pool
	d := newDisplacer(r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.toggle(i%2 == 0)
		rebuildJoin(b, &j, r, s, cfg)
	}
}

// BenchmarkPartitionJoinRejoinMutated is the resident Joiner's reuse tiers
// at paper scale (tiger.Maps(1.0): 131,443 × 127,312), one sub-benchmark per
// step kind of the repository benchmark's tiger_rejoin cycle: clean (nothing
// changed), intile / crosstile / reorder (one rect changed — grown inside
// its tile, moved two tile rows, mirrored across the world), restore3 (all
// three put back at once) — and hottile, the in-tile growth applied to a rect
// of the costliest tile, which is split: the change edits the tile's
// segments, re-costs its units and must leave the schedule standing. Only the re-join
// that meets the change is timed; getting back to the base state happens off
// the clock. Every tier is allocation-free. Declared after the small snapshot benchmarks, like the
// other paper-scale ones.
func BenchmarkPartitionJoinRejoinMutated(b *testing.B) {
	r, s := tiger.Maps(1.0, 42)
	var j partjoin.Joiner
	defer j.Close()
	cfg := partjoin.Config{}
	muts, ok := tiger.RejoinMutations(r, s, j.Join(r, s, cfg).GX)
	if !ok {
		b.Fatal("no rect qualifies for one of the mutations")
	}
	var home [3]geom.Rect
	for k, m := range muts {
		home[k] = r[m.Idx].Rect
	}
	set := func(mutated bool, ks ...int) {
		for _, k := range ks {
			if r[muts[k].Idx].Rect = home[k]; mutated {
				r[muts[k].Idx].Rect = muts[k].Next
			}
		}
	}
	join := func(want partjoin.Reuse, rects int) {
		if res := j.Join(r, s, cfg); res.Reuse != want || res.DeltaRects != rects {
			b.Fatalf("re-join served by the %q tier patching %d rects, want %q and %d",
				res.Reuse, res.DeltaRects, want, rects)
		}
	}
	set(true, 0, 1, 2) // warm every state the steps visit
	join(partjoin.ReuseDelta, 3)
	set(false, 0, 1, 2)
	join(partjoin.ReuseDelta, 3)
	b.Run("clean", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			join(partjoin.ReuseClean, 0)
		}
	})
	for k, name := range []string{"intile", "crosstile", "reorder"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				set(false, k)
				j.Join(r, s, cfg)
				set(true, k)
				b.StartTimer()
				join(partjoin.ReuseDelta, 1)
			}
			b.StopTimer()
			set(false, k)
			j.Join(r, s, cfg)
		})
	}
	b.Run("restore3", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			set(true, 0, 1, 2)
			j.Join(r, s, cfg)
			set(false, 0, 1, 2)
			b.StartTimer()
			join(partjoin.ReuseDelta, 3)
		}
	})
	b.Run("hottile", func(b *testing.B) {
		res := j.Join(r, s, cfg)
		if res.RefinedTiles == 0 {
			b.Fatal("no tile is split")
		}
		hot, ok := tiger.HotTileGrowth(r, s, res.GX)
		if !ok {
			b.Fatal("no rect of the costliest tile can grow inside it")
		}
		grown, base := hot.Next, r[hot.Idx].Rect
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// Growing and shrinking back are the same kind of change.
			r[hot.Idx].Rect = grown
			if i%2 != 0 {
				r[hot.Idx].Rect = base
			}
			res := j.Join(r, s, cfg)
			if res.Reuse != partjoin.ReuseDelta || res.PhaseNS[timeline.PhaseRefine] != 0 {
				b.Fatalf("re-join served by the %q tier with %d ns of schedule rebuild, want delta and none",
					res.Reuse, res.PhaseNS[timeline.PhaseRefine])
			}
		}
		b.StopTimer()
		r[hot.Idx].Rect = base
		j.Join(r, s, cfg)
	})
}

// BenchmarkBulkLoadSTRParallel is the tree engine's cold build at paper
// scale: the 131,443 street MBRs of tiger.Maps(1.0) packed at the fill the
// repository benchmark uses, workers = GOMAXPROCS. It is dominated by the
// two keyed radix orderings per level and the entry gather. Declared after
// ColdSkewed for the same reason that one is declared late.
func BenchmarkBulkLoadSTRParallel(b *testing.B) {
	streets, _ := tiger.Maps(1.0, 42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rtree.BulkLoadSTRParallel(rtree.DefaultParams(), streets, 0.73, 0)
	}
}

// --- ablation benches (DESIGN.md: design choices) ------------------------

// BenchmarkAblationRestriction compares the sequential join with and
// without the search-space restriction of §2.2 (technique i).
func BenchmarkAblationRestriction(b *testing.B) {
	w := benchWorkload(b)
	for _, on := range []bool{true, false} {
		name := map[bool]string{true: "on", false: "off"}[on]
		b.Run(name, func(b *testing.B) {
			opts := join.Options{DisableRestriction: !on}
			comparisons := 0
			for i := 0; i < b.N; i++ {
				comparisons = 0
				root, _ := join.RootPair(w.R, w.S)
				e := join.Engine{
					Src:           join.DirectSource{R: w.R, S: w.S},
					Opts:          opts,
					OnCandidates:  func([]join.Candidate) {},
					OnComparisons: func(n int) { comparisons += n },
				}
				e.Run(root)
			}
			b.ReportMetric(float64(comparisons), "comparisons")
		})
	}
}

// BenchmarkAblationSweep compares the plane-sweep node join (technique ii)
// against nested loops.
func BenchmarkAblationSweep(b *testing.B) {
	w := benchWorkload(b)
	for _, sweep := range []bool{true, false} {
		name := map[bool]string{true: "plane-sweep", false: "nested-loops"}[sweep]
		b.Run(name, func(b *testing.B) {
			opts := join.Options{NestedLoops: !sweep}
			for i := 0; i < b.N; i++ {
				join.Sequential(w.R, w.S, opts)
			}
		})
	}
}

// BenchmarkAblationPathBuffer compares the simulated join with and without
// the per-processor R*-tree path buffers.
func BenchmarkAblationPathBuffer(b *testing.B) {
	w := benchWorkload(b)
	for _, on := range []bool{true, false} {
		name := map[bool]string{true: "on", false: "off"}[on]
		b.Run(name, func(b *testing.B) {
			cfg := parjoin.DefaultConfig(8, 8, w.Pages(800, 8))
			cfg.PathBuffer = on
			var res parjoin.Result
			for i := 0; i < b.N; i++ {
				res = parjoin.Run(w.R, w.S, cfg)
			}
			b.ReportMetric(res.ResponseTime.Seconds(), "virtual-s")
			b.ReportMetric(float64(res.Buffer.Accesses()), "buffer-accesses")
		})
	}
}

// BenchmarkAblationTaskDepth varies the task-creation descend threshold
// (TaskFactor): larger factors split the join into more, smaller tasks.
func BenchmarkAblationTaskDepth(b *testing.B) {
	w := benchWorkload(b)
	for _, factor := range []int{1, 3, 12} {
		b.Run(map[int]string{1: "factor1", 3: "factor3", 12: "factor12"}[factor], func(b *testing.B) {
			cfg := parjoin.DefaultConfig(8, 8, w.Pages(800, 8))
			cfg.TaskFactor = factor
			var res parjoin.Result
			for i := 0; i < b.N; i++ {
				res = parjoin.Run(w.R, w.S, cfg)
			}
			b.ReportMetric(res.ResponseTime.Seconds(), "virtual-s")
			b.ReportMetric(float64(res.TasksCreated), "tasks")
		})
	}
}

// BenchmarkAblationMinSplit varies the minimum work-load size worth
// splitting during task reassignment.
func BenchmarkAblationMinSplit(b *testing.B) {
	w := benchWorkload(b)
	for _, min := range []int{2, 8, 32} {
		b.Run(map[int]string{2: "min2", 8: "min8", 32: "min32"}[min], func(b *testing.B) {
			cfg := parjoin.DefaultConfig(8, 8, w.Pages(800, 8)).Variant("lsr")
			cfg.Reassign = parjoin.ReassignAll
			cfg.MinSteal = min
			var res parjoin.Result
			for i := 0; i < b.N; i++ {
				res = parjoin.Run(w.R, w.S, cfg)
			}
			b.ReportMetric(res.ResponseTime.Seconds(), "virtual-s")
			b.ReportMetric(float64(res.Reassignments), "reassignments")
		})
	}
}

// BenchmarkAblationSTR compares tree construction by dynamic insertion
// against STR bulk loading.
func BenchmarkAblationSTR(b *testing.B) {
	streets, _ := tiger.Maps(benchScale, 42)
	b.Run("insert", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t := rtree.New(rtree.DefaultParams())
			for _, it := range streets {
				t.Insert(it.ID, it.Rect)
			}
		}
	})
	b.Run("str", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rtree.BulkLoadSTR(rtree.DefaultParams(), streets, 0.73)
		}
	})
}

// BenchmarkBaselines compares the three filter-join approaches on the same
// workload: the R*-tree join of this paper, the same join over Guttman
// R-trees, and the z-ordering merge join of [OM 88].
func BenchmarkBaselines(b *testing.B) {
	streets, mixed := tiger.Maps(benchScale, 42)
	rstarR := rtree.BulkLoadSTR(rtree.DefaultParams(), streets, 0.73)
	rstarS := rtree.BulkLoadSTR(rtree.DefaultParams(), mixed, 0.73)

	buildGuttman := func(items []rtree.Item) *rtree.Tree {
		t := rtree.New(rtree.GuttmanParams(rtree.QuadraticSplit))
		for _, it := range items {
			t.Insert(it.ID, it.Rect)
		}
		return t
	}
	guttR := buildGuttman(streets)
	guttS := buildGuttman(mixed)

	b.Run("rstar-join", func(b *testing.B) {
		n := 0
		for i := 0; i < b.N; i++ {
			n = len(join.Sequential(rstarR, rstarS, join.Options{}))
		}
		b.ReportMetric(float64(n), "candidates")
	})
	b.Run("guttman-join", func(b *testing.B) {
		n := 0
		for i := 0; i < b.N; i++ {
			n = len(join.Sequential(guttR, guttS, join.Options{}))
		}
		b.ReportMetric(float64(n), "candidates")
	})
	b.Run("zorder-join", func(b *testing.B) {
		n := 0
		for i := 0; i < b.N; i++ {
			n = len(zorder.JoinItems(streets, mixed, 20))
		}
		b.ReportMetric(float64(n), "candidates")
	})
}

// BenchmarkOutOfCoreJoin measures the filter join over trees persisted in
// real page files, through a buffer pool far smaller than the files
// (actual disk I/O, not the simulator).
func BenchmarkOutOfCoreJoin(b *testing.B) {
	streets, mixed := tiger.Maps(benchScale, 42)
	dir := b.TempDir()
	save := func(items []rtree.Item, name string) *rtree.PagedTree {
		pf, err := pagefile.Create(filepath.Join(dir, name))
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { pf.Close() })
		tree := rtree.BulkLoadSTR(rtree.DefaultParams(), items, 0.73)
		if err := tree.SaveToPageFile(pf); err != nil {
			b.Fatal(err)
		}
		pt, err := rtree.OpenPagedTree(pf, 32)
		if err != nil {
			b.Fatal(err)
		}
		return pt
	}
	r := save(streets, "r.spjf")
	s := save(mixed, "s.spjf")
	b.ResetTimer()
	var reads int64
	for i := 0; i < b.N; i++ {
		var err error
		if _, reads, err = JoinOutOfCore(r, s); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(reads), "page-reads")
}
