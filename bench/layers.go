package main

import (
	"runtime"
	"sort"
	"strings"
	"time"

	"spjoin/internal/geom"
	"spjoin/internal/join"
	"spjoin/internal/parnative"
	"spjoin/internal/partjoin"
	"spjoin/internal/plan"
	"spjoin/internal/rtree"
)

// sweepBlock is the fixed block length of the geom kernel probes: long
// enough to amortise the call, short enough to stay in L2.
const sweepBlock = 4096

// sweepBytesPerCmp and rectBytes state how the kernel byte rates are
// computed: a comparison loads three float64 (MinX, MinY, MaxY) of the
// scanned rect, and every rect is read once as the scanning one.
const (
	sweepBytesPerCmp = 24
	rectBytes        = 32
)

// probes holds what the per-layer probes of one workload keep between
// repetitions. Every probe runs on the workload's own inputs, also where
// the workload's op does not use that layer, so every per-layer metric has
// a value on every workload.
type probes struct {
	in       *instance
	tr       *tracer
	rj       *rejoiner
	rt, st   *rtree.Tree
	rRects   []geom.Rect // input order
	sRects   []geom.Rect
	ordR     []int32
	ordS     []int32
	scratch  []int32
	rBlocks  []geom.Planes // sweep-sorted blocks of R and the S block that
	sBlocks  []geom.Planes // starts at the same X
	pairs    []geom.IndexPair
	mask     []uint64
	membuf   []uint64
	samples  map[string][]float64 // per-repetition values; the metric is their median
	counts   map[string]float64   // counts and ratios of the last repetition
	failed   int
	verified int
}

func rectsOf(items []rtree.Item) []geom.Rect {
	out := make([]geom.Rect, len(items))
	for i := range items {
		out[i] = items[i].Rect
	}
	return out
}

func identity(ord []int32) {
	for i := range ord {
		ord[i] = int32(i)
	}
}

func newProbes(in *instance, tr *tracer, membufBytes int, oracleT *time.Duration) *probes {
	p := &probes{in: in, tr: tr, rj: in.rj, rt: in.rt, st: in.st,
		samples: map[string][]float64{}, counts: map[string]float64{}}
	if p.rj == nil {
		cfg := partjoinConfig(plan.Decide(plan.Analyze(in.r, in.s), in.workers))
		cfg.Workers = in.workers
		p.rj = newRejoiner(in.r, in.s, cfg, &in.want, oracleT)
	}
	if p.rt == nil {
		p.rt, p.st = buildTrees(in.r, in.s, in.workers)
	}
	p.rRects, p.sRects = rectsOf(in.r), rectsOf(in.s)
	p.ordR, p.ordS = make([]int32, len(in.r)), make([]int32, len(in.s))

	// Sweep-sorted planes, cut into blocks. The S block of an R block
	// starts at the first S rect not left of the R block's first rect, so
	// the two overlap in X the way the two sides of one tile do.
	identity(p.ordR)
	identity(p.ordS)
	p.scratch = geom.SortOrderByMinXScratch(p.rRects, p.ordR, p.scratch)
	p.scratch = geom.SortOrderByMinXScratch(p.sRects, p.ordS, p.scratch)
	sorted := func(rects []geom.Rect, ord []int32) *geom.Planes {
		out := make([]geom.Rect, len(ord))
		for i, o := range ord {
			out[i] = rects[o]
		}
		var pl geom.Planes
		pl.FromRects(out)
		return &pl
	}
	rp, sp := sorted(p.rRects, p.ordR), sorted(p.sRects, p.ordS)
	for lo := 0; lo < rp.Len(); lo += sweepBlock {
		x := rp.MinX[lo]
		slo := sort.Search(sp.Len(), func(i int) bool { return sp.MinX[i] >= x })
		if slo == sp.Len() {
			break
		}
		p.rBlocks = append(p.rBlocks, rp.View(lo, min(lo+sweepBlock, rp.Len())))
		p.sBlocks = append(p.sBlocks, sp.View(slo, min(slo+sweepBlock, sp.Len())))
	}
	p.mask = make([]uint64, geom.MaskWords(sweepBlock))
	p.membuf = make([]uint64, membufBytes/8)
	for i := range p.membuf {
		p.membuf[i] = uint64(i)
	}
	return p
}

// timed runs f inside a span and returns the span's duration in ms: every
// per-layer time is a span recorded from outside the layer.
func (p *probes) timed(name string, f func()) float64 {
	sp := p.tr.begin(name)
	f()
	p.tr.end(sp)
	return p.tr.spans[sp].ms()
}

func (p *probes) sample(metric string, v float64) {
	p.samples[metric] = append(p.samples[metric], v)
}

func (p *probes) check(ok bool) {
	p.verified++
	if !ok {
		p.failed++
	}
}

func imbalance(perWorker []int) float64 {
	sum, hi := 0, 0
	for _, n := range perWorker {
		sum += n
		hi = max(hi, n)
	}
	if sum == 0 {
		return 1
	}
	return float64(hi) * float64(len(perWorker)) / float64(sum)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// once runs every probe one time under a "probe" root span.
func (p *probes) once() {
	root := p.tr.begin("probe")
	defer p.tr.end(root)
	in, c := p.in, p.counts
	want := in.want[0]

	// plan
	var st plan.Stats
	p.sample("plan.analyze_ms", p.timed("plan.Analyze", func() { st = plan.Analyze(in.r, in.s) }))
	d := plan.Decide(st, in.workers)
	c["plan.engine_tree"] = 0
	if d.Engine == plan.EngineTree {
		c["plan.engine_tree"] = 1
	}
	c["plan.refine_auto"] = 0
	if d.Engine == plan.EnginePartition && d.RefineThreshold == 0 {
		c["plan.refine_auto"] = 1
	}
	c["plan.grid"] = float64(d.Grid)
	c["plan.workers"] = float64(d.Workers)

	// partjoin: one-shot cold at full and at one worker, then the reuse tiers.
	cfg := partjoinConfig(d)
	cfg.Workers = in.workers
	var res partjoin.Result
	cold := p.timed("partjoin.Join", func() { res = partjoin.Join(in.r, in.s, cfg) })
	p.check(digestOf(res.Candidates) == want)
	cfg1 := cfg
	cfg1.Workers = 1
	var res1 partjoin.Result
	cold1 := p.timed("partjoin.Join/w1", func() { res1 = partjoin.Join(in.r, in.s, cfg1) })
	p.check(digestOf(res1.Candidates) == want)
	p.sample("partjoin.cold_ms", cold)
	p.sample("partjoin.cold_w1_ms", cold1)
	p.sample("partjoin.speedup", ratio(cold1, cold))
	var step [5]float64
	_, ok := p.rj.cycle(p.tr, &step)
	p.check(ok)
	p.sample("partjoin.clean_ms", step[1])
	p.sample("partjoin.intile_ms", step[2])
	p.sample("partjoin.recount_ms", step[3])
	p.sample("partjoin.resort_ms", step[4])
	p.sample("partjoin.build_ms", cold-step[1])
	pairs := float64(len(res.Candidates))
	c["partjoin.candidates"] = pairs
	c["partjoin.comparisons"] = float64(res.Comparisons)
	c["partjoin.duplicates"] = float64(res.Duplicates)
	c["partjoin.partitions"] = float64(res.Partitions)
	c["partjoin.refined_tiles"] = float64(res.RefinedTiles)
	c["partjoin.subtiles"] = float64(res.Subtiles)
	c["partjoin.cmp_per_pair"] = ratio(float64(res.Comparisons), pairs)
	c["partjoin.dup_ratio"] = ratio(float64(res.Duplicates), pairs)
	c["partjoin.worker_imbalance"] = imbalance(res.PerWorker)

	// geom: the order sort from input order, then the two Planes kernels
	// over the fixed blocks, then the memory-bandwidth reference.
	identity(p.ordR)
	identity(p.ordS)
	p.sample("geom.sort_ms", p.timed("geom.SortOrderByMinXScratch", func() {
		p.scratch = geom.SortOrderByMinXScratch(p.rRects, p.ordR, p.scratch)
		p.scratch = geom.SortOrderByMinXScratch(p.sRects, p.ordS, p.scratch)
	}))
	cmps, rects := 0, 0
	ms := p.timed("geom.SweepPairsPlanesDense", func() {
		for b := range p.rBlocks {
			var n int
			p.pairs, n = geom.SweepPairsPlanesDense(&p.rBlocks[b], &p.sBlocks[b], p.pairs[:0])
			cmps += n
			rects += p.rBlocks[b].Len() + p.sBlocks[b].Len()
		}
	})
	p.sample("geom.sweep_ns_per_cmp", ratio(ms*1e6, float64(cmps)))
	p.sample("geom.sweep_mrects_per_s", ratio(float64(rects)/1e6, ms/1e3))
	p.sample("geom.sweep_gb_per_s", ratio(float64(cmps*sweepBytesPerCmp+rects*rectBytes)/1e9, ms/1e3))
	tested := 0
	ms = p.timed("geom.IntersectBatchPlanes", func() {
		for b := range p.rBlocks {
			rb, sb := &p.rBlocks[b], &p.sBlocks[b]
			for q := 0; q < min(64, rb.Len()); q++ {
				geom.IntersectBatchPlanes(rb.RectAt(q), sb, p.mask)
				tested += sb.Len()
			}
		}
	})
	p.sample("geom.batch_ns_per_rect", ratio(ms*1e6, float64(tested)))
	var sum uint64
	ms = p.timed("bench.membw", func() { sum = streamSum(p.membuf) })
	sink = sum
	p.sample("geom.membw_gb_per_s", ratio(float64(len(p.membuf)*8)/1e9, ms/1e3))

	// rtree: fresh bulk loads of both sides at full and at one worker.
	var rt, st2 *rtree.Tree
	load := func(workers int) func() {
		return func() { rt, st2 = buildTrees(in.r, in.s, workers) }
	}
	p.sample("rtree.bulkload_w1_ms", p.timed("rtree.BulkLoadSTRParallel/w1", load(1)))
	p.sample("rtree.bulkload_ms", p.timed("rtree.BulkLoadSTRParallel", load(in.workers)))
	p.sample("rtree.prepare_sweep_ms", p.timed("rtree.PrepareSweep", func() {
		rt.PrepareSweep()
		st2.PrepareSweep()
	}))
	rs, ss := rt.Stats(), st2.Stats()
	c["rtree.nodes"] = float64(rs.DataPages + rs.DirectoryPages + ss.DataPages + ss.DirectoryPages)
	c["rtree.height"] = float64(max(rs.Height, ss.Height))

	// parnative on the resident trees.
	var nres parnative.Result
	a0, _ := readHeapCounters()
	par := p.timed("parnative.Join", func() {
		nres = parnative.Join(p.rt, p.st, parnative.Config{Workers: in.workers})
	})
	a1, _ := readHeapCounters()
	p.check(digestOf(nres.Candidates) == want)
	var nres1 parnative.Result
	par1 := p.timed("parnative.Join/w1", func() {
		nres1 = parnative.Join(p.rt, p.st, parnative.Config{Workers: 1})
	})
	p.check(digestOf(nres1.Candidates) == want)
	p.sample("parnative.join_ms", par)
	p.sample("parnative.join_w1_ms", par1)
	p.sample("parnative.speedup", ratio(par1, par))
	p.sample("parnative.alloc_b_per_pair", ratio(float64(a1-a0), float64(len(nres.Candidates))))
	expanded := 0
	for _, n := range nres.PerWorker {
		expanded += n
	}
	c["parnative.tasks"] = float64(nres.Tasks)
	c["parnative.pairs_expanded"] = float64(expanded)
	p.sample("parnative.steals", float64(nres.Steals))
	p.sample("parnative.steal_success", ratio(float64(nres.Steals), float64(nres.StealAttempts)))
	p.sample("parnative.worker_imbalance", imbalance(nres.PerWorker))

	// join: the single-threaded baseline, and the traversal alone.
	var seq []join.Candidate
	p.sample("join.sequential_ms", p.timed("join.Sequential", func() {
		seq = join.Sequential(p.rt, p.st, join.Options{})
	}))
	p.check(digestOf(seq) == want)
	found, cmp := 0, 0
	e := join.Engine{
		Src:           join.DirectSource{R: p.rt, S: p.st},
		OnCandidates:  func(cs []join.Candidate) { found += len(cs) },
		OnComparisons: func(n int) { cmp += n },
	}
	if rootPair, ok := join.RootPair(p.rt, p.st); ok {
		p.sample("join.engine_run_ms", p.timed("join.Engine.Run", func() { e.Run(rootPair) }))
	} else {
		p.sample("join.engine_run_ms", 0)
	}
	p.check(found == want.pairs)
	c["join.comparisons"] = float64(cmp)
}

// sink keeps the streaming sum alive.
var sink uint64

// streamSum is the memory-bandwidth reference: one sequential read of buf
// with eight independent accumulators, so the adds do not serialise.
func streamSum(buf []uint64) uint64 {
	var a [8]uint64
	i := 0
	for ; i+8 <= len(buf); i += 8 {
		b := buf[i : i+8 : i+8]
		a[0] += b[0]
		a[1] += b[1]
		a[2] += b[2]
		a[3] += b[3]
		a[4] += b[4]
		a[5] += b[5]
		a[6] += b[6]
		a[7] += b[7]
	}
	for ; i < len(buf); i++ {
		a[0] += buf[i]
	}
	return a[0] + a[1] + a[2] + a[3] + a[4] + a[5] + a[6] + a[7]
}

// opPairsPerRound is how many traced/untraced op pairs one round of the
// traced pass runs before its probe repetition.
const opPairsPerRound = 4

// tracedPass measures the per-layer metrics of one workload for about
// length: rounds of traced and untraced ops in pairs, then one repetition of
// every probe. The untraced ops give the trace overhead (and the bench.*
// figures when no timed rounds ran).
func tracedPass(in *instance, length time.Duration, tr *tracer, membufBytes int, oracleT *time.Duration) (m map[string]float64, untraced sampleSet, attempted, failed int) {
	p := newProbes(in, tr, membufBytes, oracleT)
	var traced sampleSet
	runtime.GC()
	deadline := time.Now().Add(length)
	for round := 0; round < 3 || time.Now().Before(deadline); round++ {
		// Alternate which of a pair runs first, so neither always
		// inherits the other's garbage.
		for pair := 0; pair < opPairsPerRound; pair++ {
			if pair%2 == 0 {
				in.measureOp(tr, &traced)
				in.measureOp(nil, &untraced)
			} else {
				in.measureOp(nil, &untraced)
				in.measureOp(tr, &traced)
			}
		}
		p.once()
	}
	if p.rj != in.rj {
		p.rj.j.Close()
	}

	m = map[string]float64{}
	for name, vs := range p.samples {
		m[name] = median(vs)
	}
	for name, v := range p.counts {
		m[name] = v
	}
	m["bench.trace_overhead_pct"] = 100 * (ratio(traced.p50(), untraced.p50()) - 1)
	opSelf(tr.spans, m)
	attempted = len(traced.wallNS) + len(untraced.wallNS) + p.verified
	failed = traced.failed + untraced.failed + p.failed
	return m, untraced, attempted, failed
}

// opLayers are the layers an op can call into; op.<layer>_ms is the time
// the op spent inside that layer and op.self_ms the rest (glue in the
// benchmark's own op code), so the six add up to the op span.
var opLayers = []string{"plan", "partjoin", "rtree", "parnative"}

func opSelf(spans []span, m map[string]float64) {
	self := selfMS(spans)
	perOp := map[string][]float64{}
	var coverage []float64
	for i, s := range spans {
		if s.Name != "op" {
			continue
		}
		inLayer := map[string]float64{}
		for k := i + 1; k < len(spans) && spans[k].Op == s.Op; k++ {
			if spans[k].Parent == i {
				layer, _, _ := strings.Cut(spans[k].Name, ".")
				inLayer[layer] += self[k]
			}
		}
		for _, l := range opLayers {
			perOp["op."+l+"_ms"] = append(perOp["op."+l+"_ms"], inLayer[l])
		}
		perOp["op.self_ms"] = append(perOp["op.self_ms"], self[i])
		coverage = append(coverage, 100*(1-ratio(self[i], s.ms())))
	}
	for name, vs := range perOp {
		m[name] = median(vs)
	}
	m["op.span_coverage_pct"] = median(coverage)
}
