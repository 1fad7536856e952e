package main

import (
	"math"
	"time"

	"spjoin/internal/geom"
	"spjoin/internal/join"
	"spjoin/internal/parnative"
	"spjoin/internal/partjoin"
	"spjoin/internal/plan"
	"spjoin/internal/rtree"
	"spjoin/internal/tiger"
)

// treeFill is the bulk-load fill the CLI and the paper's trees use.
const treeFill = 0.73

// opKind selects what one op of a workload does.
type opKind int

const (
	opPlanned opKind = iota // analyze → decide → one-shot join on the chosen engine
	opRejoin                // one cycle of five re-joins on a resident partjoin.Joiner
	opTree                  // parnative.Join on trees built in set-up
)

type workload struct {
	name string
	why  string // kept equal to BENCHMARK.json by the smoke test
	kind opKind
	gen  func(seed int64, scale float64) (r, s []rtree.Item)
}

func scaled(n int, scale float64) int {
	return max(64, int(float64(n)*scale))
}

func genTiger(seed int64, scale float64) (r, s []rtree.Item) { return tiger.Maps(scale, seed) }

// clusterCenters fixes where the four clusters sit (the planner corpus's
// "clustered-extreme" centres). How much the clusters overlap decides the
// pair count; left to the seed it moved the op time by a third from seed to
// seed, which says nothing about the code. The seed draws the points.
const clusterCenters = 41

func genCluster(seed int64, scale float64) (r, s []rtree.Item) {
	n := scaled(120000, scale)
	return tiger.GaussianClusters(n, 4, 2, 0.1, clusterCenters, seed),
		tiger.GaussianClusters(n, 4, 2, 0.1, clusterCenters, seed+1)
}

// genBigRect stretches uniform rects to World/20 squares: every rect
// overlaps several probe tiles, the replication regime where the planner
// leaves the partition engine.
func genBigRect(seed int64, scale float64) (r, s []rtree.Item) {
	n := scaled(4000, scale)
	side := func(seed int64) []rtree.Item {
		items := tiger.Uniform(n, 1, seed)
		for i := range items {
			items[i].Rect.MaxX = items[i].Rect.MinX + tiger.World/20
			items[i].Rect.MaxY = items[i].Rect.MinY + tiger.World/20
		}
		return items
	}
	return side(seed), side(seed + 1)
}

var workloads = []workload{
	{"tiger_cold", "paper-scale cold path through the planner: build-dominated (sort, scatter, alloc), plan.Analyze inside the op", opPlanned, genTiger},
	{"tiger_rejoin", "same maps on a resident Joiner, five re-joins per op: the reuse tiers, sweep and mirror-check dominated, no build", opRejoin, genTiger},
	{"cluster_cold", "extreme skew, 4 gaussian clusters: refinement hand-off and hot-tile sweeps dominate, load balance shows here", opPlanned, genCluster},
	{"tiger_tree", "the paper's scenario: parnative join on prebuilt R*-trees, traversal and join.Scratch kernel, partition engine idle", opTree, genTiger},
	{"bigrect_oneshot", "replication regime: planner picks the tree engine, so bulk-load and the engine choice sit inside the op", opPlanned, genBigRect},
}

// plannedJoin is the caller-visible one-shot path, composed the way
// cmd/spjoin's -engine=auto does it: probe, decide, run the chosen engine.
func plannedJoin(tr *tracer, r, s []rtree.Item, maxWorkers int) []join.Candidate {
	sp := tr.begin("plan.Analyze")
	st := plan.Analyze(r, s)
	tr.end(sp)
	sp = tr.begin("plan.Decide")
	d := plan.Decide(st, maxWorkers)
	tr.end(sp)
	if d.Engine == plan.EnginePartition {
		sp = tr.begin("partjoin.Join")
		res := partjoin.Join(r, s, partjoinConfig(d))
		tr.end(sp)
		return res.Candidates
	}
	sp = tr.begin("rtree.BulkLoadSTRParallel")
	rt, st2 := buildTrees(r, s, maxWorkers)
	tr.end(sp)
	sp = tr.begin("parnative.Join")
	res := parnative.Join(rt, st2, parnative.Config{Workers: d.Workers})
	tr.end(sp)
	return res.Candidates
}

// buildTrees bulk-loads both sides the way the CLI does.
func buildTrees(r, s []rtree.Item, workers int) (rt, st *rtree.Tree) {
	return rtree.BulkLoadSTRParallel(rtree.DefaultParams(), r, treeFill, workers),
		rtree.BulkLoadSTRParallel(rtree.DefaultParams(), s, treeFill, workers)
}

func partjoinConfig(d plan.Decision) partjoin.Config {
	return partjoin.Config{Workers: d.Workers, Grid: d.Grid, RefineThreshold: d.RefineThreshold}
}

// rejoinSteps names the five re-joins of one cycle, in order. Each is a
// reuse tier of the Joiner: what it must redo grows from nothing (clean) to
// a re-sort.
var rejoinSteps = [5]string{"restored", "clean", "intile", "recount", "resort"}

// mutation replaces the rect of r[idx]; a cycle applies its three
// mutations cumulatively and then restores the originals.
type mutation struct {
	idx        int
	orig, next geom.Rect
}

// rejoiner is a resident Joiner over r and s with the mutations of one
// cycle and the oracle digest of each of the four input states.
type rejoiner struct {
	j    partjoin.Joiner
	cfg  partjoin.Config
	r, s []rtree.Item
	muts [3]mutation
	want [4]digest
}

// pickMutations chooses the three rects a cycle mutates. The tile geometry
// is recomputed from the data MBR the way the engine derives it; each pick
// keeps a margin to the tile borders, so rounding differences cannot change
// the tier a mutation lands in. Picks are deterministic in the inputs.
func pickMutations(r, s []rtree.Item, grid int) [3]mutation {
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, side := range [2][]rtree.Item{r, s} {
		for i := range side {
			rc := side[i].Rect
			minX, minY = math.Min(minX, rc.MinX), math.Min(minY, rc.MinY)
			maxX, maxY = math.Max(maxX, rc.MaxX), math.Max(maxY, rc.MaxY)
		}
	}
	tw, th := (maxX-minX)/float64(grid), (maxY-minY)/float64(grid)
	// inside reports whether [lo, hi] sits in one tile of width t with a
	// 2 % margin to both borders.
	inside := func(lo, hi, origin, t float64) bool {
		a, b := (lo-origin)/t, (hi-origin)/t
		return math.Floor(a) == math.Floor(b) && a-math.Floor(a) > 0.02 && b-math.Floor(b) < 0.98
	}
	var muts [3]mutation
	find := func(k, from int, ok func(rc geom.Rect) bool, mutate func(rc geom.Rect) geom.Rect) {
		for n := 0; n < len(r); n++ {
			i := (from + n) % len(r)
			rc := r[i].Rect
			if (k > 0 && i == muts[0].idx) || (k > 1 && i == muts[1].idx) || !ok(rc) {
				continue
			}
			muts[k] = mutation{idx: i, orig: rc, next: mutate(rc)}
			return
		}
		// No rect qualifies (degenerate input): mutate nothing, so the
		// step repeats the clean tier and still verifies.
		muts[k] = mutation{idx: from % len(r), orig: r[from%len(r)].Rect, next: r[from%len(r)].Rect}
	}
	// Grown 1 % and still inside its tile: the segments survive.
	grow := func(rc geom.Rect) geom.Rect {
		rc.MaxX += 0.01 * (rc.MaxX - rc.MinX)
		rc.MaxY += 0.01 * (rc.MaxY - rc.MinY)
		return rc
	}
	find(0, len(r)/3, func(rc geom.Rect) bool {
		g := grow(rc)
		return rc.MaxX > rc.MinX && rc.MaxY > rc.MinY &&
			inside(g.MinX, g.MaxX, minX, tw) && inside(g.MinY, g.MaxY, minY, th)
	}, grow)
	// Moved two tile rows in Y with MinX unchanged: the sweep order holds,
	// the tile codes do not.
	find(1, 2*len(r)/3, func(rc geom.Rect) bool {
		return rc.MaxY+2*th < maxY || rc.MinY-2*th > minY
	}, func(rc geom.Rect) geom.Rect {
		dy := 2 * th
		if rc.MaxY+dy >= maxY {
			dy = -dy
		}
		rc.MinY, rc.MaxY = rc.MinY+dy, rc.MaxY+dy
		return rc
	})
	// Mirrored from the left quarter of the world to the right: the sweep
	// order breaks.
	find(2, len(r)/2, func(rc geom.Rect) bool {
		return rc.MaxX < minX+(maxX-minX)/4
	}, func(rc geom.Rect) geom.Rect {
		w := rc.MaxX - rc.MinX
		rc.MinX = minX + maxX - rc.MaxX
		rc.MaxX = rc.MinX + w
		return rc
	})
	return muts
}

// newRejoiner joins once cold (which tells the grid the engine chose),
// picks the mutations, computes the four oracle digests (their time goes to
// oracleT) and warms the Joiner with one full cycle.
func newRejoiner(r, s []rtree.Item, cfg partjoin.Config, want *[4]digest, oracleT *time.Duration) *rejoiner {
	rj := &rejoiner{cfg: cfg, r: r, s: s}
	grid := max(1, rj.j.Join(r, s, cfg).GX)
	rj.muts = pickMutations(r, s, grid)
	if want[3] == (digest{}) {
		t0 := time.Now()
		want[0] = oracle(r, s)
		for k, m := range rj.muts {
			r[m.idx].Rect = m.next
			want[k+1] = oracle(r, s)
		}
		rj.restore()
		*oracleT += time.Since(t0)
	}
	rj.want = *want
	rj.cycle(nil, nil)
	return rj
}

func (rj *rejoiner) restore() {
	for _, m := range rj.muts {
		rj.r[m.idx].Rect = m.orig
	}
}

// cycle runs the five re-joins and returns their summed wall time. The
// clock covers only the Join calls: the Joiner's candidate slice is a view
// valid until the next Join, so each re-join is verified before the next
// one starts, off the clock. stepMS, when set, receives each step's time.
func (rj *rejoiner) cycle(tr *tracer, stepMS *[5]float64) (wall time.Duration, ok bool) {
	ok = true
	state := 0
	for step, name := range rejoinSteps {
		if step >= 2 {
			m := rj.muts[step-2]
			rj.r[m.idx].Rect = m.next
			state = step - 1
		}
		sp := tr.begin("partjoin.Joiner.Join/" + name)
		t0 := time.Now()
		res := rj.j.Join(rj.r, rj.s, rj.cfg)
		d := time.Since(t0)
		tr.end(sp)
		wall += d
		if stepMS != nil {
			stepMS[step] = float64(d.Nanoseconds()) / 1e6
		}
		ok = ok && digestOf(res.Candidates) == rj.want[state]
	}
	rj.restore()
	return wall, ok
}

// instance is a workload after set-up: inputs, oracle digests and whatever
// the op keeps resident.
type instance struct {
	w       *workload
	r, s    []rtree.Item
	workers int
	want    [4]digest // want[0] is the unmutated state; the rest are the rejoin states
	rj      *rejoiner // opRejoin
	rt, st  *rtree.Tree
}

func (in *instance) close() {
	if in.rj != nil {
		in.rj.j.Close()
	}
}

// setUp generates the inputs, builds what the op keeps resident and runs
// one untimed warm-up op. setupT is all of that; the oracle runs between
// generation and warm-up and is timed separately. A zero *want is filled
// in, a non-zero one (a repeated set-up of the same inputs) is reused.
func setUp(w *workload, seed int64, scale float64, workers int, want *[4]digest) (in *instance, setupT, oracleT time.Duration) {
	t0 := time.Now()
	in = &instance{w: w, workers: workers}
	in.r, in.s = w.gen(seed, scale)
	switch w.kind {
	case opRejoin:
		d := plan.Decide(plan.Analyze(in.r, in.s), workers)
		in.rj = newRejoiner(in.r, in.s, partjoinConfig(d), want, &oracleT)
	case opTree:
		in.rt, in.st = buildTrees(in.r, in.s, workers)
	}
	if want[0] == (digest{}) {
		t1 := time.Now()
		want[0] = oracle(in.r, in.s)
		oracleT += time.Since(t1)
	}
	in.want = *want
	if w.kind != opRejoin { // newRejoiner already ran its warm-up cycle
		in.op(nil)
	}
	return in, time.Since(t0) - oracleT, oracleT
}

// op runs one operation, timing it from outside, and verifies its pair set
// against the oracle after the clock stops.
func (in *instance) op(tr *tracer) (wall time.Duration, ok bool) {
	root := tr.begin("op")
	if in.w.kind == opRejoin {
		wall, ok = in.rj.cycle(tr, nil)
		tr.end(root)
		return wall, ok
	}
	var cands []join.Candidate
	t0 := time.Now()
	if in.w.kind == opTree {
		sp := tr.begin("parnative.Join")
		cands = parnative.Join(in.rt, in.st, parnative.Config{Workers: in.workers}).Candidates
		tr.end(sp)
	} else {
		cands = plannedJoin(tr, in.r, in.s, in.workers)
	}
	wall = time.Since(t0)
	tr.end(root)
	return wall, digestOf(cands) == in.want[0]
}
