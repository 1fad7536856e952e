// Package partjoin implements a partition-based parallel in-memory spatial
// join: instead of traversing two R*-trees in tandem (package parnative),
// both rectangle sets are bucketed onto a uniform grid and every tile is
// joined independently with the zero-allocation SoA plane-sweep.
//
// The design follows the in-memory results of Tsitsigkos & Mamoulis
// ("Parallel In-Memory Evaluation of Spatial Joins", arXiv:1908.11740):
//
//   - Each side is first sorted globally by (MinX, MinY, index) — the
//     plane-sweep order. The sort is adaptive: repeated joins reuse the
//     previous order, and the counting pass verifies it in flight (a
//     stale order triggers a sort and recount).
//   - Assignment replicates each rectangle into every tile its MBR
//     overlaps, via a parallel two-pass counting sort (count, prefix-sum,
//     scatter) into one flat index array — no per-item allocation. The
//     scatter walks the sweep order, so every tile segment comes out
//     already sweep-sorted and the per-tile joins never sort.
//   - Each tile segment carries a coordinate-plane (SoA) copy of its
//     rectangles in segment position order, so the per-tile sweep
//     (geom.SweepPairsPlanesDenseRange, eight lanes per step on AVX2) walks
//     dense float64 streams with no index indirection. Beside the planes
//     the segment holds each rect's entry ID and two ownership bits, so the
//     emit decides and reports a hit from the positions the sweep just read;
//     work units are scheduled largest-first over a Pool (pool.go) so
//     stragglers start early.
//   - A hot tile — one whose estimated sweep cost approaches a worker's
//     fair share — is split into several units by its sweep, not its data:
//     each unit runs a contiguous range of the tile sweep's merge events,
//     cut with geom.MergeSplit, so the units together make exactly the
//     tile's comparisons and find exactly its pairs (see split.go).
//   - A pair intersecting in several tiles is reported exactly once, by
//     the reference-point method: only the tile containing the top-left
//     corner of the intersection of the two MBRs reports it. The test runs
//     on the ownership bits the scatter wrote — whether the rect's tile
//     range starts in the tile's column and ends in its row — and needs
//     one OR of two bytes per hit (ownedHit has the proof that this is the
//     corner's tile).
//
// A Joiner is reusable, and aggressively so: after a warm-up run the whole
// join performs zero heap allocations, and a re-join over unchanged inputs
// skips the sort and the bucketing entirely — a parallel compare pass over
// the workers' item chunks proves the cached tile segments still exact, so
// only the sweeps and the result assembly run (the clean tier). The same
// pass lists which rects changed; a handful of them is patched into the
// cached sweep orders, tile segments and schedule in work proportional to
// the changes (the delta tier, see delta.go), anything more rebuilds.
// Result.Reuse names the tier that served a join.
package partjoin

import (
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"spjoin/internal/geom"
	"spjoin/internal/join"
	"spjoin/internal/rtree"
	"spjoin/internal/runtimeobs"
	"spjoin/internal/sim"
	"spjoin/internal/timeline"
)

// Config controls a partition-based join.
type Config struct {
	// Workers is the parallelism degree (default: GOMAXPROCS).
	Workers int
	// Grid is the number of tiles per axis (Grid×Grid tiles over the data
	// MBR). 0 picks a size proportional to sqrt of the input cardinality.
	Grid int
	// RefineThreshold controls the hot-tile split (see split.go): 0 derives
	// a trigger from the tile cost distribution (the default — the split
	// engages only when the grid is skewed), RefineDisabled (any negative
	// value) turns it off, and a positive value is the explicit per-tile
	// sweep-cost bound above which a tile's sweep is split into units.
	RefineThreshold int64
	// Timeline, when set, records one wall-clock cpu-sweep span per tile
	// join plus one phase span per worker per pool phase. Size it with
	// timeline.NewWallRecorder over the resolved worker count (Join panics
	// on a mismatch before it touches anything); each worker writes only its
	// own track.
	Timeline *timeline.Recorder
	// Progress, when set, receives live progress for the join: the slot is
	// Started when the join begins, the work-unit schedule (units and
	// summed sweep cost) is published once built, and every completed unit
	// is reported as it finishes.
	// Observation-only: a nil slot costs one nil-check per unit.
	Progress *runtimeobs.Progress
}

// Introspection constants: the downsampled tile-cost heat grid is at most
// HeatSide×HeatSide cells, and TopTileK work units are reported per join.
const (
	HeatSide = 16
	TopTileK = 8
)

// TileCost is one work unit of the join schedule, reported (largest
// estimated sweep cost first) in Result.TopTiles.
type TileCost struct {
	// TX, TY are the root tile coordinates of the unit.
	TX, TY int
	// Refined marks one event range of a split tile (false = whole tile).
	Refined bool
	// Cost is the unit's estimated sweep cost (rn*sn + rn + sn).
	Cost int64
}

// Result of a partition-based join.
type Result struct {
	// Candidates is the filter-step output — exactly the intersecting
	// (R item, S item) pairs, each reported once. The slice is owned by
	// the Joiner and valid until its next Join call.
	Candidates []join.Candidate
	// GX, GY are the grid dimensions used.
	GX, GY int
	// Partitions is the number of work units joined: whole non-empty tiles
	// (tiles holding rectangles of both sides) plus the units of split
	// tiles.
	Partitions int
	// RefinedTiles is the number of hot tiles whose sweep was split;
	// Subtiles is the number of units they became.
	RefinedTiles int
	Subtiles     int
	// Duplicates is the number of cross-tile duplicate pairs suppressed by
	// the reference-point test (on the segments' ownership bits, ownedHit).
	Duplicates int
	// Comparisons is the number of rectangle pairs tested across all tiles.
	Comparisons int
	// Workers is the parallelism degree used; PerWorker counts the
	// candidate pairs each worker emitted (view owned by the Joiner).
	Workers   int
	PerWorker []int
	// Reuse names the cache tier that served the join (empty when a side was
	// empty and nothing ran); DeltaRects is the number of changed rects the
	// delta tier patched, zero on every other tier.
	Reuse      Reuse
	DeltaRects int
	// PhaseNS is the wall time spent in each phase, indexed by the
	// timeline.Phase* constants. Every bucket is a sum of disjoint intervals
	// of the calling goroutine's clock, so the buckets never add up to more
	// than the wall time of the Join call, on any tier. Always filled — the
	// cost is a handful of clock reads — and a phase the run skipped reads
	// zero, so the clean tier is visible as empty sort/partition buckets.
	// The delta step's wall time accrues to the partition bucket, a
	// schedule build's to the refine bucket.
	PhaseNS [timeline.NumPhases]int64
	// TopTiles holds the TopTileK costliest work units of the schedule; Heat
	// is the schedule's cost mass folded onto a row-major HeatW×HeatH grid
	// (HeatW = min(GX, HeatSide)). Both are filled by every join that ran —
	// one O(units) scan — and are views owned by the Joiner.
	TopTiles []TileCost
	Heat     []int64
	HeatW    int
	HeatH    int
}

// Reuse is the tier of a Joiner's cache a join was served from.
type Reuse string

const (
	// ReuseCold: no usable cache (first join, or the cardinalities, grid or
	// worker count changed) — the full build ran.
	ReuseCold Reuse = "cold"
	// ReuseClean: the inputs match the mirrors bit for bit; only the sweeps
	// and the result assembly ran.
	ReuseClean Reuse = "clean"
	// ReuseDelta: a few rects changed and were patched into the cached
	// structures in place (delta.go).
	ReuseDelta Reuse = "delta"
	// ReuseRebuild: the inputs changed and the delta step declined; the
	// full build ran over the persisted sweep orders.
	ReuseRebuild Reuse = "rebuild"
)

// Join buckets the two rectangle sets onto a uniform grid and returns all
// intersecting pairs. It is the one-shot form of Joiner.Join; callers with
// repeated joins hold a Joiner to amortize its buffers and worker pool.
func Join(r, s []rtree.Item, cfg Config) Result {
	var j Joiner
	defer j.Close()
	// The one-shot Joiner dies with this call, so the result views are
	// handed over as they are: nothing else references them.
	return j.Join(r, s, cfg)
}

// phase identifiers: the Joiner runs its parallel phases over one Pool,
// dispatching on j.phase in RunWorker.
const (
	phaseMirror      = iota // copy items into SoA mirrors, union chunk MBRs
	phaseMirrorCheck        // compare items against mirrors, list the changes
	phaseSort               // sort both sides into global sweep order
	phaseCount              // count tile occupancy per worker chunk
	phaseScatter            // scatter rect indices and coordinates into tile segments
	phaseJoin               // sweep the work units, largest first
	phaseGather             // copy each worker's candidates into its slice of out
)

// batchMax is the small-side threshold below which a tile skips the
// sort+sweep and tests the few rects of one side against the gathered
// other side with the branchless batch-intersect kernel.
const batchMax = 8

// gridSide holds the counting-sort state of one input side.
type gridSide struct {
	counts   []int32 // workers×tiles count matrix, then scatter cursors
	starts   []int32 // tiles+1 segment boundaries into idx
	idx      []int32 // rect indices grouped by tile (read by the delta step only)
	disorder []uint8 // per-worker flag: chunk out of order or codes stale

	// planes, ids and own are the tile segments' join data, in segment
	// position space: position p holds rect idx[p]'s coordinates, its entry
	// ID and its ownership bits in the tile whose segment holds p.
	// Replicating them here is what makes the per-tile join stride-free —
	// both sides of every tile are contiguous, sweep-sorted runs of the
	// plane arrays, and a hit is decided and emitted from the positions the
	// sweep just read. Filled by the scatter; the delta step edits them in
	// place together with idx.
	planes geom.Planes
	ids    []rtree.EntryID
	own    []uint8
}

// Ownership bits of a rect in a tile (tx, ty) it is assigned to, whose tile
// range starts in column x0 and ends in row y1: ownX when x0 == tx, ownY
// when y1 == ty. See ownedHit.
const (
	ownX uint8 = 1 << iota
	ownY
)

// ownBits returns the ownership bits of a rect with tile range columns
// x0.. and rows ..y1 in tile (tx, ty).
func ownBits(x0, y1, tx, ty int) uint8 {
	var b uint8
	if x0 == tx {
		b |= ownX
	}
	if y1 == ty {
		b |= ownY
	}
	return b
}

// ownedHit is the reference-point test on ownership bits: tile (tx, ty)
// reports an intersecting pair iff it holds the top-left corner
// (max(rMinX, sMinX), min(rMaxY, sMaxY)) of the pair's intersection, and
// that is the case iff rOwn|sOwn has both bits.
//
// The proof rests on tileOf being monotone in each coordinate: the corner's
// column is tileOf(max(rMinX, sMinX)) = max(x0r, x0s), where x0 is the
// column of a rect's MinX, and its row is tileOf(min(rMaxY, sMaxY)) =
// min(y1r, y1s), where y1 is the row of a rect's MaxY. Both rects are
// assigned to (tx, ty), so x0r, x0s ≤ tx and y1r, y1s ≥ ty; hence the
// corner's column is tx iff x0r == tx or x0s == tx, and its row is ty iff
// y1r == ty or y1s == ty — exactly "ownX is set in one of the two" and
// "ownY is set in one of the two".
//
// tileOf is monotone wherever a hit can reach it. Its scaled offset
// (x-minX)·inv, the truncation and clampTile are each monotone as long as
// the conversion does not overflow: on a finite data MBR every coordinate
// of the build lies inside it, so the offset lies in [0, g], and the delta
// step declines rects whose offset would pass deltaTileLimit. A rect with
// an infinite coordinate intersects nothing unless its partner reaches that
// infinity too, and then the data MBR is infinite along that axis: safeInv
// gives inv = 0, the offset is 0 below some x and NaN from there on (where
// x-minX is infinite), and whatever tile the NaN converts to is ≥ 0, so the
// mapping stays monotone — on amd64 and arm64 every rect lands in tile 0
// along that axis. No NaN coordinate reaches the planes, and the EmptyRect
// mirrorForm puts in its place intersects nothing.
func ownedHit(rOwn, sOwn uint8) bool { return rOwn|sOwn == ownX|ownY }

// unsorted reports whether any worker's count pass found its chunk out of
// sweep order (flags set by countChunk, cleared by reset).
func (g *gridSide) unsorted(workers int) bool {
	for _, d := range g.disorder[:workers] {
		if d != 0 {
			return true
		}
	}
	return false
}

// workerState is the per-worker scratch and local counters; the counters
// are summed into the Result once after the join phase, so the hot loop
// stays uncontended.
type workerState struct {
	cands  join.CandidateBuf
	outOff int // start of this worker's slice of out (phaseGather)
	hits   []geom.IndexPair
	mask   []uint64

	dups, comps, parts int64
}

// tileSeg is one side's segment of a tile: its plane view (what the sweep
// reads) and, at the same positions, the entry IDs and ownership bits the
// emit reads.
type tileSeg struct {
	planes geom.Planes
	ids    []rtree.EntryID
	own    []uint8
}

// seg returns the segment [lo, hi) of g's position space.
func (g *gridSide) seg(lo, hi int) tileSeg {
	return tileSeg{g.planes.View(lo, hi), g.ids[lo:hi], g.own[lo:hi]}
}

// emit reports the intersecting pair at positions (rp, sp) of the unit's
// segments iff the current tile owns it (ownedHit). The sweep has just read
// both positions, so the two bit loads and the two ID loads stream.
func (ws *workerState) emit(r, s *tileSeg, rp, sp int32) {
	if !ownedHit(r.own[rp], s.own[sp]) {
		ws.dups++
		return
	}
	ws.cands.Push(join.Candidate{R: r.ids[rp], S: s.ids[sp]})
}

// Joiner holds the reusable state of the partition-based join: SoA mirrors
// of the inputs, the counting-sort buckets, per-worker scratch, and a
// persistent Pool. A Joiner is for use by a single goroutine; Close releases
// the pool's goroutines.
type Joiner struct {
	pool    *Pool
	workers int
	phase   int32

	rItems, sItems []rtree.Item
	rRects, sRects []geom.Rect
	rIDs, sIDs     []rtree.EntryID
	rOrd, sOrd     []int32  // global sweep orders, persisted across joins
	rTile, sTile   []uint64 // per-sweep-position packed tile ranges (count → scatter only)
	rScr, sScr     []int32  // repair-sort scratch (geom.SortOrderByMinXKeyed)
	rKey, sKey     []uint64 // full-sort word buffer; the side's tile codes are the other

	// Count-phase controls: countMask selects the sides phaseCount walks
	// (bit 1 = R, bit 2 = S) and countVerify whether the pass doubles as the
	// sweep-order verification. The recount after a sort covers only the
	// sides whose order actually broke (redoR/redoS), with verification off
	// — the order is freshly sorted, and every rect must be counted.
	countMask    uint8
	countVerify  bool
	redoR, redoS bool

	gx, gy     int
	minX, minY float64
	invW, invH float64

	rPart, sPart gridSide

	// Fast-path validity: when true, the sweep orders, the tile segments
	// (idx/starts/planes) and the grid geometry above all describe the
	// mirrors, so a join whose inputs still match the mirrors can skip
	// straight to the sweep phase.
	cacheOK                bool
	cGX, cRLen, cSLen, cWk int

	// Change list of the mirror check: worker w lists the rects of its
	// chunks whose item differs from the mirror in chg[w*deltaMax:][:chgN[w]];
	// chgN[w] > deltaMax means the list overflowed. edits and deltaBudget
	// are the delta step's scratch (see delta.go).
	chg         []changeRef
	chgN        []int32
	edits       []segEdit
	deltaBudget int

	bounds []geom.Rect // per-worker chunk MBR unions (phaseMirror)

	// Schedule source, from the last schedule build: the non-empty tile
	// ids (ascending), their estimated costs then, and the part counts
	// their sweeps were split into (frozen until the next build).
	tiles []int32
	cost  []int64
	parts []int32

	// Work-unit schedule: whole tiles and the units of split tiles, sorted
	// largest-first, claimed off cursor in the join phase. unitsOK + cThr
	// gate the reuse of the whole schedule on the fast path; trigger is the
	// cost bound resolved at the last schedule build, which the delta step
	// holds frozen until the next one.
	units                  []workUnit
	ucost                  []int64
	refinedTiles, subtiles int
	unitsOK                bool
	cThr                   int64
	trigger                int64
	cursor                 atomic.Int64

	order tileOrder            // reusable sorter over units/ucost
	prog  *runtimeobs.Progress // live-progress slot of the current join (may be nil)

	ws []workerState

	out       []join.Candidate
	perWorker []int

	rec   *timeline.Recorder
	epoch time.Time

	phaseNS  [timeline.NumPhases]int64
	topTiles []TileCost
	heat     []int64
}

// Close releases the Joiner's worker pool. The Joiner may be reused after
// Close (a new pool is created on demand).
func (j *Joiner) Close() {
	if j.pool != nil {
		j.pool.Close()
		j.pool = nil
	}
}

// Join computes all intersecting pairs between r and s. Rectangles must be
// finite: an infinite coordinate lands in a border tile and is then subject
// to the comparison semantics of geom.Rect.Intersects, and a rectangle with
// a NaN coordinate — which Intersects never matches — is mirrored as
// geom.EmptyRect (see mirrorForm). The returned Candidates and PerWorker
// slices are views owned by the Joiner, valid until the next Join call.
func (j *Joiner) Join(r, s []rtree.Item, cfg Config) Result {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// A mis-sized recorder is a caller bug; say so before the pool, the
	// progress slot or any cached state is touched.
	if cfg.Timeline != nil && len(cfg.Timeline.Procs()) != workers {
		panic("partjoin: Timeline track count does not match Workers (size with NewWallRecorder)")
	}
	res := Result{Workers: workers}
	if len(r) == 0 || len(s) == 0 {
		j.perWorker = growInts(j.perWorker, workers)
		res.PerWorker = j.perWorker
		return res
	}
	if j.pool == nil || j.workers != workers {
		if j.pool != nil {
			j.pool.Close()
		}
		j.pool = NewPool(workers)
		j.workers = workers
	}
	j.rItems, j.sItems = r, s
	j.prog = cfg.Progress
	j.prog.Start()
	j.rec = cfg.Timeline
	if j.rec != nil {
		j.epoch = time.Now()
	}
	j.phaseNS = [timeline.NumPhases]int64{}

	// Phase 1: bring the SoA mirrors (what the sweep kernel consumes) in
	// sync with the items, as cheaply as the situation allows.
	//
	// The sweep orders, the tile segments (idx/starts/planes) and the
	// work-unit schedule depend only on the mirrors, the cardinalities and
	// the grid geometry — so when a cache from a previous join is on hand, a
	// parallel compare pass over the items settles how much of it survives:
	//
	//   - clean: nothing changed, the cache is exact; skip straight to the
	//     sweep phase. The steady-state join is then one scan plus the
	//     sweeps — no sort, no bucketing.
	//   - delta: at most deltaMax rects changed; the delta step moves each in
	//     its side's sweep order, edits the tile segments it leaves, enters
	//     or stays in, and re-costs the touched work units — under the grid
	//     geometry frozen at the last full build (rects drifting outside the
	//     old data MBR clamp into the border tiles, which the reference-point
	//     dedup handles exactly).
	//   - rebuild: more changed, or the delta step declined; fall through to
	//     the full build, which starts from the persisted sweep orders.
	//
	// The full (cold) path mirrors unconditionally, unions the data MBR,
	// derives the grid and runs the two-pass counting sort below.
	j.rRects = growRects(j.rRects, len(r))
	j.sRects = growRects(j.sRects, len(s))
	j.rIDs = growIDs(j.rIDs, len(r))
	j.sIDs = growIDs(j.sIDs, len(s))
	g := cfg.Grid
	if g <= 0 {
		g = autoGrid(len(r)+len(s), workers)
	}
	fast := j.cacheOK && j.cGX == g && j.cWk == workers &&
		j.cRLen == len(r) && j.cSLen == len(s)
	res.Reuse = ReuseCold
	if fast {
		j.chg = growChanges(j.chg, workers*deltaMax)
		j.chgN = growCounts(j.chgN, workers)
		j.runPhase(phaseMirrorCheck)
		changed := 0
		for _, n := range j.chgN[:workers] {
			changed += int(n) // an overflowed list counts deltaMax+1
		}
		switch {
		case changed == 0:
			res.Reuse = ReuseClean
		case changed <= deltaMax && j.runDelta():
			res.Reuse, res.DeltaRects = ReuseDelta, changed
		default:
			res.Reuse, fast = ReuseRebuild, false
		}
	}
	if !fast {
		j.bounds = growRects(j.bounds, workers)
		j.runPhase(phaseMirror)
		mbr := geom.EmptyRect()
		for _, b := range j.bounds[:workers] {
			mbr = mbr.Union(b)
		}

		// Global sweep orders. The persisted order arrays carry the
		// previous join's permutation; the count pass verifies it while
		// counting, so a stale cache over still-sorted inputs pays no
		// sort.
		j.rOrd = prepOrder(j.rOrd, len(r))
		j.sOrd = prepOrder(j.sOrd, len(s))

		// Grid geometry. Degenerate extents (all rects on one line)
		// collapse that axis to a single stripe via invW/invH = 0.
		j.gx, j.gy = g, g
		j.minX, j.minY = mbr.MinX, mbr.MinY
		j.invW = safeInv(mbr.MaxX-mbr.MinX, g)
		j.invH = safeInv(mbr.MaxY-mbr.MinY, g)
		tiles := j.gx * j.gy

		// Two-pass counting sort of both sides into tile segments. The
		// count pass caches each rect's tile range; the scatter pass
		// walks the sweep order, so tile segments come out sweep-sorted,
		// and writes each rect's coordinates next to its index.
		j.rTile = growCodes(j.rTile, len(r))
		j.sTile = growCodes(j.sTile, len(s))
		j.rPart.reset(workers, tiles)
		j.sPart.reset(workers, tiles)
		j.countMask, j.countVerify = 3, true
		j.runPhase(phaseCount)
		j.redoR = j.rPart.unsorted(workers)
		j.redoS = j.sPart.unsorted(workers)
		if j.redoR || j.redoS {
			// An order array is stale (first join, or the inputs
			// changed): sort the broken sides and recount them — and only
			// them; an intact side keeps its first-pass counts and codes.
			// The abandoned partial count is the cold-path price for the
			// steady state's free check.
			if j.redoR {
				j.rKey = growCodes(j.rKey, len(r))
			}
			if j.redoS {
				j.sKey = growCodes(j.sKey, len(s))
			}
			j.runPhase(phaseSort)
			mask := uint8(0)
			if j.redoR {
				j.rPart.reset(workers, tiles)
				mask |= 1
			}
			if j.redoS {
				j.sPart.reset(workers, tiles)
				mask |= 2
			}
			j.countMask, j.countVerify = mask, false
			j.runPhase(phaseCount)
		}
		j.rPart.prefixSum(workers, tiles)
		j.sPart.prefixSum(workers, tiles)
		j.runPhase(phaseScatter)
		j.cacheOK = true
		j.cGX, j.cWk = g, workers
		j.cRLen, j.cSLen = len(r), len(s)
	}
	// Phase 5: schedule and sweep.
	j.ws = growStates(j.ws, workers)
	for w := range j.ws[:workers] {
		ws := &j.ws[w]
		ws.cands.Reset()
		ws.dups, ws.comps, ws.parts = 0, 0, 0
	}
	// A fast-path join reuses the previous schedule outright — assignment and
	// the split are functions of the coordinates, and the delta step clears
	// unitsOK when a change takes a tile across the trigger. Every other
	// join builds it.
	if !(fast && j.unitsOK && j.cThr == cfg.RefineThreshold) {
		j.timeRefine(func() { j.prepSchedule(cfg.RefineThreshold) })
	}
	j.prog.SetTotal(int64(len(j.units)), sumCost(j.ucost))
	j.cursor.Store(0)
	j.runPhase(phaseJoin)

	// Assemble: a prefix sum over the workers' buffer lengths gives each
	// worker its slice of out, and the gather copies the buffers there.
	tMerge := time.Now()
	if j.rec != nil {
		j.rec.BeginSpan(0, wallSince(j.epoch), timeline.KindPhase,
			sim.SpanArgs{A: timeline.PhaseMerge})
	}
	j.perWorker = growInts(j.perWorker, workers)
	total := 0
	for w := range j.ws[:workers] {
		ws := &j.ws[w]
		pairs := ws.cands.Len()
		ws.outOff = total
		total += pairs
		j.perWorker[w] = pairs
		res.Duplicates += int(ws.dups)
		res.Comparisons += int(ws.comps)
		res.Partitions += int(ws.parts)
	}
	j.out = growCands(j.out, total)
	if total <= join.CandidateBlock {
		// Waking the pool costs about what copying one block does, so a
		// result this small is gathered here.
		for w := range j.ws[:workers] {
			j.gather(w)
		}
	} else {
		// Parallel gather. The phase runs inside the merge bucket timed
		// here, so it bypasses runPhase's own accrual.
		j.phase = phaseGather
		j.pool.Run(j)
	}
	res.Candidates = j.out
	res.GX, res.GY = j.gx, j.gy
	res.RefinedTiles, res.Subtiles = j.refinedTiles, j.subtiles
	res.PerWorker = j.perWorker
	j.phaseNS[timeline.PhaseMerge] += time.Since(tMerge).Nanoseconds()
	if j.rec != nil {
		j.rec.EndSpan(0, wallSince(j.epoch), sim.SpanArgs{}, false)
	}
	res.PhaseNS = j.phaseNS
	j.fillIntrospection(&res)
	j.prog.Finish()
	return res
}

// sumCost totals a cost slice for the progress layer's schedule size.
func sumCost(cost []int64) int64 {
	var sum int64
	for _, c := range cost {
		sum += c
	}
	return sum
}

// fillIntrospection reports the schedule's cost structure: the TopTileK
// costliest work units (the schedule is already sorted largest-first, so
// the head of units is the answer) and the unit cost mass folded onto an
// at-most HeatSide² heat grid. One O(units) scan; the buffers live on the
// Joiner, so the steady state stays allocation-free.
func (j *Joiner) fillIntrospection(res *Result) {
	k := len(j.units)
	if k > TopTileK {
		k = TopTileK
	}
	if j.topTiles == nil {
		j.topTiles = make([]TileCost, 0, TopTileK)
	}
	j.topTiles = j.topTiles[:0]
	for i := 0; i < k; i++ {
		u := j.units[i]
		j.topTiles = append(j.topTiles, TileCost{
			TX: int(u.tile) % j.gx, TY: int(u.tile) / j.gx,
			Refined: u.parts > 1, Cost: j.ucost[i],
		})
	}
	res.TopTiles = j.topTiles

	hw, hh := j.gx, j.gy
	if hw > HeatSide {
		hw = HeatSide
	}
	if hh > HeatSide {
		hh = HeatSide
	}
	if cap(j.heat) < hw*hh {
		j.heat = make([]int64, hw*hh, HeatSide*HeatSide)
	} else {
		j.heat = j.heat[:hw*hh]
		clear(j.heat)
	}
	for i, u := range j.units {
		t := int(u.tile)
		hx := (t % j.gx) * hw / j.gx
		hy := (t / j.gx) * hh / j.gy
		j.heat[hy*hw+hx] += j.ucost[i]
	}
	res.Heat, res.HeatW, res.HeatH = j.heat, hw, hh
}

// runPhase executes one parallel phase over the pool, accruing its wall
// time into the matching bucket of Result.PhaseNS.
func (j *Joiner) runPhase(phase int32) {
	j.phase = phase
	t0 := time.Now()
	j.pool.Run(j)
	j.phaseNS[timelinePhase(phase)] += time.Since(t0).Nanoseconds()
}

// timelinePhase maps an internal phase id onto the canonical wall-join
// phase enumeration shared with the timeline and the flight recorder.
func timelinePhase(phase int32) int {
	switch phase {
	case phaseMirror, phaseMirrorCheck:
		return timeline.PhasePrep
	case phaseSort:
		return timeline.PhaseSort
	case phaseCount, phaseScatter:
		return timeline.PhasePartition
	case phaseGather:
		return timeline.PhaseMerge
	default:
		return timeline.PhaseSweep
	}
}

// RunWorker implements PoolTask: dispatch the current phase, bracketing it
// with a per-worker phase span when a timeline is attached (tile sweep
// spans then nest inside the join-phase span).
func (j *Joiner) RunWorker(w int) {
	if j.rec != nil {
		j.rec.BeginSpan(w, wallSince(j.epoch), timeline.KindPhase,
			sim.SpanArgs{A: int64(timelinePhase(j.phase))})
	}
	switch j.phase {
	case phaseMirror:
		j.mirrorChunk(w)
	case phaseSort:
		j.sortSides(w)
	case phaseCount:
		j.countChunk(w)
	case phaseScatter:
		j.scatterChunk(w)
	case phaseMirrorCheck:
		j.mirrorCheckChunk(w)
	case phaseJoin:
		j.joinTiles(w)
	case phaseGather:
		j.gather(w)
	}
	if j.rec != nil {
		j.rec.EndSpan(w, wallSince(j.epoch), sim.SpanArgs{}, false)
	}
}

// timeRefine runs f, the schedule build on the owner goroutine, as a
// refine-phase span on track 0 and accrues its wall time to the refine
// bucket.
func (j *Joiner) timeRefine(f func()) {
	t0 := time.Now()
	if j.rec != nil {
		j.rec.BeginSpan(0, wallSince(j.epoch), timeline.KindPhase,
			sim.SpanArgs{A: timeline.PhaseRefine})
	}
	f()
	if j.rec != nil {
		j.rec.EndSpan(0, wallSince(j.epoch), sim.SpanArgs{}, false)
	}
	j.phaseNS[timeline.PhaseRefine] += time.Since(t0).Nanoseconds()
}

// gather copies worker w's candidates into its slice of out.
func (j *Joiner) gather(w int) {
	ws := &j.ws[w]
	ws.cands.CopyTo(j.out[ws.outOff:])
}

// chunkRange splits n into j.workers contiguous chunks.
func (j *Joiner) chunkRange(n, w int) (int, int) {
	return n * w / j.workers, n * (w + 1) / j.workers
}

// mirrorChunk copies this worker's item chunks into the SoA mirrors and
// unions their MBR. The union is open-coded comparisons rather than
// Rect.Union — math.Min/Max's NaN handling costs ~2× on this hot pass,
// and a NaN coordinate contributing nothing to the bounds is fine (the
// rect still lands in a border tile via the clamped tileOf).
func (j *Joiner) mirrorChunk(w int) {
	mbr := geom.EmptyRect()
	lo, hi := j.chunkRange(len(j.rItems), w)
	for i := lo; i < hi; i++ {
		it := &j.rItems[i]
		j.rRects[i] = it.Rect
		if !sumOrdered(&it.Rect) {
			j.rRects[i] = mirrorForm(it.Rect)
		}
		j.rIDs[i] = it.ID
		mbr = unionFast(mbr, it.Rect)
	}
	lo, hi = j.chunkRange(len(j.sItems), w)
	for i := lo; i < hi; i++ {
		it := &j.sItems[i]
		j.sRects[i] = it.Rect
		if !sumOrdered(&it.Rect) {
			j.sRects[i] = mirrorForm(it.Rect)
		}
		j.sIDs[i] = it.ID
		mbr = unionFast(mbr, it.Rect)
	}
	j.bounds[w] = mbr
}

// mirrorForm returns the rect the engine mirrors for an item's rect: the
// rect itself, or geom.EmptyRect when any coordinate is NaN. Such a rect
// intersects nothing, but a NaN key has no place in the sweep order — it
// compares as unordered, so sorts, the order verification and the sweep
// kernels' scans all go wrong around it. EmptyRect matches nothing either,
// sorts last, and stops every kernel scan at once.
func mirrorForm(r geom.Rect) geom.Rect {
	if r.MinX != r.MinX || r.MinY != r.MinY || r.MaxX != r.MaxX || r.MaxY != r.MaxY {
		return geom.EmptyRect()
	}
	return r
}

// sumOrdered is the hot loops' screen for mirrorForm: a NaN coordinate makes
// the sum NaN (so do opposite infinities, which mirrorForm then passes).
func sumOrdered(r *geom.Rect) bool {
	s := r.MinX + r.MinY + r.MaxX + r.MaxY
	return s == s
}

func unionFast(m geom.Rect, r geom.Rect) geom.Rect {
	if r.MinX < m.MinX {
		m.MinX = r.MinX
	}
	if r.MinY < m.MinY {
		m.MinY = r.MinY
	}
	if r.MaxX > m.MaxX {
		m.MaxX = r.MaxX
	}
	if r.MaxY > m.MaxY {
		m.MaxY = r.MaxY
	}
	return m
}

// sortSides brings the out-of-order sides (per the count pass's disorder
// flags, latched into redoR/redoS) into sweep order, using the repair sort
// so a lightly disturbed persisted order costs a scan plus a small merge
// rather than a full sort. A full sort is the keyed radix sort over the
// side's word buffer and its tile-code array — the abandoned count's codes
// are dead, the recount rewrites every one. With two or more workers the
// sides sort concurrently (the other workers idle — the phase is bounded
// by the larger side either way).
func (j *Joiner) sortSides(w int) {
	if j.redoR && (w == 0 || j.workers < 2) {
		j.rScr = geom.SortOrderByMinXKeyed(j.rRects[:len(j.rItems)], j.rOrd, j.rScr, j.rTile, j.rKey)
	}
	if j.redoS && (w == 1 || j.workers < 2) {
		j.sScr = geom.SortOrderByMinXKeyed(j.sRects[:len(j.sItems)], j.sOrd, j.sScr, j.sTile, j.sKey)
	}
}

// bucketSide is the view the two counting-sort passes walk: a side's
// counting state, mirrors, global sweep order and cached tile codes.
type bucketSide struct {
	part  *gridSide
	rects []geom.Rect
	ids   []rtree.EntryID
	ord   []int32
	codes []uint64
}

func (j *Joiner) bucketSides() [2]bucketSide {
	return [2]bucketSide{
		{&j.rPart, j.rRects, j.rIDs, j.rOrd, j.rTile},
		{&j.sPart, j.sRects, j.sIDs, j.sOrd, j.sTile},
	}
}

// countChunk is the counting sort's first pass over this worker's chunks of
// both sides, walking each side's global sweep order: it counts tile
// occupancy into the worker's row of the count matrix and caches each
// rect's tile range as a packed code for the scatter.
func (j *Joiner) countChunk(w int) {
	tiles := j.gx * j.gy
	for si, side := range j.bucketSides() {
		if j.countMask&(1<<si) == 0 {
			continue // side kept its previous (completed) count and codes
		}
		cur := side.part.counts[w*tiles : (w+1)*tiles]
		lo, hi := j.chunkRange(len(side.ord), w)
		if lo == hi {
			continue
		}
		// With countVerify the count pass doubles as the sweep-order
		// verification: it already gathers every rect in sweep order,
		// so carrying the previous rect makes the sortedness check free
		// and spares a dedicated scan phase in the steady state.
		// Position lo with lo == 0 self-compares, which trivially
		// passes (the index tiebreak is strict). On the first violation
		// the chunk's counts are abandoned — Join re-sorts and recounts
		// the side with verification off, so the recount is total.
		verify := j.countVerify
		pi := side.ord[lo]
		if lo > 0 {
			pi = side.ord[lo-1]
		}
		prev := &side.rects[pi]
		for pos := lo; pos < hi; pos++ {
			ci := side.ord[pos]
			r := &side.rects[ci]
			if verify {
				if r.MinX < prev.MinX ||
					(r.MinX == prev.MinX &&
						(r.MinY < prev.MinY || (r.MinY == prev.MinY && ci < pi))) {
					side.part.disorder[w] = 1
					break
				}
				prev, pi = r, ci
			}
			x0, y0 := j.tileOf(r.MinX, r.MinY)
			x1, y1 := j.tileOf(r.MaxX, r.MaxY)
			side.codes[pos] = packTiles(x0, y0, x1, y1)
			if x0 == x1 && y0 == y1 { // the common single-tile rect
				cur[y0*j.gx+x0]++
				continue
			}
			for ty := y0; ty <= y1; ty++ {
				base := ty * j.gx
				for tx := x0; tx <= x1; tx++ {
					cur[base+tx]++
				}
			}
		}
	}
}

// scatterChunk is the counting sort's second pass: one walk of each side's
// sweep order over this worker's chunks writes every rect's index into the
// tile segments reserved by the prefix sum AND its coordinates, entry ID
// and ownership bits into the segment planes — the rectangle is loaded once
// for all of them, and the bits come from the tile range the count pass
// packed. The per-(worker, tile) cursor cells make the scatter race-free,
// and because chunks cover ascending sweep positions and the prefix sum is
// worker-major, every tile segment comes out sorted in sweep order —
// geom.SweepPairsPlanesDense's precondition — without any per-tile sort.
func (j *Joiner) scatterChunk(w int) {
	tiles := j.gx * j.gy
	for _, side := range j.bucketSides() {
		cur := side.part.counts[w*tiles : (w+1)*tiles]
		idx, ids, own := side.part.idx, side.part.ids, side.part.own
		planes := &side.part.planes
		lo, hi := j.chunkRange(len(side.ord), w)
		for pos := lo; pos < hi; pos++ {
			i := side.ord[pos]
			x0, y0, x1, y1 := unpackTiles(side.codes[pos])
			r, id := side.rects[i], side.ids[i]
			if x0 == x1 && y0 == y1 { // the common single-tile rect
				c := y0*j.gx + x0
				p := cur[c]
				idx[p], ids[p], own[p] = i, id, ownX|ownY
				planes.SetRect(int(p), r)
				cur[c] = p + 1
				continue
			}
			for ty := y0; ty <= y1; ty++ {
				base := ty * j.gx
				for tx := x0; tx <= x1; tx++ {
					p := cur[base+tx]
					idx[p], ids[p], own[p] = i, id, ownBits(x0, y1, tx, ty)
					planes.SetRect(int(p), r)
					cur[base+tx] = p + 1
				}
			}
		}
	}
}

// mirrorCheckChunk is the fast path's first step: a compare of this
// worker's item chunks against the SoA mirrors that lists every rect whose
// coordinates or ID differ. The mirrors are left as they are — the delta
// step needs the old coordinates to find the rect in the cached structures,
// and a rebuild re-mirrors everything — so a worker whose list overflows
// simply stops. On unchanged inputs this pass is the only per-item work
// before the sweeps, so the compare runs on raw coordinate bits: integer
// compares beat float compares here, and a ±0 sign flip reads as changed
// (the delta step then overwrites the rect's plane entries with the same
// order and tiles). A NaN item differs from its EmptyRect mirror on every
// join; mirrorStale's second look settles those.
func (j *Joiner) mirrorCheckChunk(w int) {
	list := j.chg[w*deltaMax : (w+1)*deltaMax]
	n := 0
	lo, hi := j.chunkRange(len(j.rItems), w)
	for i := lo; i < hi; i++ {
		it := &j.rItems[i]
		if (rectChanged(&j.rRects[i], &it.Rect) && mirrorStale(&j.rRects[i], &it.Rect)) || j.rIDs[i] != it.ID {
			if n == deltaMax {
				j.chgN[w] = deltaMax + 1
				return
			}
			list[n] = changeRef{idx: int32(i), side: 0}
			n++
		}
	}
	lo, hi = j.chunkRange(len(j.sItems), w)
	for i := lo; i < hi; i++ {
		it := &j.sItems[i]
		if (rectChanged(&j.sRects[i], &it.Rect) && mirrorStale(&j.sRects[i], &it.Rect)) || j.sIDs[i] != it.ID {
			if n == deltaMax {
				j.chgN[w] = deltaMax + 1
				return
			}
			list[n] = changeRef{idx: int32(i), side: 1}
			n++
		}
	}
	j.chgN[w] = int32(n)
}

// mirrorStale is the second look at an item rect r whose bits differ from
// its mirror m: stale unless m is r's mirrorForm.
func mirrorStale(m, r *geom.Rect) bool {
	c := mirrorForm(*r)
	return rectChanged(m, &c)
}

// rectChanged compares a mirror rect against an item rect bit for bit.
// The XOR-OR accumulation is branchless: in the steady state every rect
// matches, so one predictable test per rect beats four short-circuit
// compares.
func rectChanged(a, b *geom.Rect) bool {
	d := math.Float64bits(a.MinX) ^ math.Float64bits(b.MinX)
	d |= math.Float64bits(a.MinY) ^ math.Float64bits(b.MinY)
	d |= math.Float64bits(a.MaxX) ^ math.Float64bits(b.MaxX)
	d |= math.Float64bits(a.MaxY) ^ math.Float64bits(b.MaxY)
	return d != 0
}

// packTiles/unpackTiles encode a rect's inclusive tile range in one uint64
// (10 bits per coordinate fits the 1024 grid cap), so the scatter pass
// reuses the count pass's tileOf work.
func packTiles(x0, y0, x1, y1 int) uint64 {
	return uint64(x0) | uint64(y0)<<10 | uint64(x1)<<20 | uint64(y1)<<30
}

func unpackTiles(c uint64) (x0, y0, x1, y1 int) {
	return int(c & 1023), int(c >> 10 & 1023), int(c >> 20 & 1023), int(c >> 30 & 1023)
}

// joinTiles is the join phase, the one place work units are handed out:
// every worker claims units off the shared cursor, largest first, until it
// passes the last one, joining each.
func (j *Joiner) joinTiles(w int) {
	ws := &j.ws[w]
	for {
		k := int(j.cursor.Add(1)) - 1
		if k >= len(j.units) {
			return
		}
		u := j.units[k]
		var t0 sim.Time
		if j.rec != nil {
			t0 = wallSince(j.epoch)
		}
		before := ws.cands.Len()
		comps := j.joinUnit(ws, u)
		ws.parts++
		j.prog.UnitDone(j.ucost[k])
		if j.rec != nil {
			t := int(u.tile)
			j.rec.Complete(w, t0, wallSince(j.epoch), timeline.KindCPUSweep, sim.SpanArgs{
				A: int64(t % j.gx), B: int64(t / j.gx),
				C: int64(ws.cands.Len() - before), D: int64(comps),
			})
		}
	}
}

// joinTileBatch is the small-unit path: every rect of the smaller side is
// batch-tested against the larger side's contiguous plane segment with
// the vectorized bitmask kernel. Like the sweep path it tests and emits
// from the unit's segments alone.
func joinTileBatch(ws *workerState, r, s *tileSeg) int {
	small, large := r, s
	if s.planes.Len() < r.planes.Len() {
		small, large = s, r
	}
	n := large.planes.Len()
	w := geom.MaskWords(n)
	if cap(ws.mask) < w {
		ws.mask = make([]uint64, w, w*2)
	}
	ws.mask = ws.mask[:w]
	comps := 0
	for k := range small.planes.Len() {
		geom.IntersectBatchPlanes(small.planes.RectAt(k), &large.planes, ws.mask)
		comps += n
		for i := range n {
			if ws.mask[i>>6]>>(uint(i)&63)&1 != 0 {
				if small == r {
					ws.emit(r, s, int32(k), int32(i))
				} else {
					ws.emit(r, s, int32(i), int32(k))
				}
			}
		}
	}
	ws.comps += int64(comps)
	return comps
}

// tileOf maps a point to its tile coordinates. The mapping is monotone in
// each coordinate, and rect assignment is its only caller: the count pass
// derives each rect's tile range from it, the scatter the ownership bits
// from that range, so the reference-point test (ownedHit) is exact without
// calling it again. Clamping sends the data MBR's max edge (and any stray
// non-finite value) into the border tiles.
func (j *Joiner) tileOf(x, y float64) (int, int) {
	return clampTile(int((x-j.minX)*j.invW), j.gx), clampTile(int((y-j.minY)*j.invH), j.gy)
}

func clampTile(v, g int) int {
	if v < 0 {
		return 0
	}
	if v >= g {
		return g - 1
	}
	return v
}

// safeInv returns g/width, the tiles-per-unit factor, or 0 when the axis
// has no extent (then every rect lands in stripe 0).
func safeInv(width float64, g int) float64 {
	if width > 0 {
		return float64(g) / width
	}
	return 0
}

// AutoGrid reports the grid side Join would pick for n = len(r)+len(s)
// rectangles and the given worker count when Config.Grid is zero. It is
// exported for the planner (internal/plan), which records the resolved
// grid in its decision instead of leaving it implicit.
func AutoGrid(n, workers int) int {
	if workers <= 0 {
		workers = 1
	}
	return autoGrid(n, workers)
}

// AutoGridSkewed is AutoGrid with an occupancy-skew correction for the
// cold path. Clustered inputs pack most rectangles into few tiles, so the
// ~160-per-tile default leaves the hot tiles far over budget on the very
// first join — before the refinement pass has any cost feedback. A
// modestly finer grid splits those hot tiles up front.
// skew is the probe-grid occupancy skew (plan.Stats.Skew, max/mean over
// cells); values at or below 2.5 — the uniform regime, matching the
// planner's refinement threshold — leave the grid unchanged, and the
// boost is logarithmic and capped at 1.5x so a pathological probe cannot
// push the grid off its sweet spot.
func AutoGridSkewed(n, workers int, skew float64) int {
	g := AutoGrid(n, workers)
	if skew > 2.5 {
		boost := 1 + math.Log2(skew/2.5)/6
		if boost > 1.5 {
			boost = 1.5
		}
		g = int(float64(g)*boost + 0.5)
		if g > 1024 {
			g = 1024
		}
	}
	return g
}

// autoGrid picks the default grid side: about 160 rects per tile keeps the
// per-tile sweeps in their sweet spot — finer grids buy little pruning but
// pay linearly in bucketing and duplicate suppression (see BenchmarkJoinGrid
// for the sweep behind the constant) — with a floor so every worker sees
// several tiles.
func autoGrid(n, workers int) int {
	g := int(math.Sqrt(float64(n)/160.0) + 0.5)
	if min := int(math.Ceil(math.Sqrt(float64(4 * workers)))); g < min {
		g = min
	}
	if g < 1 {
		g = 1
	}
	if g > 1024 {
		g = 1024
	}
	return g
}

// reset prepares the counting-sort state for a run: zeroed counts and
// disorder flags, sized boundary array.
func (g *gridSide) reset(workers, tiles int) {
	n := workers * tiles
	if cap(g.counts) < n {
		g.counts = make([]int32, n)
	} else {
		g.counts = g.counts[:n]
		clear(g.counts)
	}
	if cap(g.starts) < tiles+1 {
		g.starts = make([]int32, tiles+1)
	} else {
		g.starts = g.starts[:tiles+1]
	}
	if cap(g.disorder) < workers {
		g.disorder = make([]uint8, workers)
	} else {
		g.disorder = g.disorder[:workers]
		clear(g.disorder)
	}
}

// prefixSum turns the count matrix into scatter cursors and fills the tile
// segment boundaries, sizing idx, ids, own and the planes for the scatter
// pass. A first or grown allocation gets tail headroom: the delta step
// inserts into the flat layout in place and declines when an array would
// have to grow.
func (g *gridSide) prefixSum(workers, tiles int) {
	total := int32(0)
	for t := 0; t < tiles; t++ {
		g.starts[t] = total
		for w := 0; w < workers; w++ {
			c := g.counts[w*tiles+t]
			g.counts[w*tiles+t] = total
			total += c
		}
	}
	g.starts[tiles] = total
	n := int(total)
	room := n + n/16 + 16
	g.idx = growRoom(g.idx, n, room)
	g.ids = growRoom(g.ids, n, room)
	g.own = growRoom(g.own, n, room)
	if cap(g.planes.MinX) < n {
		g.planes.Reset(room)
	}
	g.planes.Reset(n)
}

// growRoom sizes s to n, allocating room (≥ n) when it must grow.
func growRoom[T any](s []T, n, room int) []T {
	if cap(s) < n {
		return make([]T, n, room)
	}
	return s[:n]
}

// tileOrder sorts j.units (and the parallel j.ucost) by descending cost,
// ties on ascending (tile, part) for determinism.
type tileOrder struct{ j *Joiner }

func (o *tileOrder) Len() int { return len(o.j.units) }
func (o *tileOrder) Less(i, k int) bool {
	if o.j.ucost[i] != o.j.ucost[k] {
		return o.j.ucost[i] > o.j.ucost[k]
	}
	a, b := o.j.units[i], o.j.units[k]
	if a.tile != b.tile {
		return a.tile < b.tile
	}
	return a.part < b.part
}
func (o *tileOrder) Swap(i, k int) {
	o.j.units[i], o.j.units[k] = o.j.units[k], o.j.units[i]
	o.j.ucost[i], o.j.ucost[k] = o.j.ucost[k], o.j.ucost[i]
}

// wallSince returns wall milliseconds since epoch, the native timeline's
// clock.
func wallSince(epoch time.Time) sim.Time {
	return sim.Time(float64(time.Since(epoch)) / float64(time.Millisecond))
}

// grow helpers: length-setting reslices that only allocate on first growth.

func growRects(s []geom.Rect, n int) []geom.Rect {
	if cap(s) < n {
		return make([]geom.Rect, n)
	}
	return s[:n]
}

func growIDs(s []rtree.EntryID, n int) []rtree.EntryID {
	if cap(s) < n {
		return make([]rtree.EntryID, n)
	}
	return s[:n]
}

// prepOrder sizes a persistent order array: an unchanged length keeps the
// previous permutation (likely near-sorted), a changed one resets to
// identity so the array stays a valid permutation of the rect indices.
func prepOrder(ord []int32, n int) []int32 {
	if len(ord) == n {
		return ord
	}
	if cap(ord) < n {
		ord = make([]int32, n)
	} else {
		ord = ord[:n]
	}
	for i := range ord {
		ord[i] = int32(i)
	}
	return ord
}

func growCodes(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

func growChanges(s []changeRef, n int) []changeRef {
	if cap(s) < n {
		return make([]changeRef, n)
	}
	return s[:n]
}

func growCounts(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func growStates(s []workerState, n int) []workerState {
	if cap(s) < n {
		out := make([]workerState, n)
		copy(out, s)
		return out
	}
	return s[:n]
}

// growCands sizes a resident candidate slice to n. The first allocation is
// exact — a one-shot join hands it to the caller, who should not inherit
// slack — while regrowth keeps a quarter of headroom, so a re-join that
// returns a few more pairs than the last one does not reallocate the whole
// result.
func growCands(s []join.Candidate, n int) []join.Candidate {
	switch {
	case cap(s) >= n:
		return s[:n]
	case cap(s) == 0:
		return make([]join.Candidate, n)
	}
	return make([]join.Candidate, n, n+n/4)
}
