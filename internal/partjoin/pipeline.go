package partjoin

import (
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"spjoin/internal/geom"
	"spjoin/internal/sim"
	"spjoin/internal/timeline"
)

// Pipelined cold-path build: instead of running scatter, fill and the
// per-tile sweeps as separate full pool barriers, one fused phase does all
// three overlapped. Each worker first scatters its sweep-order chunks of
// both sides directly into the tile segments AND their coordinate planes
// (the fill is fused into the scatter — the rectangle is already in a
// register), publishing a per-worker column frontier as it advances; the
// moment every frontier has passed a tile's column, that tile's segments
// are complete and any worker may claim it from the cost-descending ready
// queue and sweep it while trailing chunks are still scattering. Hot tiles
// routed to refinement are parked in the queue until every scatter has
// landed, then one worker splits them (the same sequential splitSeg walk
// the barrier build uses) and publishes the resulting subtile units for
// the others to drain.
//
// Readiness protocol and memory ordering: the scatter walks a side's
// global sweep order, which ascends by MinX, so a worker that is about to
// place a rectangle whose leftmost tile column is c has already completed
// every write it will ever make to columns < c (a rectangle's span never
// reaches left of its own MinX column). The worker therefore publishes c
// to its frontier cell with an atomic store; a claimer that loads every
// frontier and sees min > col observes — by the store/load
// happens-before of sync/atomic — all segment and plane writes for that
// column. An infinite MinX is the one way column order can break (it sorts
// last — EmptyRect, which is also how a NaN rect is mirrored — yet its tile
// conversion overflows and clamps to column 0), so the count pass records a
// per-chunk column-monotonicity flag and a run that trips it publishes no
// frontiers at all: tiles then become ready only at the whole-scatter
// rendezvous (the scatDone counter), which degrades the overlap, never
// the result. The refinement hand-off uses the same discipline: the
// owner's splitSeg writes all precede the release store of refineDone,
// and consumers touch the subtile units only after acquiring it.
//
// Exactness: the fused scatter writes the identical idx/planes content the
// barrier scatter+fill pair produces (same chunks, same cursors from the
// same prefix sums), refinement runs the same splitSeg sequence in the
// same ascending-tile order with the same budget, and every work unit —
// root tile or subtile leaf — is swept by exactly one claimer. After the
// phase, pipelineRun reconstructs the canonical largest-first unit
// schedule, so a following clean fast-path join reuses the exact state a
// barrier build would have cached.

// pipeState is the shared coordination state of one fused pipeline phase.
type pipeState struct {
	front []atomic.Int32 // per-worker scatter column frontier (gx = done)
	mono  bool           // frontiers are sound (count saw ascending columns)

	scatDone    atomic.Int32 // workers done scattering
	refineOwner atomic.Int32 // CAS gate electing the refinement runner
	refineDone  atomic.Int32 // release-published when subunits are final
	subCount    int32        // number of subtile units; final under refineDone
	subCursor   atomic.Int64 // claim cursor over the subtile units
}

func (p *pipeState) reset(workers int) {
	if cap(p.front) < workers {
		p.front = make([]atomic.Int32, workers)
	}
	p.front = p.front[:workers]
	for i := range p.front {
		p.front[i].Store(0)
	}
	p.scatDone.Store(0)
	p.refineOwner.Store(0)
	p.refineDone.Store(0)
	p.subCount = 0
	p.subCursor.Store(0)
}

// pipeOrder sorts j.pOrder (indices into j.tiles) by descending tile cost,
// ties on ascending tile id — the claim scan order, so ready tiles are
// taken largest-first.
type pipeOrder struct{ j *Joiner }

func (o *pipeOrder) Len() int { return len(o.j.pOrder) }
func (o *pipeOrder) Less(i, k int) bool {
	a, b := o.j.pOrder[i], o.j.pOrder[k]
	if o.j.cost[a] != o.j.cost[b] {
		return o.j.cost[a] > o.j.cost[b]
	}
	return o.j.tiles[a] < o.j.tiles[b]
}
func (o *pipeOrder) Swap(i, k int) {
	o.j.pOrder[i], o.j.pOrder[k] = o.j.pOrder[k], o.j.pOrder[i]
}

// pipelineRun is the cold build's fused tail: schedule preparation, the
// pipelined pool phase, and the canonical-schedule reconstruction. On
// entry both sides are counted and prefix-summed; on exit the Joiner's
// cached state (segments, planes, refinement arenas, unit schedule) is
// bit-identical to what the barrier phases would have left.
func (j *Joiner) pipelineRun(cfg Config) {
	workers := j.workers

	// Schedule prep, sequential on the owner: non-empty tiles and costs,
	// the cost-descending claim order, and the refinement hand-off (hot
	// tiles parked in the claim table until the scatter rendezvous). Both
	// prep and the closing reconstruction are schedule work — they accrue
	// to the refine bucket like the barrier build's buildUnits block.
	refBefore := j.phaseNS[timeline.PhaseRefine]
	tRef := time.Now()
	if j.rec != nil {
		j.rec.BeginSpan(0, wallSince(j.epoch), timeline.KindPhase,
			sim.SpanArgs{A: timeline.PhaseRefine})
	}
	tiles := j.gx * j.gy
	j.tiles = j.tiles[:0]
	j.cost = j.cost[:0]
	for t := 0; t < tiles; t++ {
		rn := int64(j.rPart.starts[t+1] - j.rPart.starts[t])
		sn := int64(j.sPart.starts[t+1] - j.sPart.starts[t])
		if rn == 0 || sn == 0 {
			continue
		}
		j.tiles = append(j.tiles, int32(t))
		j.cost = append(j.cost, rn*sn+rn+sn)
	}
	j.trigger, j.recur = j.resolveThreshold(cfg.RefineThreshold)
	if cap(j.pOrder) < len(j.tiles) {
		j.pOrder = make([]int32, len(j.tiles))
	}
	j.pOrder = j.pOrder[:len(j.tiles)]
	for i := range j.pOrder {
		j.pOrder[i] = int32(i)
	}
	j.pipeOrd.j = j
	sort.Sort(&j.pipeOrd)
	j.ready.Reset(len(j.tiles))

	// Refinement state resets exactly as buildUnits' head does; the units
	// list will collect subtile leaves during the in-phase refinement and
	// the root units afterwards.
	j.units = j.units[:0]
	j.ucost = j.ucost[:0]
	j.refNodes = j.refNodes[:0]
	j.refSplits = j.refSplits[:0]
	j.refRIdx = j.refRIdx[:0]
	j.refSIdx = j.refSIdx[:0]
	j.refinedTiles, j.subtiles = 0, 0
	j.refBudget = refineBudgetFactor * (len(j.rPart.idx) + len(j.sPart.idx))
	j.refStarved = false
	hot := false
	if j.trigger >= 0 {
		for i, c := range j.cost {
			if c > j.trigger {
				j.ready.Defer(i)
				hot = true
			}
		}
	}
	j.pipe.reset(workers)
	j.pipe.mono = j.rPart.monotone(workers) && j.sPart.monotone(workers)
	if !hot {
		j.pipe.refineDone.Store(1)
	}
	if j.rec != nil {
		j.rec.EndSpan(0, wallSince(j.epoch), sim.SpanArgs{}, false)
	}
	j.phaseNS[timeline.PhaseRefine] = refBefore + time.Since(tRef).Nanoseconds()

	// Publish the root schedule as the live-progress total; the in-phase
	// refinement adjusts it (pipeRefine) when hot roots become subtiles.
	j.prog.SetTotal(int64(len(j.tiles)), sumCost(j.cost))

	// The fused phase. Its wall time is reported as Result.PipelineNS;
	// the per-phase buckets receive each worker's busy time instead (the
	// phases overlap, so per-phase wall no longer exists).
	j.phase = phasePipeline
	t0 := time.Now()
	j.pool.Run(j)
	j.pipelineNS = time.Since(t0).Nanoseconds()
	for w := range j.ws[:workers] {
		for p, ns := range j.ws[w].phaseNS {
			j.phaseNS[p] += ns
		}
	}

	// Reconstruct the canonical schedule: the subtile units are already in
	// splitSeg order; every claim-swept root tile joins them, and the
	// largest-first sort (a total order — cost, then tile, then node)
	// leaves the exact unit sequence buildUnits produces, so the clean
	// fast path reuses it verbatim.
	tRef = time.Now()
	if j.rec != nil {
		j.rec.BeginSpan(0, wallSince(j.epoch), timeline.KindPhase,
			sim.SpanArgs{A: timeline.PhaseRefine})
	}
	for i, t := range j.tiles {
		if j.ready.Taken(i) {
			j.units = append(j.units, workUnit{tile: t, node: -1})
			j.ucost = append(j.ucost, j.cost[i])
		}
	}
	j.sortUnits()
	j.unitsOK = true
	j.cThr = cfg.RefineThreshold
	if j.rec != nil {
		j.rec.EndSpan(0, wallSince(j.epoch), sim.SpanArgs{}, false)
	}
	j.phaseNS[timeline.PhaseRefine] += time.Since(tRef).Nanoseconds()
}

// pipeWorker is one worker's run through the fused phase: scatter+fill its
// chunks, then claim work — ready root tiles largest-first, the refinement
// hand-off once scattering is over, subtile units once published — until
// everything is drained.
func (j *Joiner) pipeWorker(w int) {
	ws := &j.ws[w]
	t0 := time.Now()
	if j.rec != nil {
		j.rec.BeginSpan(w, wallSince(j.epoch), timeline.KindPhase,
			sim.SpanArgs{A: timeline.PhasePartition})
	}
	j.pipeScatter(w)
	if j.rec != nil {
		j.rec.EndSpan(w, wallSince(j.epoch), sim.SpanArgs{}, false)
	}
	ws.phaseNS[timeline.PhasePartition] += time.Since(t0).Nanoseconds()
	workers := int32(j.workers)
	j.pipe.scatDone.Add(1)

	for {
		progress := j.pipeSweepRoots(ws, w)
		if j.pipe.refineDone.Load() == 0 && j.pipe.scatDone.Load() == workers &&
			j.pipe.refineOwner.CompareAndSwap(0, 1) {
			j.pipeRefine(ws, w)
			progress = true
		}
		if j.pipeSweepSubs(ws, w) {
			progress = true
		}
		if !progress {
			if j.pipeDrained(workers) {
				break
			}
			runtime.Gosched()
		}
	}

	tS := time.Now()
	j.finishWorker(ws)
	ws.phaseNS[timeline.PhaseSweep] += time.Since(tS).Nanoseconds()
}

// pipeScatter is the fused scatter+fill over this worker's chunks: one
// walk of each side's sweep order writes the tile segment index AND the
// segment's coordinate plane (the barrier build's separate fill pass
// re-gathered every rectangle; here it is already loaded). The frontier
// publishes only while the S side scatters — this worker's R chunk is
// complete by then, so columns left of the S cursor are complete for both
// sides — and only on column advances, so the atomic store runs at most
// gx times.
func (j *Joiner) pipeScatter(w int) {
	tiles := j.gx * j.gy
	sides := [2]struct {
		part  *gridSide
		rects []geom.Rect
		ord   []int32
		codes []uint64
	}{
		{&j.rPart, j.rRects, j.rOrd, j.rTile},
		{&j.sPart, j.sRects, j.sOrd, j.sTile},
	}
	fr := &j.pipe.front[w]
	publish := j.pipe.mono
	last := int32(0)
	for si := range sides {
		side := &sides[si]
		cur := side.part.counts[w*tiles : (w+1)*tiles]
		idx := side.part.idx
		planes := &side.part.planes
		lo, hi := j.chunkRange(len(side.ord), w)
		for pos := lo; pos < hi; pos++ {
			i := side.ord[pos]
			x0, y0, x1, y1 := unpackTiles(side.codes[pos])
			if publish && si == 1 {
				if nx := int32(x0); nx > last {
					fr.Store(nx)
					last = nx
				}
			}
			r := side.rects[i]
			if x0 == x1 && y0 == y1 { // the common single-tile rect
				c := y0*j.gx + x0
				p := cur[c]
				idx[p] = i
				planes.SetRect(int(p), r)
				cur[c] = p + 1
				continue
			}
			for ty := y0; ty <= y1; ty++ {
				base := ty * j.gx
				for tx := x0; tx <= x1; tx++ {
					p := cur[base+tx]
					idx[p] = i
					planes.SetRect(int(p), r)
					cur[base+tx] = p + 1
				}
			}
		}
	}
	fr.Store(int32(j.gx))
}

// pipeSweepRoots scans the cost-descending claim order for free, ready
// root tiles and sweeps every one it wins. While scatters are still in
// flight a tile is ready when every worker's frontier has passed its
// column; afterwards every tile is. Reports whether it swept anything.
func (j *Joiner) pipeSweepRoots(ws *workerState, w int) bool {
	workers := int32(j.workers)
	ready := j.pipe.scatDone.Load() == workers
	minFront := int32(j.gx)
	if !ready {
		if !j.pipe.mono {
			return false // frontiers unsound: wait for the rendezvous
		}
		for i := range j.pipe.front {
			if f := j.pipe.front[i].Load(); f < minFront {
				minFront = f
			}
		}
		if minFront == 0 {
			return false
		}
	}
	swept := false
	for _, pi := range j.pOrder {
		i := int(pi)
		if !j.ready.Free(i) {
			continue
		}
		t := int(j.tiles[pi])
		if !ready && int32(t%j.gx) >= minFront {
			continue
		}
		if !j.ready.TryClaim(i) {
			continue
		}
		j.pipeJoinUnit(ws, w, t, -1, j.cost[i])
		swept = true
	}
	return swept
}

// pipeRefine is the elected worker's refinement pass, the in-pipeline
// analogue of buildUnits' splitting: deferred tiles are visited in
// ascending tile order (the budget consumption order the barrier build
// uses), committed splits append their leaf units, failed ones release
// the tile back to the claimers. The arena planes are filled inline — the
// other workers are busy sweeping, and a nested pool phase cannot run
// inside a running phase.
func (j *Joiner) pipeRefine(ws *workerState, w int) {
	tR := time.Now()
	if j.rec != nil {
		j.rec.BeginSpan(w, wallSince(j.epoch), timeline.KindPhase,
			sim.SpanArgs{A: timeline.PhaseRefine})
	}
	var committed, committedCost int64
	for i, t := range j.tiles {
		if !j.ready.Deferred(i) {
			continue
		}
		before := len(j.units)
		if j.refineRoot(t, j.recur) {
			j.refinedTiles++
			j.subtiles += len(j.units) - before
			committed++
			committedCost += j.cost[i]
		} else {
			j.ready.Release(i)
		}
	}
	j.sizeArenaPlanes()
	for pos, ri := range j.refRIdx {
		j.refRPlanes.SetRect(pos, j.rRects[ri])
	}
	for pos, si := range j.refSIdx {
		j.refSPlanes.SetRect(pos, j.sRects[si])
	}
	j.pipe.subCount = int32(len(j.units))
	// Reshape the live-progress total: each committed root leaves the
	// schedule and its subtile leaves (possibly zero, when the split
	// proved every rect dead) enter it.
	j.prog.AddTotal(int64(len(j.units))-committed, sumCost(j.ucost)-committedCost)
	j.pipe.refineDone.Store(1) // release: units/nodes/planes final
	if j.rec != nil {
		j.rec.EndSpan(w, wallSince(j.epoch), sim.SpanArgs{}, false)
	}
	ws.phaseNS[timeline.PhaseRefine] += time.Since(tR).Nanoseconds()
}

// pipeSweepSubs drains published subtile units off the shared cursor.
func (j *Joiner) pipeSweepSubs(ws *workerState, w int) bool {
	if j.pipe.refineDone.Load() == 0 {
		return false // acquire: subCount and the units are not final yet
	}
	n := int64(j.pipe.subCount)
	if n == 0 {
		return false
	}
	swept := false
	for {
		k := j.pipe.subCursor.Add(1) - 1
		if k >= n {
			break
		}
		u := j.units[k]
		j.pipeJoinUnit(ws, w, int(u.tile), u.node, j.ucost[k])
		swept = true
	}
	return swept
}

// pipeJoinUnit sweeps one claimed work unit, with the same per-unit
// timeline span the barrier join phase emits; cost is the unit's
// scheduled estimate, reported to the live-progress slot.
func (j *Joiner) pipeJoinUnit(ws *workerState, w, t int, node int32, cost int64) {
	tU := time.Now()
	var t0 sim.Time
	if j.rec != nil {
		t0 = wallSince(j.epoch)
	}
	before := ws.cands.Len()
	var comps int
	if node < 0 {
		comps = j.joinTile(ws, t)
	} else {
		comps = j.joinSub(ws, node)
	}
	ws.parts++
	j.prog.UnitDone(cost)
	if j.rec != nil {
		j.rec.Complete(w, t0, wallSince(j.epoch), timeline.KindCPUSweep, sim.SpanArgs{
			A: int64(t % j.gx), B: int64(t / j.gx),
			C: int64(ws.cands.Len() - before), D: int64(comps),
		})
	}
	ws.phaseNS[timeline.PhaseSweep] += time.Since(tU).Nanoseconds()
}

// pipeDrained reports whether the phase can end: all scatters landed, the
// refinement hand-off resolved, no root tile is still claimable and the
// subtile cursor is exhausted. Units claimed by still-sweeping peers are
// fine to leave behind — the pool's phase barrier waits for every worker.
func (j *Joiner) pipeDrained(workers int32) bool {
	if j.pipe.scatDone.Load() != workers || j.pipe.refineDone.Load() == 0 {
		return false
	}
	if j.pipe.subCursor.Load() < int64(j.pipe.subCount) {
		return false
	}
	for i := range j.tiles {
		if j.ready.Free(i) {
			return false
		}
	}
	return true
}
