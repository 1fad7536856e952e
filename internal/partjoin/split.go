package partjoin

import (
	"slices"
	"sort"

	"spjoin/internal/geom"
)

// Hot-tile split: the uniform grid degrades on clustered inputs — one hot
// tile can hold a large fraction of both sides, so its sweep bounds the join
// no matter how many workers idle beside it (the Join Product Skew problem).
// A tile whose estimated sweep cost exceeds a trigger is therefore not joined
// as one work unit but as parts units {tile, part, parts}, each running one
// contiguous range of the tile sweep's events. The data stay where the
// counting sort put them: the split divides the tile's sweep, not its
// rectangles, as the paper's task reassignment hands an idle processor part
// of a busy one's remaining work rather than re-partitioning the data.
//
// The ranges are exact by the merge-path argument. The tile sweep processes
// the events of its two sweep-sorted segments in the order of their merge by
// MinX (R first on equal keys); the event at merge state (i, j) scans the
// other side from its front, S[j:] or R[i:], and depends on nothing else.
// Cutting the merge at the states it passes after p events
// (geom.MergeSplit, a binary search on the diagonal i+j = p) therefore
// splits the sweep into ranges whose pairs, concatenated in part order, are
// the whole sweep's, in the same order, with the same comparison count. Each
// pair is still found by exactly one event of the tile, so the
// reference-point test keeps it in exactly one unit, and a split join's
// Comparisons, Duplicates and candidate set equal the unsplit join's.
//
// Part k of n events runs the events [n·k/parts, n·(k+1)/parts). The ranges
// are found at join time on the tile's current segments, so the delta step
// edits a split tile's segments like any other and only re-costs its units;
// parts stays frozen until the next schedule build, as the trigger does.

const (
	// RefineDisabled as Config.RefineThreshold turns the hot-tile split off.
	RefineDisabled = -1

	// refineMinCost floors the auto trigger: below ~32k estimated sweep
	// steps a tile is not worth a unit of its own per worker.
	refineMinCost = 1 << 15

	// sweepBatch bounds the events one sweep call runs before the emit
	// drains its hits, so a worker's hit buffer stays bounded by what 4,096
	// events find, not by what the largest unit does.
	sweepBatch = 4096
)

// workUnit is one schedulable join task: part part of the parts event
// ranges of root tile tile (part 0 of 1 is the whole tile).
type workUnit struct {
	tile        int32
	part, parts int32
}

// resolveThreshold turns Config.RefineThreshold into the trigger: a tile
// costlier than it is split. A negative raw disables the split; a positive
// raw is explicit, so tests and the planner control it directly. Zero — the
// default — derives the trigger from the schedule itself: a tile is hot when
// its sweep cost approaches a worker's fair share of the total (such a tile
// bounds the join's wall time single-handedly, the definition of a
// straggler). Deliberately not relative to the mean tile: on all-cluster
// inputs every non-empty tile is expensive and a mean-relative rule would
// see no outliers at all.
func (j *Joiner) resolveThreshold(raw int64) int64 {
	if raw != 0 {
		return raw
	}
	if len(j.cost) == 0 {
		return RefineDisabled
	}
	trigger := sumCost(j.cost) / int64(4*j.workers)
	return max(trigger, refineMinCost)
}

// prepSchedule builds the work-unit schedule from the tile segments: it
// lists the non-empty tiles with their costs, resolves the trigger, cuts
// every tile past it into parts units of about trigger/2 estimated cost, and
// sorts the schedule largest first — the canonical order every re-join
// reuses — with tail headroom: the delta step schedules a tile's unit in
// place when the tile gains its first rect of a side, and declines when the
// schedule would have to grow.
func (j *Joiner) prepSchedule(raw int64) {
	tiles := j.gx * j.gy
	j.tiles, j.cost, j.parts = j.tiles[:0], j.cost[:0], j.parts[:0]
	for t := 0; t < tiles; t++ {
		rn := int64(j.rPart.starts[t+1] - j.rPart.starts[t])
		sn := int64(j.sPart.starts[t+1] - j.sPart.starts[t])
		if c := unitCost(rn, sn); c > 0 {
			j.tiles = append(j.tiles, int32(t))
			j.cost = append(j.cost, c)
		}
	}
	j.trigger = j.resolveThreshold(raw)
	j.units, j.ucost = j.units[:0], j.ucost[:0]
	j.refinedTiles, j.subtiles = 0, 0
	for i, t := range j.tiles {
		c := j.cost[i]
		parts := j.splitParts(t, c)
		j.parts = append(j.parts, parts)
		if parts > 1 {
			j.refinedTiles++
			j.subtiles += int(parts)
		}
		for k := int32(0); k < parts; k++ {
			j.units = append(j.units, workUnit{tile: t, part: k, parts: parts})
			j.ucost = append(j.ucost, partCost(c, k, parts))
		}
	}
	j.order.j = j
	sort.Sort(&j.order)
	j.units = slices.Grow(j.units, deltaMax)
	j.ucost = slices.Grow(j.ucost, deltaMax)
	j.unitsOK = true
	j.cThr = raw
}

// splitParts returns how many units tile t of cost c becomes: one below the
// trigger, else ⌈c / max(1, trigger/2)⌉ capped at the tile's event count. A
// tile the batch path joins (a side of at most batchMax rects) stays whole:
// its work is per small-side rect, not per sweep event.
func (j *Joiner) splitParts(t int32, c int64) int32 {
	if !j.isHot(c) {
		return 1
	}
	rn := int64(j.rPart.starts[t+1] - j.rPart.starts[t])
	sn := int64(j.sPart.starts[t+1] - j.sPart.starts[t])
	if rn <= batchMax || sn <= batchMax {
		return 1
	}
	half := max(1, j.trigger/2)
	return int32(min((c+half-1)/half, rn+sn))
}

// isHot reports whether a root tile of cost c is past the trigger of the
// last schedule build.
func (j *Joiner) isHot(c int64) bool { return j.trigger >= 0 && c > j.trigger }

// partCost is part k's share of a tile cost c split parts ways; the shares
// sum to c, so the schedule's cost mass is the tiles'.
func partCost(c int64, k, parts int32) int64 {
	share := c / int64(parts)
	if int64(k) < c%int64(parts) {
		share++
	}
	return share
}

// tileParts returns the frozen part count of tile t, which the last
// schedule build listed as non-empty.
func (j *Joiner) tileParts(t int32) (int32, bool) {
	i, ok := slices.BinarySearch(j.tiles, t)
	if !ok {
		return 0, false
	}
	return j.parts[i], true
}

// joinUnit joins one work unit: its tile's event range, swept in batches of
// at most sweepBatch events with the emit after each. A tile the batch path
// joins is joined whole by its part 0 (a delta can leave a split tile with a
// side that small). It returns the comparison count.
func (j *Joiner) joinUnit(ws *workerState, u workUnit) int {
	t := int(u.tile)
	r := j.rPart.seg(int(j.rPart.starts[t]), int(j.rPart.starts[t+1]))
	s := j.sPart.seg(int(j.sPart.starts[t]), int(j.sPart.starts[t+1]))
	rn, sn := r.planes.Len(), s.planes.Len()
	// Tiny-side units: batch-testing each small-side rect against the
	// larger side's plane segment beats the sweep's bookkeeping.
	if rn <= batchMax || sn <= batchMax {
		if u.part > 0 {
			return 0
		}
		return joinTileBatch(ws, &r, &s)
	}
	// Segments are already in sweep order (see scatterChunk).
	n := int64(rn + sn)
	p0 := int(n * int64(u.part) / int64(u.parts))
	p1 := int(n * int64(u.part+1) / int64(u.parts))
	i0, j0 := geom.MergeSplit(r.planes.MinX, s.planes.MinX, p0)
	comps := 0
	for p0 < p1 {
		p := min(p0+sweepBatch, p1)
		i1, j1 := geom.MergeSplit(r.planes.MinX, s.planes.MinX, p)
		var c int
		ws.hits, c = geom.SweepPairsPlanesDenseRange(&r.planes, &s.planes, i0, i1, j0, j1, ws.hits[:0])
		comps += c
		for _, h := range ws.hits {
			ws.emit(&r, &s, h.R, h.S)
		}
		p0, i0, j0 = p, i1, j1
	}
	ws.comps += int64(comps)
	return comps
}
