package partjoin

import (
	"slices"
	"sort"

	"spjoin/internal/geom"
)

// Adaptive tile refinement: the uniform grid degrades on clustered inputs —
// one hot tile can hold a large fraction of both sides, so its sweep
// dominates the join no matter how many workers idle beside it (the Join
// Product Skew problem). After the counting-sort scatter, tiles whose
// estimated sweep cost exceeds a threshold are therefore split recursively
// into refineK×refineK subtiles, and the per-tile join schedule becomes a
// schedule of work units: unrefined tiles plus refined leaf subtiles,
// largest estimated sweep first. A schedule build is three steps around the
// one join phase: prepSchedule before it, refineHot inside it on worker 0
// while the other workers already sweep the unrefined tiles, sortUnits
// after it.
//
// Correctness hinges on the reference-point rule surviving the split. Each
// split freezes its own geometry (origin + inverse cell extents) in the
// refNode it creates, and the emit-time ownership walk re-evaluates the
// exact same clamped monotone expression the assignment used. The
// reference point p = (max MinX, min MaxY) of an intersecting pair lies
// inside both rects, so at every level p's subcell is inside both rects'
// clamped cell ranges — the chain of subcells containing p therefore leads
// to exactly one leaf holding both rects, and only that leaf's ownership
// walk succeeds. Every other unit drops the pair as a duplicate, exactly
// like the root grid's cross-tile duplicates.

const (
	// RefineDisabled as Config.RefineThreshold turns refinement off.
	RefineDisabled = -1

	// refineK is the per-axis fan-out of one split (refineK² subcells).
	refineK = 4

	// refineMaxDepth caps the recursion: with refineK=4 six levels refine a
	// tile 4096× per axis, far past any realistic cluster density.
	refineMaxDepth = 6

	// refineMinCost floors the auto threshold: below ~32k estimated sweep
	// steps a tile joins faster than it splits.
	refineMinCost = 1 << 15

	// refineBudgetFactor bounds the refinement arenas at a multiple of the
	// root assignment size. Replication can compound level over level on
	// adversarial inputs (every rect spanning every subcell); the budget
	// turns that into "stop refining", never into unbounded memory.
	refineBudgetFactor = 8
)

// workUnit is one schedulable join task: a root tile (node < 0) or a
// refined leaf subtile (node indexes Joiner.refNodes).
type workUnit struct {
	tile int32
	node int32
}

// refNode is one subtile produced by a split. It stores the frozen
// geometry of the split that created it, so assignment (splitSeg) and the
// emit-time ownership test share the exact expression — which is what
// keeps the duplicate suppression exact under refinement.
type refNode struct {
	parent int32 // parent refNode index, or -1 when the parent is the root tile
	tile   int32 // root tile id (the root reference-point check still applies)
	sx, sy int32 // this node's subcell in the split that created it

	// The creating split maps a point p to subcell
	//   (clampTile(int((p.x-orgX)*invW), kx), clampTile(int((p.y-orgY)*invH), ky)).
	// A degenerate axis keeps k=1 and inv=0, mirroring the root grid's
	// collapsed-stripe convention.
	kx, ky     int32
	orgX, orgY float64
	invW, invH float64

	// Segment ranges into the refinement arenas (refRIdx/refSIdx and the
	// position-space refRPlanes/refSPlanes). Only leaf nodes are joined,
	// but interior nodes keep their ranges for the recursion.
	rLo, rHi int32
	sLo, sHi int32

	// split indexes Joiner.refSplits when this node's own segments were
	// split further (an interior node, or one whose split proved it owns no
	// pairs); -1 marks a leaf, which the schedule joins as one work unit.
	split int32
}

// refSplit records one committed split: what the delta step needs to edit
// the split's arena block in place and to take again, from the changed
// counts, every decision a fresh build would take (see refdelta.go). Records
// are appended in splitSeg order, which is arena order: the arena of a side
// is the concatenation of the records' blocks, each block the subcells'
// segments in cell order — dead subcells (one side empty) included.
type refSplit struct {
	node   int32 // the node whose segments were split, -1 for the root tile
	tile   int32
	depth  int32
	pruned bool // no subcell holds both sides: no block, no children, no units
	cell   refCell

	rBase, sBase int32 // where the split's block starts in each arena
	rCnt, sCnt   [refineK * refineK]int32
	child        [refineK * refineK]int32 // the live subcells' nodes, -1 elsewhere
}

// refCell is the geometry with which a cell's contents would be split:
// the candidate child grid of one tile or subtile.
type refCell struct {
	orgX, orgY float64
	invW, invH float64
	kx, ky     int32
}

// rootCell returns the split geometry of root tile (tx, ty): its own
// extent divided refineK ways per non-degenerate axis.
func (j *Joiner) rootCell(tx, ty int) refCell {
	c := refCell{kx: 1, ky: 1, orgX: j.minX, orgY: j.minY}
	if j.invW > 0 {
		c.orgX = j.minX + float64(tx)/j.invW
		c.invW = refineK * j.invW
		c.kx = refineK
	}
	if j.invH > 0 {
		c.orgY = j.minY + float64(ty)/j.invH
		c.invH = refineK * j.invH
		c.ky = refineK
	}
	return c
}

// childCell returns the split geometry of subcell (cx, cy) of cell: the
// same construction one level finer.
func childCell(cell refCell, cx, cy int32) refCell {
	c := refCell{kx: 1, ky: 1, orgX: cell.orgX, orgY: cell.orgY}
	if cell.invW > 0 {
		c.orgX = cell.orgX + float64(cx)/cell.invW
		c.invW = refineK * cell.invW
		c.kx = refineK
	}
	if cell.invH > 0 {
		c.orgY = cell.orgY + float64(cy)/cell.invH
		c.invH = refineK * cell.invH
		c.ky = refineK
	}
	return c
}

// cellRange returns the inclusive subcell range of r under cell — the same
// clamped monotone mapping tileOf applies at the root. An inverted rect
// (EmptyRect) yields an inverted range and is assigned nowhere, matching
// its root-grid fate.
func cellRange(r *geom.Rect, cell refCell) (x0, y0, x1, y1 int32) {
	x0 = int32(clampTile(int((r.MinX-cell.orgX)*cell.invW), int(cell.kx)))
	x1 = int32(clampTile(int((r.MaxX-cell.orgX)*cell.invW), int(cell.kx)))
	y0 = int32(clampTile(int((r.MinY-cell.orgY)*cell.invH), int(cell.ky)))
	y1 = int32(clampTile(int((r.MaxY-cell.orgY)*cell.invH), int(cell.ky)))
	return
}

// resolveThreshold turns Config.RefineThreshold into the two working cost
// bounds: trigger (a tile costlier than this is refined at all) and
// recurse (a subtile costlier than this is split further). A negative raw
// disables refinement; a positive raw is explicit and serves as both
// bounds, so tests and the planner control the depth directly. Zero — the
// default — derives the trigger from the schedule itself: a tile is hot
// when its sweep cost approaches a worker's fair share of the total (such
// a tile bounds the join's wall time single-handedly, the definition of a
// straggler). Deliberately not relative to the mean tile: on all-cluster
// inputs every non-empty tile is expensive and a mean-relative rule would
// see no outliers at all. Once a tile is hot, recursion continues down to
// refineMinCost — the sweep's sweet spot — because the benefit of
// splitting (subcell separation pruning comparisons) keeps paying far
// below the straggler bound.
func (j *Joiner) resolveThreshold(raw int64) (trigger, recurse int64) {
	if raw != 0 {
		return raw, raw
	}
	if len(j.cost) == 0 {
		return RefineDisabled, RefineDisabled
	}
	var total int64
	for _, c := range j.cost {
		total += c
	}
	trigger = total / int64(4*j.workers)
	if trigger < refineMinCost {
		trigger = refineMinCost
	}
	return trigger, refineMinCost
}

// prepSchedule starts a build of the work-unit schedule from the tile
// segments, on the owner goroutine before the join phase: it lists the
// non-empty tiles with their costs, resolves the cost bounds, empties the
// refinement state and schedules every tile under the trigger as a root
// unit, largest first. Those are the join phase's early units. The hotRoots
// tiles past the trigger are refineHot's.
func (j *Joiner) prepSchedule(raw int64) {
	tiles := j.gx * j.gy
	j.tiles = j.tiles[:0]
	j.cost = j.cost[:0]
	for t := 0; t < tiles; t++ {
		rn := int64(j.rPart.starts[t+1] - j.rPart.starts[t])
		sn := int64(j.sPart.starts[t+1] - j.sPart.starts[t])
		if c := unitCost(rn, sn); c > 0 {
			j.tiles = append(j.tiles, int32(t))
			j.cost = append(j.cost, c)
		}
	}
	j.trigger, j.recur = j.resolveThreshold(raw)
	j.units = j.units[:0]
	j.ucost = j.ucost[:0]
	j.refNodes = j.refNodes[:0]
	j.refSplits = j.refSplits[:0]
	j.refRIdx = j.refRIdx[:0]
	j.refSIdx = j.refSIdx[:0]
	j.refinedTiles, j.subtiles = 0, 0
	j.refBudget = refineBudgetFactor * (len(j.rPart.idx) + len(j.sPart.idx))
	j.refStarved = false
	for i, t := range j.tiles {
		if c := j.cost[i]; !j.isHot(c) {
			j.units = append(j.units, workUnit{tile: t, node: -1})
			j.ucost = append(j.ucost, c)
		}
	}
	j.hotRoots = len(j.tiles) - len(j.units)
	j.sortUnitsFrom(0)
	j.unitsOK = true
	j.cThr = raw
	// Live progress counts every root tile, the hot ones included, until
	// refineHot trades those for what they became.
	j.prog.SetTotal(int64(len(j.tiles)), sumCost(j.cost))
}

// isHot reports whether a root tile of cost c is past the trigger of the
// schedule build under way.
func (j *Joiner) isHot(c int64) bool { return j.trigger >= 0 && c > j.trigger }

// refineHot is the other half of a schedule build, worker 0's first item of
// the join phase: it splits the hot tiles in ascending tile order (the order
// in which they draw on the arena budget), fills the arena planes, and
// leaves the late units — the leaf subtiles, or the root unit where a split
// was refused — appended to the schedule, largest first. The other workers
// are sweeping early units meanwhile, so everything here is sequential; the
// caller publishes the result.
func (j *Joiner) refineHot() {
	early := len(j.units)
	var hotCost int64
	for i, t := range j.tiles {
		c := j.cost[i]
		if !j.isHot(c) {
			continue
		}
		hotCost += c
		before := len(j.units)
		if j.refineRoot(t, j.recur) {
			j.refinedTiles++
			j.subtiles += len(j.units) - before
			continue
		}
		j.units = append(j.units, workUnit{tile: t, node: -1})
		j.ucost = append(j.ucost, c)
	}
	j.sizeArenaPlanes()
	for pos, ri := range j.refRIdx {
		j.refRPlanes.SetRect(pos, j.rRects[ri])
	}
	for pos, si := range j.refSIdx {
		j.refSPlanes.SetRect(pos, j.sRects[si])
	}
	j.sortUnitsFrom(early)
	// Each hot root leaves the progress total and the units it became
	// (possibly none, when the split proved every rect dead) enter it.
	j.prog.AddTotal(int64(len(j.units)-early-j.hotRoots), sumCost(j.ucost[early:])-hotCost)
	j.hotRoots = 0
}

// sizeArenaPlanes sizes the arenas' position-space planes, and gives the
// arenas the tail headroom the planes get (see resetPlanes).
func (j *Joiner) sizeArenaPlanes() {
	for side := uint8(0); side < 2; side++ {
		a := j.arena(side)
		n := len(*a.idx)
		if n > 0 {
			*a.idx = slices.Grow(*a.idx, n/16+16)
		}
		resetPlanes(a.planes, n)
	}
}

// sortUnits closes a schedule build once the join phase is over: it orders
// the whole schedule largest-first — the canonical order every re-join
// reuses — and leaves it tail headroom: the delta step schedules a tile's
// unit in place when the tile gains its first rect of a side, and declines
// when the schedule would have to grow.
func (j *Joiner) sortUnits() {
	j.sortUnitsFrom(0)
	j.units = slices.Grow(j.units, deltaMax)
	j.ucost = slices.Grow(j.ucost, deltaMax)
}

// sortUnitsFrom orders the schedule's units from position lo on.
func (j *Joiner) sortUnitsFrom(lo int) {
	j.order.j, j.order.lo = j, lo
	sort.Sort(&j.order)
	j.order.lo = 0
}

// refineRoot splits root tile t. It reports whether a split was committed
// (the subtree's leaf units were appended — possibly none, when no subcell
// holds both sides and the tile provably owns no pairs); false means no
// profitable split exists and the caller joins the tile whole.
func (j *Joiner) refineRoot(t int32, thr int64) bool {
	rLo, rHi := j.rPart.starts[t], j.rPart.starts[t+1]
	sLo, sHi := j.sPart.starts[t], j.sPart.starts[t+1]
	cell := j.rootCell(int(t)%j.gx, int(t)/j.gx)
	return j.splitSeg(j.rPart.idx[rLo:rHi], j.sPart.idx[sLo:sHi], cell, -1, t, 0, thr)
}

// splitSeg attempts to split one cell's segments under the given child
// geometry: count both sides into the subcells, decide whether the split
// pays, scatter into the refinement arenas, create the live child nodes
// and recurse into the still-hot ones. Parent segments are passed as
// slices — either root tile segments or (possibly stale generations of)
// the arenas; stale backing arrays remain valid to read, and nodes store
// index ranges, never views.
func (j *Joiner) splitSeg(rSeg, sSeg []int32, cell refCell, parent, tile int32, depth int, thr int64) bool {
	k := cell.kx * cell.ky
	if k <= 1 {
		return false // degenerate in both axes: nothing to split by
	}
	var rCnt, sCnt [refineK * refineK]int32
	countCells(j.rRects, rSeg, cell, rCnt[:k])
	countCells(j.sRects, sSeg, cell, sCnt[:k])

	commit, live := splitPays(rCnt[:k], sCnt[:k], int64(len(rSeg)), int64(len(sSeg)))
	if !commit {
		return false
	}
	rec := int32(len(j.refSplits))
	sp := refSplit{
		node: parent, tile: tile, depth: int32(depth), pruned: live == 0, cell: cell,
		rBase: int32(len(j.refRIdx)), sBase: int32(len(j.refSIdx)), rCnt: rCnt, sCnt: sCnt,
	}
	for c := range sp.child {
		sp.child[c] = -1
	}
	if live == 0 {
		j.commitSplit(sp)
		return true
	}
	var rTotal, sTotal int32
	for c := int32(0); c < k; c++ {
		rTotal += rCnt[c]
		sTotal += sCnt[c]
	}
	if len(j.refRIdx)+int(rTotal)+len(j.refSIdx)+int(sTotal) > j.refBudget {
		j.refStarved = true
		return false
	}
	j.commitSplit(sp)

	// Reserve arena ranges and scatter. Walking the parent segment in
	// order keeps every child segment sweep-sorted (the root segments are,
	// inductively so is every level).
	rBase := extendArena(&j.refRIdx, int(rTotal))
	sBase := extendArena(&j.refSIdx, int(sTotal))
	var rCur, sCur [refineK * refineK]int32
	off := rBase
	for c := int32(0); c < k; c++ {
		rCur[c] = off
		off += rCnt[c]
	}
	off = sBase
	for c := int32(0); c < k; c++ {
		sCur[c] = off
		off += sCnt[c]
	}
	scatterCells(j.rRects, rSeg, cell, j.refRIdx, rCur[:k])
	scatterCells(j.sRects, sSeg, cell, j.refSIdx, sCur[:k])

	// Create the live children; recurse into the ones still over budget.
	rOff, sOff := rBase, sBase
	for cy := int32(0); cy < cell.ky; cy++ {
		for cx := int32(0); cx < cell.kx; cx++ {
			c := cy*cell.kx + cx
			crn, csn := rCnt[c], sCnt[c]
			rLo, sLo := rOff, sOff
			rOff += crn
			sOff += csn
			if crn == 0 || csn == 0 {
				continue
			}
			node := int32(len(j.refNodes))
			j.refNodes = append(j.refNodes, refNode{
				parent: parent, tile: tile, sx: cx, sy: cy,
				kx: cell.kx, ky: cell.ky,
				orgX: cell.orgX, orgY: cell.orgY,
				invW: cell.invW, invH: cell.invH,
				rLo: rLo, rHi: rLo + crn, sLo: sLo, sHi: sLo + csn,
				split: -1,
			})
			j.refSplits[rec].child[c] = node
			childCost := int64(crn)*int64(csn) + int64(crn) + int64(csn)
			if childCost > thr && depth+1 < refineMaxDepth {
				// Recursion may grow (and move) the arenas, so the child
				// views are resliced fresh from the saved index ranges on
				// every iteration; a moved backing array stays readable.
				if j.splitSeg(j.refRIdx[rLo:rLo+crn], j.refSIdx[sLo:sLo+csn],
					childCell(cell, cx, cy), node, tile, depth+1, thr) {
					continue
				}
			}
			j.units = append(j.units, workUnit{tile: tile, node: node})
			j.ucost = append(j.ucost, childCost)
		}
	}
	return true
}

// commitSplit appends the record of a split that is now committed and links
// it from the node it divides.
func (j *Joiner) commitSplit(sp refSplit) {
	if sp.node >= 0 {
		j.refNodes[sp.node].split = int32(len(j.refSplits))
	}
	j.refSplits = append(j.refSplits, sp)
}

// splitPays is the decision rule of a split, from the two sides' per-subcell
// counts and the parent segments' lengths: whether to commit it, and how
// many subcells hold both sides.
func splitPays(rCnt, sCnt []int32, pn, psn int64) (commit bool, live int) {
	parentCost := pn*psn + pn + psn
	var sumCost, maxCost int64
	for c := range rCnt {
		rn, sn := int64(rCnt[c]), int64(sCnt[c])
		if rn == 0 || sn == 0 {
			continue
		}
		live++
		cc := rn*sn + rn + sn
		sumCost += cc
		if cc > maxCost {
			maxCost = cc
		}
	}
	// No subcell holds both sides: the reference point of any intersecting
	// pair would land in a subcell containing both rects, so the cell owns
	// no pairs at all — prune it from the schedule entirely.
	if live == 0 {
		return true, 0
	}
	// Progress rule. A single live subcell is a zoom: commit so the next
	// level can separate a cluster tighter than this cell (the depth cap
	// bounds fruitless zooming). Otherwise require strict progress on the
	// dominant subcell and tolerate a little boundary-replication growth
	// in the total — a split whose biggest piece shrinks can pay hugely
	// one level down even when replication nudges the sum past the parent.
	if live > 1 && (maxCost >= parentCost || sumCost > parentCost+parentCost/8) {
		return false, live
	}
	return true, live
}

// countCells counts how many rects of seg overlap each subcell of cell.
func countCells(rects []geom.Rect, seg []int32, cell refCell, cnt []int32) {
	for _, i := range seg {
		x0, y0, x1, y1 := cellRange(&rects[i], cell)
		for cy := y0; cy <= y1; cy++ {
			base := cy * cell.kx
			for cx := x0; cx <= x1; cx++ {
				cnt[base+cx]++
			}
		}
	}
}

// scatterCells writes seg's rect indices into the arena at the per-subcell
// cursors, preserving seg order within every subcell.
func scatterCells(rects []geom.Rect, seg []int32, cell refCell, arena []int32, cur []int32) {
	for _, i := range seg {
		x0, y0, x1, y1 := cellRange(&rects[i], cell)
		for cy := y0; cy <= y1; cy++ {
			base := cy * cell.kx
			for cx := x0; cx <= x1; cx++ {
				arena[cur[base+cx]] = i
				cur[base+cx]++
			}
		}
	}
}

// extendArena grows s by n slots and returns the offset of the new range.
// Doubling keeps steady-state rebuilds allocation-free once the arena has
// seen its high-water mark.
func extendArena(s *[]int32, n int) int32 {
	base := len(*s)
	if base+n <= cap(*s) {
		*s = (*s)[:base+n]
	} else {
		grown := make([]int32, base+n, 2*(base+n))
		copy(grown, *s)
		*s = grown
	}
	return int32(base)
}

// joinSub joins one refined leaf subtile, the node analogue of joinTile.
func (j *Joiner) joinSub(ws *workerState, n int32) int {
	nd := &j.refNodes[n]
	rSeg := j.refRIdx[nd.rLo:nd.rHi]
	sSeg := j.refSIdx[nd.sLo:nd.sHi]
	rView := j.refRPlanes.View(int(nd.rLo), int(nd.rHi))
	sView := j.refSPlanes.View(int(nd.sLo), int(nd.sHi))
	t := int(nd.tile)
	return j.joinSegs(ws, rSeg, sSeg, &rView, &sView, t%j.gx, t/j.gx, n)
}

// ownsRefined walks the node chain checking that the reference point
// (px, py) falls in this subtile at every split level. Each check
// re-evaluates the creating split's frozen mapping — the same expression
// assignment used — so exactly the leaf on p's subcell chain passes.
func (j *Joiner) ownsRefined(node int32, px, py float64) bool {
	for m := node; m >= 0; {
		nd := &j.refNodes[m]
		if int32(clampTile(int((px-nd.orgX)*nd.invW), int(nd.kx))) != nd.sx ||
			int32(clampTile(int((py-nd.orgY)*nd.invH), int(nd.ky))) != nd.sy {
			return false
		}
		m = nd.parent
	}
	return true
}
