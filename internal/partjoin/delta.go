package partjoin

import (
	"time"

	"spjoin/internal/geom"
	"spjoin/internal/rtree"
	"spjoin/internal/sim"
	"spjoin/internal/timeline"
)

// Delta tier: a resident Joiner must take k changed rects in work
// proportional to k, not to n. The mirror check lists the changed rects;
// runDelta applies them one at a time, and each application brings every
// cached structure to exactly the state a full rebuild under the same
// (frozen) grid geometry would leave:
//
//   - the side's global sweep order: the rect's index moves from the slot of
//     its old (MinX, MinY, index) key to the slot of the new one — two binary
//     searches and one copy of the span between;
//   - the tile segments: in every tile of old-range ∪ new-range the rect is
//     removed, inserted, repositioned or — same key, same tile — overwritten
//     in idx and the four coordinate planes. The flat layout has no per-tile
//     slack, so removals and insertions shift what lies between them; all of
//     one change's edits are applied as block moves over the span from its
//     first to its last edited segment (and the tail, when the rect's tile
//     count changed), each entry moving at most once;
//   - the work-unit schedule: a touched root tile's unit is re-costed and
//     sifted to its place, removed when the tile loses a side's last rect,
//     inserted when it gains a side's first. A touched tile that is hot under
//     the trigger of the last schedule build is split: its segments take the
//     edit like any other's (its units find their event ranges at join time),
//     and each of its frozen parts units takes its share of the new cost in
//     place. Only a tile crossing the trigger clears unitsOK, and the
//     schedule is then rebuilt by the same code a full build uses.
//
// Ordering invariant: a search by key never meets a rect whose mirror and
// position disagree. Changes are applied strictly one after another and each
// is complete before the next starts; within one change every position that
// holds the rect is found by its old key while the mirror is still old, the
// searches for its new positions skip the slot it occupies, and the mirror
// is patched before anything is written.
//
// The step declines — runDelta returns false and Join runs the full rebuild,
// which recomputes everything but the sweep orders from the items — when
//
//   - an old or new rect is non-finite, inverted, or so far outside the
//     frozen grid that its tile conversion could overflow (what the root grid
//     does with those — border clamp, or assigned nowhere — is the rebuild's
//     business);
//   - a search does not find the rect where its old key says it is, or the
//     slot for the new key is not strictly between its neighbours (only
//     NaN-keyed rects elsewhere in the input can cause either);
//   - one change edits more tiles than the edit buffer holds, or the block
//     moves so far would have taken longer than one whole fill
//     (deltaMoveFactor);
//   - idx or a plane would have to grow.
//
// A decline may come after earlier changes were applied; that is safe because
// the sweep orders are valid permutations after every single change and the
// rebuild derives everything else from scratch.

const (
	// deltaMax is the number of changed rects the delta tier takes per join,
	// and each worker's change-list capacity. Measured on the 2-core
	// reference host at paper scale (tiger.Maps(1.0), k random rects changed
	// per re-join; table in EXPERIMENTS.md): the rebuild costs 12–15 ms over
	// the clean tier whatever k is; the delta step costs 10–45 µs per rect
	// moved by a tile or mirrored across the world (10–30 µs between cold
	// tiles, 150–250 µs into or out of a refined one, whose arena tail it
	// shifted before the split replaced refinement; crossover between
	// k = 256 and 1024) and about 90 µs per rect
	// grown over some twenty tiles (crossover between 64 and 256), plus at
	// most one 4.4 ms schedule rebuild. 64 is the largest power of two at
	// which the dearest kind still beats the rebuild.
	deltaMax = 64

	// deltaMoveFactor caps the entries the block moves of one delta step may
	// shift, in multiples of the assignment size: shifting an entry costs
	// about a quarter of filling one (2.2 against 7.7 ns on the reference
	// host), so four times the assignment is the time of one whole fill.
	deltaMoveFactor = 4

	// deltaMaxEdits bounds the segment edits of one change: a rect leaving
	// and entering a full row of the largest grid (1024) still fits.
	deltaMaxEdits = 2048

	// deltaTileLimit bounds |(x-minX)*invW|: past it the float→int
	// conversion in tileOf is not guaranteed to clamp to the right border.
	deltaTileLimit = 1 << 40
)

// changeRef names one rect the mirror check found changed.
type changeRef struct {
	idx  int32
	side uint8 // 0 = R, 1 = S
}

// segEdit is one removal or insertion in a side's flat segment layout. pos
// is a position in the layout as it was before the change: a removal drops
// the entry at pos, an insertion places the rect before the entry at pos.
type segEdit struct {
	pos  int32
	tile int32
	ins  bool
}

// step is the edit's effect on the layout's length.
func (e segEdit) step() int {
	if e.ins {
		return 1
	}
	return -1
}

// flatSegs is a flat segment layout the delta step edits in place: rect
// indices grouped into consecutive sweep-sorted segments with no slack
// between them, and their coordinates in position space — a side's tile
// segments.
type flatSegs struct {
	idx    *[]int32
	planes *geom.Planes
}

func (g *gridSide) flat() flatSegs { return flatSegs{&g.idx, &g.planes} }

// deltaSide is the per-side view the delta step works on.
type deltaSide struct {
	items []rtree.Item
	rects []geom.Rect
	ids   []rtree.EntryID
	ord   []int32
	part  *gridSide
	other *gridSide
}

func (j *Joiner) sideView(side uint8) deltaSide {
	if side == 0 {
		return deltaSide{j.rItems, j.rRects, j.rIDs, j.rOrd, &j.rPart, &j.sPart}
	}
	return deltaSide{j.sItems, j.sRects, j.sIDs, j.sOrd, &j.sPart, &j.rPart}
}

// runDelta applies the listed changes and reports whether the cache is now
// exact for the current items. Its wall time goes to the partition bucket.
func (j *Joiner) runDelta() bool {
	t0 := time.Now()
	if j.rec != nil {
		j.rec.BeginSpan(0, wallSince(j.epoch), timeline.KindPhase,
			sim.SpanArgs{A: timeline.PhasePartition})
	}
	if j.edits == nil {
		j.edits = make([]segEdit, 0, deltaMaxEdits)
	}
	j.deltaBudget = deltaMoveFactor * (len(j.rPart.idx) + len(j.sPart.idx))
	ok := j.applyChanges()
	if j.rec != nil {
		j.rec.EndSpan(0, wallSince(j.epoch), sim.SpanArgs{}, false)
	}
	j.phaseNS[timeline.PhasePartition] += time.Since(t0).Nanoseconds()
	return ok
}

// applyChanges applies every worker's list in turn, stopping at the first
// change the step declines.
func (j *Joiner) applyChanges() bool {
	for w := 0; w < j.workers; w++ {
		for _, c := range j.chg[w*deltaMax:][:j.chgN[w]] {
			if !j.applyChange(c) {
				return false
			}
		}
	}
	return true
}

// deltaRectOK reports whether the delta step may place r: finite, not
// inverted, and within conversion range of the frozen grid.
func (j *Joiner) deltaRectOK(r *geom.Rect) bool {
	in := func(f float64) bool { return f > -deltaTileLimit && f < deltaTileLimit }
	// A non-finite coordinate makes its scaled offset ±Inf or (times a zero
	// inverse on a collapsed axis) NaN, so the range test covers finiteness.
	return r.MinX <= r.MaxX && r.MinY <= r.MaxY &&
		in((r.MinX-j.minX)*j.invW) && in((r.MaxX-j.minX)*j.invW) &&
		in((r.MinY-j.minY)*j.invH) && in((r.MaxY-j.minY)*j.invH)
}

// applyChange brings the cache from the mirror's rect c to the item's.
func (j *Joiner) applyChange(c changeRef) bool {
	d := j.sideView(c.side)
	i := c.idx
	it := &d.items[i]
	d.ids[i] = it.ID
	old, nw := d.rects[i], mirrorForm(it.Rect)
	if !rectChanged(&old, &nw) {
		return true // identity only: nothing geometric depends on the ID
	}
	if !j.deltaRectOK(&old) || !j.deltaRectOK(&nw) {
		return false
	}
	moved := old.MinX != nw.MinX || old.MinY != nw.MinY // sweep key changed

	// Locate every position that holds the rect while the mirror is still
	// old, overwrite where nothing moves, and collect the rest as edits in
	// ascending tile order.
	if !j.collectEdits(&d, i, &old, &nw, moved) {
		return false
	}
	if moved && !moveInOrder(d.ord, d.rects, i, &old, &nw) {
		return false
	}
	d.rects[i] = nw
	if len(j.edits) > 0 {
		if !j.applyEdits(d.part.flat(), i, &nw) {
			return false
		}
		d.part.shiftStarts(j.edits)
	}
	return true
}

// keyLess is the sweep order's comparison against an explicit key.
func keyLess(ax, ay float64, ai int32, bx, by float64, bi int32) bool {
	if ax != bx {
		return ax < bx
	}
	if ay != by {
		return ay < by
	}
	return ai < bi
}

// moveInOrder moves index i in the sweep order ord from the slot of its old
// key to the slot of its new one. rects[i] may hold either rect: the slot i
// occupies is never compared.
func moveInOrder(ord []int32, rects []geom.Rect, i int32, old, nw *geom.Rect) bool {
	// Old slot: first position whose key is not less than the old key.
	lo, hi := 0, len(ord)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		m := ord[mid]
		if r := &rects[m]; m != i && keyLess(r.MinX, r.MinY, m, old.MinX, old.MinY, i) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	from := lo
	if from == len(ord) || ord[from] != i {
		return false
	}
	// New slot in the order without i: v counts the entries that stay in
	// front; entry v of that order sits at v, or at v+1 past the old slot.
	at := func(v int) int32 {
		if v >= from {
			v++
		}
		return ord[v]
	}
	lo, hi = 0, len(ord)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		m := at(mid)
		if r := &rects[m]; keyLess(r.MinX, r.MinY, m, nw.MinX, nw.MinY, i) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	to := lo
	if to < len(ord)-1 {
		m := at(to)
		if r := &rects[m]; !keyLess(nw.MinX, nw.MinY, i, r.MinX, r.MinY, m) {
			return false // successor not strictly greater: an unordered (NaN) key
		}
	}
	if to > from {
		copy(ord[from:to], ord[from+1:to+1])
	} else {
		copy(ord[to+1:from+1], ord[to:from])
	}
	ord[to] = i
	return true
}

// search returns how many entries of segment [lo, hi) — not counting the
// one at position skip, if skip lies inside — have a key less than
// (kx, ky, i). Keys are read from the position-space planes.
func (f flatSegs) search(lo, hi, skip int, kx, ky float64, i int32) int {
	idx, pl := *f.idx, f.planes
	n := hi - lo
	if skip >= lo && skip < hi {
		n--
	} else {
		skip = hi
	}
	a, b := 0, n
	for a < b {
		mid := int(uint(a+b) >> 1)
		p := lo + mid
		if p >= skip {
			p++
		}
		if keyLess(pl.MinX[p], pl.MinY[p], idx[p], kx, ky, i) {
			a = mid + 1
		} else {
			b = mid
		}
	}
	return a
}

// collectEdits walks the tiles of old-range ∪ new-range in ascending tile
// order. Tiles holding the rect before and after with an unchanged slot are
// overwritten on the spot; every other tile contributes a removal, an
// insertion, or both to j.edits. Touched tiles are re-costed in the schedule
// as they are met. The mirror must still hold the old rect.
func (j *Joiner) collectEdits(d *deltaSide, i int32, old, nw *geom.Rect, moved bool) bool {
	ox0, oy0 := j.tileOf(old.MinX, old.MinY)
	ox1, oy1 := j.tileOf(old.MaxX, old.MaxY)
	nx0, ny0 := j.tileOf(nw.MinX, nw.MinY)
	nx1, ny1 := j.tileOf(nw.MaxX, nw.MaxY)
	g := d.part
	j.edits = j.edits[:0]
	for ty := min(oy0, ny0); ty <= max(oy1, ny1); ty++ {
		oldRow := ty >= oy0 && ty <= oy1
		newRow := ty >= ny0 && ty <= ny1
		x0, x1 := ox0, ox1
		switch {
		case oldRow && newRow:
			x0, x1 = min(ox0, nx0), max(ox1, nx1)
		case newRow:
			x0, x1 = nx0, nx1
		case !oldRow:
			continue
		}
		for tx := x0; tx <= x1; tx++ {
			inOld := oldRow && tx >= ox0 && tx <= ox1
			inNew := newRow && tx >= nx0 && tx <= nx1
			if !inOld && !inNew {
				continue
			}
			t := ty*j.gx + tx
			lo, hi := int(g.starts[t]), int(g.starts[t+1])
			count, ok := j.editSeg(g.flat(), lo, hi, int32(t), i, old, nw, inOld, inNew, moved)
			if !ok {
				return false
			}
			j.touchTile(int32(t), hi-lo, int(d.other.starts[t+1]-d.other.starts[t]), count)
		}
	}
	return true
}

// editSeg brings one tile segment [lo, hi) of f in line with the change of
// rect i from old to nw. inOld and inNew say whether the segment holds the
// rect before and after, moved whether its sweep key changed. A rect that
// keeps its slot is overwritten on the spot; otherwise a removal, an
// insertion or both go to j.edits. count is the change of the segment's
// length; ok is false when the edit buffer is full, the rect is not where
// its old key says, or the slot for its new key is not strictly between its
// neighbours.
func (j *Joiner) editSeg(f flatSegs, lo, hi int, tile, i int32, old, nw *geom.Rect, inOld, inNew, moved bool) (count int, ok bool) {
	if len(j.edits)+2 > cap(j.edits) {
		return 0, false
	}
	idx, pl := *f.idx, f.planes
	at := -1 // the rect's position in the segment
	if inOld {
		at = lo + f.search(lo, hi, -1, old.MinX, old.MinY, i)
		if at == hi || idx[at] != i {
			return 0, false
		}
	}
	switch {
	case inOld && !inNew:
		j.edits = append(j.edits, segEdit{pos: int32(at), tile: tile})
		return -1, true
	case inOld && !moved:
		pl.SetRect(at, *nw)
		return 0, true
	}
	// Slot of the new key among the entries that stay: the first of them
	// not less than it — which must then be strictly greater — sits at to.
	to := lo + f.search(lo, hi, at, nw.MinX, nw.MinY, i)
	if inOld && to >= at {
		to++
	}
	if to < hi && !keyLess(nw.MinX, nw.MinY, i, pl.MinX[to], pl.MinY[to], idx[to]) {
		return 0, false
	}
	switch {
	case !inOld:
		j.edits = append(j.edits, segEdit{pos: int32(to), tile: tile, ins: true})
		return 1, true
	case to == at+1: // same slot under the new key
		pl.SetRect(at, *nw)
	case to < at:
		j.edits = append(j.edits,
			segEdit{pos: int32(to), tile: tile, ins: true},
			segEdit{pos: int32(at), tile: tile})
	default:
		j.edits = append(j.edits,
			segEdit{pos: int32(at), tile: tile},
			segEdit{pos: int32(to), tile: tile, ins: true})
	}
	return 0, true
}

// unitCost is the estimated sweep cost of a tile holding a and b rects of
// the two sides; 0 means it is not scheduled.
func unitCost(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	return a*b + a + b
}

// touchTile keeps the work-unit schedule exact for a root tile the current
// change touches: own and other are the two sides' rect counts before the
// change, count the change to own. A tile that stays under the frozen
// trigger has its unit re-costed and sifted to its place in the
// largest-first order, removed, or inserted; one that stays past it has
// each of its units re-costed so. One that crosses it invalidates the
// schedule.
func (j *Joiner) touchTile(t int32, own, other, count int) {
	if !j.unitsOK {
		return
	}
	before := unitCost(int64(own), int64(other))
	after := unitCost(int64(own+count), int64(other))
	hot := j.isHot(before)
	switch u := (workUnit{tile: t, parts: 1}); {
	case hot != j.isHot(after):
		j.unitsOK = false
	case before == after:
	case hot:
		j.unitsOK = j.recostSplit(t, before, after)
	case before == 0:
		j.unitsOK = j.insertUnit(u, after)
	case after == 0:
		j.unitsOK = j.removeUnit(u, before)
	default:
		j.unitsOK = j.recostUnit(u, before, after)
	}
}

// recostSplit gives each unit of hot tile t its share of the tile's new
// cost; the part count stays as the last schedule build froze it.
func (j *Joiner) recostSplit(t int32, before, after int64) bool {
	parts, ok := j.tileParts(t)
	if !ok {
		return false
	}
	for k := int32(0); k < parts; k++ {
		b, a := partCost(before, k, parts), partCost(after, k, parts)
		if b != a && !j.recostUnit(workUnit{tile: t, part: k, parts: parts}, b, a) {
			return false
		}
	}
	return true
}

// unitSlot returns the first position of the (cost descending, tile, part)
// order whose unit is not in front of u at cost c.
func (j *Joiner) unitSlot(u workUnit, c int64) int {
	lo, hi := 0, len(j.units)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		m := j.units[mid]
		if mc := j.ucost[mid]; mc > c || (mc == c &&
			(m.tile < u.tile || (m.tile == u.tile && m.part < u.part))) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// recostUnit finds unit u by its scheduled cost, gives it the new cost and
// restores the order.
func (j *Joiner) recostUnit(u workUnit, before, after int64) bool {
	k := j.unitSlot(u, before)
	if k == len(j.units) || j.units[k] != u || j.ucost[k] != before {
		return false
	}
	j.ucost[k] = after
	for ; k > 0 && j.order.Less(k, k-1); k-- {
		j.order.Swap(k, k-1)
	}
	for ; k+1 < len(j.units) && j.order.Less(k+1, k); k++ {
		j.order.Swap(k, k+1)
	}
	return true
}

// removeUnit takes unit u, scheduled at cost c, out of the schedule.
func (j *Joiner) removeUnit(u workUnit, c int64) bool {
	k := j.unitSlot(u, c)
	if k == len(j.units) || j.units[k] != u || j.ucost[k] != c {
		return false
	}
	j.units = append(j.units[:k], j.units[k+1:]...)
	j.ucost = append(j.ucost[:k], j.ucost[k+1:]...)
	return true
}

// insertUnit schedules unit u at cost c; it declines when the schedule would
// have to grow.
func (j *Joiner) insertUnit(u workUnit, c int64) bool {
	n := len(j.units)
	if n == cap(j.units) || n == cap(j.ucost) {
		return false
	}
	k := j.unitSlot(u, c)
	j.units, j.ucost = j.units[:n+1], j.ucost[:n+1]
	copy(j.units[k+1:], j.units[k:n])
	copy(j.ucost[k+1:], j.ucost[k:n])
	j.units[k], j.ucost[k] = u, c
	return true
}

// applyEdits applies j.edits (ascending by position) to the flat layout f
// and writes rect i with coordinates nw into the inserted slots; segment
// boundaries are the caller's to adjust. The entries between two consecutive
// edits form a block that shifts by the net insertions minus removals before
// it; blocks shifting left are moved first, left to right, then blocks
// shifting right, right to left, so no move overwrites an entry that has yet
// to move. It declines, having changed nothing, when an array would have to
// grow or the move budget is spent.
func (j *Joiner) applyEdits(f flatSegs, i int32, nw *geom.Rect) bool {
	edits := j.edits
	oldLen := len(*f.idx)
	net, moving := 0, 0
	for k, e := range edits {
		if net += e.step(); net != 0 {
			moving += blockEnd(edits, k, oldLen) - blockStart(e)
		}
	}
	newLen := oldLen + net
	pl := f.planes
	if newLen > cap(*f.idx) || newLen > cap(pl.MinX) || newLen > cap(pl.MinY) ||
		newLen > cap(pl.MaxX) || newLen > cap(pl.MaxY) {
		return false
	}
	if j.deltaBudget -= moving; j.deltaBudget < 0 {
		return false
	}
	if net > 0 {
		f.resize(newLen)
	}
	shift := 0
	for k, e := range edits {
		if shift += e.step(); shift < 0 {
			f.moveBlock(blockStart(e), blockEnd(edits, k, oldLen), shift)
		}
	}
	for k := len(edits) - 1; k >= 0; k-- {
		e := edits[k]
		if shift > 0 {
			f.moveBlock(blockStart(e), blockEnd(edits, k, oldLen), shift)
		}
		shift -= e.step()
	}
	for _, e := range edits {
		if e.ins {
			p := int(e.pos) + shift
			(*f.idx)[p] = i
			pl.SetRect(p, *nw)
		}
		shift += e.step()
	}
	if net < 0 {
		f.resize(newLen)
	}
	return true
}

// shiftStarts moves the segment boundaries of the root layout after edits
// were applied: an edit in tile t shifts the start of every later tile, up
// to and including the next edit's.
func (g *gridSide) shiftStarts(edits []segEdit) {
	tiles := len(g.starts) - 1
	shift := 0
	for k, e := range edits {
		if shift += e.step(); shift == 0 {
			continue
		}
		last := tiles
		if k+1 < len(edits) {
			last = int(edits[k+1].tile)
		}
		for u := int(e.tile) + 1; u <= last; u++ {
			g.starts[u] += int32(shift)
		}
	}
}

// blockStart and blockEnd bound the entries that follow edit k and precede
// the next one, in pre-change positions.
func blockStart(e segEdit) int {
	if e.ins {
		return int(e.pos)
	}
	return int(e.pos) + 1
}

func blockEnd(edits []segEdit, k, oldLen int) int {
	if k+1 < len(edits) {
		return int(edits[k+1].pos)
	}
	return oldLen
}

// moveBlock shifts entries [from, to) of idx and the planes by shift.
func (f flatSegs) moveBlock(from, to, shift int) {
	if from >= to {
		return
	}
	idx, pl := *f.idx, f.planes
	copy(idx[from+shift:to+shift], idx[from:to])
	copy(pl.MinX[from+shift:to+shift], pl.MinX[from:to])
	copy(pl.MinY[from+shift:to+shift], pl.MinY[from:to])
	copy(pl.MaxX[from+shift:to+shift], pl.MaxX[from:to])
	copy(pl.MaxY[from+shift:to+shift], pl.MaxY[from:to])
}

// resize sets the length of idx and the planes within their capacity.
func (f flatSegs) resize(n int) {
	*f.idx = (*f.idx)[:n]
	pl := f.planes
	pl.MinX, pl.MinY, pl.MaxX, pl.MaxY = pl.MinX[:n], pl.MinY[:n], pl.MaxX[:n], pl.MaxY[:n]
}
