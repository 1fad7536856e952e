package partjoin

import "spjoin/internal/geom"

// Delta tier, refined tiles. A root tile past the trigger is joined as the
// leaf subtiles of its refinement subtree, so a changed rect in such a tile
// must reach every arena segment that holds it. editRefined carries the
// change down the subtree along the split records (refSplit) and leaves the
// arenas, the nodes, the records and the schedule exactly as a fresh schedule
// build under the same trigger, recursion bound and arena budget would:
//
//   - at every split whose cell the old or the new rect overlaps, the rect is
//     removed from, inserted into, repositioned in or overwritten in the
//     subcell segments of the split's arena block — the same per-segment
//     step the root tiles get (editSeg) — and the record's counts follow;
//   - every decision the build took from those counts is taken again: each
//     touched subcell stays live or stays dead, the split still pays
//     (splitPays), a touched child that was split is still costlier than the
//     recursion bound, and a touched leaf costlier than it would still be
//     refused its split (wouldSplit). The first decision that comes out
//     differently ends the attempt: editRefined returns false, the caller
//     clears unitsOK and the schedule is rebuilt from the (exact) root
//     segments, so nothing half-done needs undoing;
//   - a touched leaf's unit is re-costed and sifted to its place;
//   - all edits of one change on the side's arena, collected in arena order
//     (a split's block precedes its descendants' blocks, children follow in
//     cell order, tiles ascend), are applied as one pass of block moves
//     (applyEdits), and the block bases and node ranges are laid out again
//     from the records' counts.

// hotTouch is a root tile the current change touches that is past the
// frozen trigger before and after it.
type hotTouch struct {
	tile         int32
	count        int8 // change of the changed side's rect count in the tile
	inOld, inNew bool // the tile holds the rect before / after the change
}

// arena returns the side's refinement arena as a flat layout.
func (j *Joiner) arena(side uint8) flatSegs {
	if side == 0 {
		return flatSegs{&j.refRIdx, &j.refRPlanes}
	}
	return flatSegs{&j.refSIdx, &j.refSPlanes}
}

// rootSplit returns the record of root tile t's split, or -1 when the build
// refused to split it.
func (j *Joiner) rootSplit(t int32) int32 {
	for k := range j.refSplits {
		if s := &j.refSplits[k]; s.node < 0 && s.tile == t {
			return int32(k)
		}
	}
	return -1
}

// editRefined carries the change of rect i of the given side from old to nw
// into the refinement subtrees of the hot tiles listed in j.hot. The root
// segments and the mirror already show the change. It reports whether the
// refinement state is exact again.
func (j *Joiner) editRefined(side uint8, i int32, old, nw *geom.Rect, moved bool) bool {
	if j.refStarved {
		// Some split was refused for want of arena budget; which ones a
		// build refuses then depends on the arenas' total, not on the
		// touched cells alone.
		return false
	}
	j.edits = j.edits[:0]
	for _, h := range j.hot {
		t := h.tile
		rn := int64(j.rPart.starts[t+1] - j.rPart.starts[t])
		sn := int64(j.sPart.starts[t+1] - j.sPart.starts[t])
		sp := j.rootSplit(t)
		if sp < 0 {
			// The build refused to split this tile and joins it whole: it
			// must be refused again, and the root unit takes the new cost.
			rSeg := j.rPart.idx[j.rPart.starts[t]:j.rPart.starts[t+1]]
			sSeg := j.sPart.idx[j.sPart.starts[t]:j.sPart.starts[t+1]]
			if j.wouldSplit(rSeg, sSeg, j.rootCell(int(t)%j.gx, int(t)/j.gx), rn, sn, side, -1, nil) {
				return false
			}
			before := unitCost(rn-int64(h.count), sn)
			if side == 1 {
				before = unitCost(rn, sn-int64(h.count))
			}
			if after := unitCost(rn, sn); before != after &&
				!j.recostUnit(workUnit{tile: t, node: -1}, before, after) {
				return false
			}
			continue
		}
		var o, n *geom.Rect
		if h.inOld {
			o = old
		}
		if h.inNew {
			n = nw
		}
		if !j.editSplit(sp, side, i, o, n, moved, rn, sn) {
			return false
		}
	}
	if len(j.edits) > 0 && !j.applyEdits(j.arena(side), i, nw) {
		return false
	}
	if len(j.refRIdx)+len(j.refSIdx) > j.refBudget {
		return false
	}
	j.layoutArena(side)
	return true
}

// editSplit applies the change to the block of split sp and, through the
// touched live subcells, to the subtree below it. old and nw are nil where
// the split's cell does not hold the rect before or after the change; pn and
// psn are the lengths of the split segments of R and S after it.
func (j *Joiner) editSplit(sp int32, side uint8, i int32, old, nw *geom.Rect, moved bool, pn, psn int64) bool {
	s := &j.refSplits[sp]
	own, oth, pos := &s.rCnt, &s.sCnt, s.rBase
	if side == 1 {
		own, oth, pos = &s.sCnt, &s.rCnt, s.sBase
	}
	kx, k := int(s.cell.kx), int(s.cell.kx*s.cell.ky)
	ox0, oy0, ox1, oy1 := int32(1), int32(1), int32(0), int32(0) // holds nothing
	nx0, ny0, nx1, ny1 := ox0, oy0, ox1, oy1
	if old != nil {
		ox0, oy0, ox1, oy1 = cellRange(old, s.cell)
	}
	if nw != nil {
		nx0, ny0, nx1, ny1 = cellRange(nw, s.cell)
	}
	f := j.arena(side)
	var was [refineK * refineK]int32 // the touched subcells' counts before
	var inO, inN uint16
	for c := 0; c < k; c++ {
		cx, cy := int32(c%kx), int32(c/kx)
		n := own[c]
		o := cx >= ox0 && cx <= ox1 && cy >= oy0 && cy <= oy1
		w := cx >= nx0 && cx <= nx1 && cy >= ny0 && cy <= ny1
		if o || w {
			count := 0
			switch {
			case !s.pruned:
				var ok bool
				if count, ok = j.editSeg(f, int(pos), int(pos+n), s.tile, i, old, nw, o, w, moved); !ok {
					return false
				}
			case !w:
				count = -1
			case !o:
				count = 1
			}
			if oth[c] > 0 && (n > 0) != (n+int32(count) > 0) {
				return false // the subcell would come alive, or die
			}
			was[c] = n
			own[c] = n + int32(count)
			if o {
				inO |= 1 << c
			}
			if w {
				inN |= 1 << c
			}
		}
		pos += n
	}
	if commit, _ := splitPays(s.rCnt[:k], s.sCnt[:k], pn, psn); !commit {
		return false
	}
	if s.pruned {
		return true // every subcell is as dead as it was
	}
	for c := 0; c < k; c++ {
		nid := s.child[c]
		if (inO|inN)>>c&1 == 0 || nid < 0 {
			continue
		}
		rn, sn := int64(s.rCnt[c]), int64(s.sCnt[c])
		before, after := unitCost(int64(was[c]), sn), unitCost(rn, sn)
		if side == 1 {
			before = unitCost(rn, int64(was[c]))
		}
		var o, w *geom.Rect
		drop := int32(-1)
		if inO>>c&1 != 0 {
			o, drop = old, i
		}
		if inN>>c&1 != 0 {
			w = nw
		}
		nd := &j.refNodes[nid]
		attempt := after > j.recur && int(s.depth)+1 < refineMaxDepth
		if nd.split >= 0 {
			if !attempt || !j.editSplit(nd.split, side, i, o, w, moved, rn, sn) {
				return false
			}
			continue
		}
		// A leaf. Its arena segments are still laid out as before the change.
		if attempt && j.wouldSplit(j.refRIdx[nd.rLo:nd.rHi], j.refSIdx[nd.sLo:nd.sHi],
			childCell(s.cell, int32(c%kx), int32(c/kx)), rn, sn, side, drop, w) {
			return false
		}
		if before != after && !j.recostUnit(workUnit{tile: s.tile, node: nid}, before, after) {
			return false
		}
	}
	return true
}

// wouldSplit reports whether a build would commit the split of segments rSeg
// and sSeg under cell, judged by the decision rule alone (a build may still
// refuse for want of arena budget; answering true is then merely cautious).
// The given side's segment is taken without rect drop, if that is not -1, and
// with rect add, if that is not nil; pn and psn are the segments' lengths so
// adjusted.
func (j *Joiner) wouldSplit(rSeg, sSeg []int32, cell refCell, pn, psn int64, side uint8, drop int32, add *geom.Rect) bool {
	k := cell.kx * cell.ky
	if k <= 1 {
		return false
	}
	var rCnt, sCnt [refineK * refineK]int32
	countCells(j.rRects, rSeg, cell, rCnt[:k])
	countCells(j.sRects, sSeg, cell, sCnt[:k])
	cnt, rects := rCnt[:k], j.rRects
	if side == 1 {
		cnt, rects = sCnt[:k], j.sRects
	}
	if drop >= 0 {
		addCells(&rects[drop], cell, cnt, -1) // exactly what countCells counted for it
	}
	if add != nil {
		addCells(add, cell, cnt, 1)
	}
	commit, _ := splitPays(rCnt[:k], sCnt[:k], pn, psn)
	return commit
}

// addCells adds d to the count of every subcell of cell that r overlaps.
func addCells(r *geom.Rect, cell refCell, cnt []int32, d int32) {
	x0, y0, x1, y1 := cellRange(r, cell)
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			cnt[cy*cell.kx+cx] += d
		}
	}
}

// layoutArena derives the side's block bases and node segment ranges from
// the split records' counts: the arena is the records' blocks in order.
func (j *Joiner) layoutArena(side uint8) {
	off := int32(0)
	for k := range j.refSplits {
		s := &j.refSplits[k]
		cnt, base := &s.rCnt, &s.rBase
		if side == 1 {
			cnt, base = &s.sCnt, &s.sBase
		}
		*base = off
		if s.pruned {
			continue
		}
		for c, nid := range s.child {
			if nid >= 0 {
				nd := &j.refNodes[nid]
				if side == 0 {
					nd.rLo, nd.rHi = off, off+cnt[c]
				} else {
					nd.sLo, nd.sHi = off, off+cnt[c]
				}
			}
			off += cnt[c]
		}
	}
}
