package tiger

import (
	"math"

	"spjoin/internal/geom"
	"spjoin/internal/rtree"
)

// RejoinMutation replaces the rect of r[Idx] with Next.
type RejoinMutation struct {
	Idx  int
	Next geom.Rect
}

// HotTileGrowth aims the first kind of RejoinMutations — a rect of r grown
// 1 % inside its tile — at the costliest tile of the grid×grid grid over the
// joint data MBR: the one with the largest product of the two sides' rect
// counts, which a partition Joiner refines before any other. ok is false
// when no rect of r inside that tile qualifies.
func HotTileGrowth(r, s []rtree.Item, grid int) (mut RejoinMutation, ok bool) {
	mbr := geom.EmptyRect()
	for _, side := range [2][]rtree.Item{r, s} {
		for i := range side {
			mbr = mbr.Union(side[i].Rect)
		}
	}
	tw, th := (mbr.MaxX-mbr.MinX)/float64(grid), (mbr.MaxY-mbr.MinY)/float64(grid)
	tile := func(v, origin, t float64) int { return min(max(int((v-origin)/t), 0), grid-1) }
	var counts [2][]int64
	for k, side := range [2][]rtree.Item{r, s} {
		counts[k] = make([]int64, grid*grid)
		for i := range side {
			rc := side[i].Rect
			for ty := tile(rc.MinY, mbr.MinY, th); ty <= tile(rc.MaxY, mbr.MinY, th); ty++ {
				for tx := tile(rc.MinX, mbr.MinX, tw); tx <= tile(rc.MaxX, mbr.MinX, tw); tx++ {
					counts[k][ty*grid+tx]++
				}
			}
		}
	}
	hot := 0
	for t := range counts[0] {
		if counts[0][t]*counts[1][t] > counts[0][hot]*counts[1][hot] {
			hot = t
		}
	}
	// within: [lo, hi] sits in tile n of width t with a 2 % margin to both
	// borders, so rounding cannot change the tile.
	within := func(lo, hi, origin, t float64, n int) bool {
		a, b := (lo-origin)/t-float64(n), (hi-origin)/t-float64(n)
		return a > 0.02 && b < 0.98
	}
	for i := range r {
		rc := r[i].Rect
		g := rc
		g.MaxX += 0.01 * (rc.MaxX - rc.MinX)
		g.MaxY += 0.01 * (rc.MaxY - rc.MinY)
		if rc.MaxX > rc.MinX && rc.MaxY > rc.MinY &&
			within(g.MinX, g.MaxX, mbr.MinX, tw, hot%grid) && within(g.MinY, g.MaxY, mbr.MinY, th, hot/grid) {
			return RejoinMutation{Idx: i, Next: g}, true
		}
	}
	return mut, false
}

// RejoinMutations picks the three single-rect mutations of a re-join cycle
// over a resident partition Joiner, the kinds the repository benchmark's
// tiger_rejoin workload applies (bench/workloads.go picks its own, the same
// way): a rect of r grown 1 % that stays inside its tile of the grid×grid
// grid over the joint data MBR, one moved two tile rows in y with MinX kept
// (its tiles change, its place in the sweep order does not), and one
// mirrored from the left quarter of the world to the right (its place in the
// sweep order changes). Neither the picked rects nor their replacements
// touch the data MBR, so the grid a fresh build derives stays the same.
// Picks are deterministic in the inputs; ok is false when no rect of r
// qualifies for one of the kinds.
func RejoinMutations(r, s []rtree.Item, grid int) (muts [3]RejoinMutation, ok bool) {
	mbr := geom.EmptyRect()
	for _, side := range [2][]rtree.Item{r, s} {
		for i := range side {
			mbr = mbr.Union(side[i].Rect)
		}
	}
	tw, th := (mbr.MaxX-mbr.MinX)/float64(grid), (mbr.MaxY-mbr.MinY)/float64(grid)
	// inside: [lo, hi] sits in one tile of width t with a 2 % margin to both
	// borders, so rounding cannot change the tile.
	inside := func(lo, hi, origin, t float64) bool {
		a, b := (lo-origin)/t, (hi-origin)/t
		return math.Floor(a) == math.Floor(b) && a-math.Floor(a) > 0.02 && b-math.Floor(b) < 0.98
	}
	interior := func(rc geom.Rect) bool {
		return rc.MinX > mbr.MinX && rc.MinY > mbr.MinY && rc.MaxX < mbr.MaxX && rc.MaxY < mbr.MaxY
	}
	grow := func(rc geom.Rect) geom.Rect {
		rc.MaxX += 0.01 * (rc.MaxX - rc.MinX)
		rc.MaxY += 0.01 * (rc.MaxY - rc.MinY)
		return rc
	}
	kinds := [3]struct {
		from   int
		fits   func(geom.Rect) bool
		mutate func(geom.Rect) geom.Rect
	}{
		{len(r) / 3, func(rc geom.Rect) bool {
			g := grow(rc)
			return rc.MaxX > rc.MinX && rc.MaxY > rc.MinY &&
				inside(g.MinX, g.MaxX, mbr.MinX, tw) && inside(g.MinY, g.MaxY, mbr.MinY, th)
		}, grow},
		{2 * len(r) / 3, func(rc geom.Rect) bool {
			return rc.MaxY+2*th < mbr.MaxY || rc.MinY-2*th > mbr.MinY
		}, func(rc geom.Rect) geom.Rect {
			dy := 2 * th
			if rc.MaxY+dy >= mbr.MaxY {
				dy = -dy
			}
			rc.MinY, rc.MaxY = rc.MinY+dy, rc.MaxY+dy
			return rc
		}},
		{len(r) / 2, func(rc geom.Rect) bool {
			return rc.MaxX < mbr.MinX+(mbr.MaxX-mbr.MinX)/4
		}, func(rc geom.Rect) geom.Rect {
			w := rc.MaxX - rc.MinX
			rc.MinX = mbr.MinX + mbr.MaxX - rc.MaxX
			rc.MaxX = rc.MinX + w
			return rc
		}},
	}
	for k, kind := range kinds {
		found := false
		for n := 0; n < len(r) && !found; n++ {
			i := (kind.from + n) % len(r)
			rc := r[i].Rect
			if (k > 0 && i == muts[0].Idx) || (k > 1 && i == muts[1].Idx) ||
				!interior(rc) || !kind.fits(rc) || !interior(kind.mutate(rc)) {
				continue
			}
			muts[k], found = RejoinMutation{Idx: i, Next: kind.mutate(rc)}, true
		}
		if !found {
			return muts, false
		}
	}
	return muts, true
}
