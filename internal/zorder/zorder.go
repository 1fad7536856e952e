// Package zorder implements the spatial-join baseline of Orenstein and
// Manola [OM 88] that the paper contrasts with its R-tree approach: objects
// are approximated by quadtree cells addressed by bit-interleaved z-values,
// stored in sorted order (a B-tree in the original; a sorted slice here,
// which preserves the algorithmic comparison), and joined with a merge over
// the two sorted sequences. A pair qualifies when one object's cell
// contains the other's — only then can the MBRs intersect — and the final
// MBR test removes the remaining false cells.
//
// This implementation uses non-redundant decomposition: each object maps to
// the single smallest quadtree cell fully containing its MBR. Objects
// straddling a quadrant boundary land in a coarse cell and are tested
// against many partners — the known weakness of z-joins that [OM 88]
// mitigates with redundant decomposition and the R-tree join avoids
// entirely; the benchmark makes that cost visible.
package zorder

import (
	"sort"

	"spjoin/internal/geom"
	"spjoin/internal/join"
	"spjoin/internal/rtree"
)

// MaxLevels is the deepest quadtree refinement supported (2 bits of
// z-value per level).
const MaxLevels = 31

// Cell is a quadtree cell as a z-value interval [Lo, Hi]: the range of
// finest-resolution z-addresses below the cell. Two cells are either
// disjoint or nested.
type Cell struct {
	Lo, Hi uint64
}

// Contains reports whether c contains o (or equals it).
func (c Cell) Contains(o Cell) bool { return c.Lo <= o.Lo && o.Hi <= c.Hi }

// Entry is one object prepared for the z-order join.
type Entry struct {
	Cell Cell
	ID   rtree.EntryID
	Rect geom.Rect
}

// interleave spreads the low 31 bits of v to even bit positions.
func interleave(v uint32) uint64 {
	x := uint64(v) & 0x7FFFFFFF
	x = (x | x<<16) & 0x0000FFFF0000FFFF
	x = (x | x<<8) & 0x00FF00FF00FF00FF
	x = (x | x<<4) & 0x0F0F0F0F0F0F0F0F
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x
}

// zValue returns the z-address of the grid cell (gx, gy) at full
// resolution.
func zValue(gx, gy uint32) uint64 {
	return interleave(gx) | interleave(gy)<<1
}

// CellFor returns the smallest quadtree cell over the world square that
// fully contains r, refined to at most levels (1..MaxLevels).
func CellFor(r geom.Rect, world geom.Rect, levels int) Cell {
	if levels < 1 {
		levels = 1
	}
	if levels > MaxLevels {
		levels = MaxLevels
	}
	side := uint32(1) << uint(levels)
	toGrid := func(x, lo, hi float64) uint32 {
		if hi <= lo {
			return 0
		}
		f := (x - lo) / (hi - lo)
		if f < 0 {
			f = 0
		}
		g := uint32(f * float64(side))
		if g >= side {
			g = side - 1
		}
		return g
	}
	gx1 := toGrid(r.MinX, world.MinX, world.MaxX)
	gy1 := toGrid(r.MinY, world.MinY, world.MaxY)
	gx2 := toGrid(r.MaxX, world.MinX, world.MaxX)
	gy2 := toGrid(r.MaxY, world.MinY, world.MaxY)

	zlo := zValue(gx1, gy1)
	zhi := zValue(gx2, gy2)
	// The smallest common cell corresponds to the longest common prefix of
	// the two corner z-values (in 2-bit steps).
	diff := zlo ^ zhi
	shift := uint(0)
	for diff>>shift != 0 {
		shift += 2
	}
	if shift > uint(2*levels) {
		shift = uint(2 * levels)
	}
	lo := zlo >> shift << shift
	hi := lo | (1<<shift - 1)
	return Cell{Lo: lo, Hi: hi}
}

// Prepare converts items to sorted z-order entries over the given world.
// This corresponds to building the z-value index of [OM 88].
func Prepare(items []rtree.Item, world geom.Rect, levels int) []Entry {
	out := make([]Entry, len(items))
	for i, it := range items {
		out[i] = Entry{Cell: CellFor(it.Rect, world, levels), ID: it.ID, Rect: it.Rect}
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i].Cell, out[j].Cell
		if a.Lo != b.Lo {
			return a.Lo < b.Lo
		}
		// Larger (containing) cells first so the merge stack nests.
		return a.Hi > b.Hi
	})
	return out
}

// Join merges two prepared (sorted) entry sequences and emits every pair of
// objects whose cells nest and whose MBRs intersect — the same candidate
// semantics as the R-tree filter join. comparisons counts MBR tests for
// cost comparisons against the R-tree approach.
func Join(rs, ss []Entry, emit func(c join.Candidate)) (comparisons int) {
	var stackR, stackS []Entry
	i, j := 0, 0
	for i < len(rs) || j < len(ss) {
		takeR := j >= len(ss) ||
			(i < len(rs) && (rs[i].Cell.Lo < ss[j].Cell.Lo ||
				(rs[i].Cell.Lo == ss[j].Cell.Lo && rs[i].Cell.Hi >= ss[j].Cell.Hi)))
		if takeR {
			e := rs[i]
			i++
			stackR = popExpired(stackR, e.Cell.Lo)
			stackS = popExpired(stackS, e.Cell.Lo)
			// Every active S-cell contains e's start, hence nests with e.
			for _, o := range stackS {
				comparisons++
				if e.Rect.Intersects(o.Rect) {
					emit(join.Candidate{R: e.ID, S: o.ID})
				}
			}
			stackR = append(stackR, e)
		} else {
			e := ss[j]
			j++
			stackR = popExpired(stackR, e.Cell.Lo)
			stackS = popExpired(stackS, e.Cell.Lo)
			for _, o := range stackR {
				comparisons++
				if o.Rect.Intersects(e.Rect) {
					emit(join.Candidate{R: o.ID, S: e.ID})
				}
			}
			stackS = append(stackS, e)
		}
	}
	return comparisons
}

// popExpired removes stack entries whose cells end before pos.
func popExpired(stack []Entry, pos uint64) []Entry {
	for len(stack) > 0 && stack[len(stack)-1].Cell.Hi < pos {
		stack = stack[:len(stack)-1]
	}
	return stack
}

// JoinItems is the convenience entry point: prepare both relations over
// their common bounding square and join them.
func JoinItems(rs, ss []rtree.Item, levels int) []join.Candidate {
	world := geom.EmptyRect()
	for _, it := range rs {
		world = world.Union(it.Rect)
	}
	for _, it := range ss {
		world = world.Union(it.Rect)
	}
	if world.IsEmpty() {
		return nil
	}
	var out []join.Candidate
	Join(Prepare(rs, world, levels), Prepare(ss, world, levels),
		func(c join.Candidate) { out = append(out, c) })
	return out
}
