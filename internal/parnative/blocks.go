package parnative

import (
	"math"
	"math/bits"

	"spjoin/internal/geom"
	"spjoin/internal/join"
	"spjoin/internal/rtree"
)

// Block units. The in-memory native join never expands a leaf pair: it stops
// its traversal at pairs of level-1 nodes (or leaf roots) and joins each
// such pair's blocks — all the data entries under either node, in sweep
// order (rtree.Block) — with the two CPU techniques of §2.2 at a coarser
// grain: restrict both blocks to the intersection of their MBRs, compact
// the survivors into dense planes, and plane-sweep them with the 8-lane
// dense kernel, emitting ids straight from the id plane.
//
// The result is the sequential join's pair set. Each data entry lies under
// exactly one level-1 node, so each candidate pair lies under exactly one
// level-1 pair; that pair's MBRs intersect, so the traversal reaches it,
// and the restriction drops only entries that intersect nothing on the
// other side.
//
// A block pair too costly for one unit is cut into parts, each running one
// contiguous range of the pair's sweep events (geom.MergeSplit), as the
// partition engine cuts a hot tile: concatenated in part order the ranges
// find the whole sweep's pairs with its comparison count. Every part
// restricts its pair anew; the pair itself and its restriction tests are
// counted once, by part 0, so the counters do not depend on the split.

// unit is one schedulable piece of native join work: part part of the parts
// event ranges of a block pair, or (parts == 1) a whole node pair.
type unit struct {
	join.NodePair
	part, parts int32
}

// wholeUnits wraps node pairs as unsplit units.
func wholeUnits(pairs []join.NodePair) []unit {
	out := make([]unit, len(pairs))
	for i, p := range pairs {
		out[i] = unit{NodePair: p, parts: 1}
	}
	return out
}

// blockPair returns the blocks of a block pair.
func blockPair(src join.Source, p join.NodePair) (a, b *rtree.Block) {
	return src.Node(join.SideR, p.RPage, p.RLevel).Block(), src.Node(join.SideS, p.SPage, p.SLevel).Block()
}

// pairCost estimates a block pair's sweep work as the partition engine costs
// a tile, n·m + n + m, over the entries expected to survive the
// restriction: each block's count scaled by the share of its MBR's area
// that the two MBRs have in common.
func pairCost(a, b *rtree.Block) int64 {
	inter := a.MBR.Intersection(b.MBR)
	n, m := survivors(a, inter), survivors(b, inter)
	if n == 0 || m == 0 {
		return 0
	}
	return n*m + n + m
}

// survivors estimates how many entries of blk lie in the part q of its MBR,
// assuming they spread evenly over it (all of them when the MBR has no
// finite positive area).
func survivors(blk *rtree.Block, q geom.Rect) int64 {
	n := float64(blk.Len())
	if area := blk.MBR.Area(); area > 0 && area <= math.MaxFloat64 {
		n *= min(q.Area()/area, 1)
	}
	return int64(math.Ceil(n))
}

// splitTasks turns the created block pairs into units, in their order, a
// split pair's parts adjacent in part order. The split derives from the
// task budget alone, never from the worker count, so a fixed budget gives
// the same units at every worker count: a block pair whose estimated cost
// exceeds the budget's fair share of the pairs' total is cut into parts of
// about half that share, capped at its event count.
func splitTasks(src join.Source, tasks []join.NodePair, budget int) []unit {
	var total int64
	for _, p := range tasks {
		total += pairCost(blockPair(src, p))
	}
	share := total / int64(max(budget, 1))
	units := make([]unit, 0, len(tasks))
	for _, p := range tasks {
		parts := int64(1)
		a, b := blockPair(src, p)
		if c := pairCost(a, b); share > 0 && c > share {
			half := max(1, share/2)
			parts = min((c+half-1)/half, int64(a.Len()+b.Len()))
		}
		for k := int64(0); k < parts; k++ {
			units = append(units, unit{NodePair: p, part: int32(k), parts: int32(parts)})
		}
	}
	return units
}

// sweepBatch bounds the events one sweep call runs before the emit drains
// its hits, so a worker's hit buffer stays bounded by what 128 events
// find, not by what the largest unit does.
const sweepBatch = 128

// blockScratch holds one worker's reusable block-unit buffers: the two
// restricted, compacted sides, the restriction bitmask and the sweep hits.
// newBlockScratch sizes the first three for the longest blocks of the two
// trees, so only the hit buffer grows, and after a few units a unit
// allocates nothing.
type blockScratch struct {
	r, s       geom.Planes
	rIDs, sIDs []rtree.EntryID
	mask       []uint64
	hits       []geom.IndexPair
}

// newBlockScratch returns a scratch for blocks of up to maxR entries on the
// R side and maxS on the S side.
func newBlockScratch(maxR, maxS int) *blockScratch {
	sc := &blockScratch{
		rIDs: make([]rtree.EntryID, maxR),
		sIDs: make([]rtree.EntryID, maxS),
		mask: make([]uint64, geom.MaskWords(max(maxR, maxS))),
	}
	sc.r.Reset(maxR)
	sc.s.Reset(maxS)
	return sc
}

// joinBlocks runs part part of parts of the block pair (a, b), pushing its
// candidates to out in sweep order, and returns the comparisons made: the
// sweep's, plus, in part 0, the restriction's lane tests (one per block
// entry, as Scratch.Expand counts its restriction).
func (sc *blockScratch) joinBlocks(a, b *rtree.Block, part, parts int32, out *join.CandidateBuf) int {
	inter := a.MBR.Intersection(b.MBR)
	sc.rIDs = sc.restrict(inter, a, &sc.r, sc.rIDs)
	sc.sIDs = sc.restrict(inter, b, &sc.s, sc.sIDs)
	comparisons := 0
	if part == 0 {
		comparisons = a.Len() + b.Len()
	}
	n := int64(len(sc.rIDs) + len(sc.sIDs))
	p0 := int(n * int64(part) / int64(parts))
	p1 := int(n * int64(part+1) / int64(parts))
	i0, j0 := geom.MergeSplit(sc.r.MinX, sc.s.MinX, p0)
	for p0 < p1 {
		p := min(p0+sweepBatch, p1)
		i1, j1 := geom.MergeSplit(sc.r.MinX, sc.s.MinX, p)
		var c int
		sc.hits, c = geom.SweepPairsPlanesDenseRange(&sc.r, &sc.s, i0, i1, j0, j1, sc.hits[:0])
		comparisons += c
		for _, h := range sc.hits {
			out.Push(join.Candidate{R: sc.rIDs[h.R], S: sc.sIDs[h.S]})
		}
		p0, i0, j0 = p, i1, j1
	}
	return comparisons
}

// restrict compacts the entries of blk that intersect q, in block order, into
// out and returns their ids (reusing ids' capacity). The test is the batch
// kernel, bit-identical to Rect.Intersects; the block order is the sweep
// order, so the survivors stay sorted.
func (sc *blockScratch) restrict(q geom.Rect, blk *rtree.Block, out *geom.Planes, ids []rtree.EntryID) []rtree.EntryID {
	n := blk.Len()
	w := geom.MaskWords(n)
	if cap(sc.mask) < w {
		sc.mask = make([]uint64, w)
	}
	mask := sc.mask[:w]
	hits := geom.IntersectBatchPlanes(q, &blk.Planes, mask)
	out.Reset(hits)
	if cap(ids) < hits {
		ids = make([]rtree.EntryID, hits)
	}
	ids = ids[:hits]
	p := &blk.Planes
	k := 0
	for wi, word := range mask {
		if word == ^uint64(0) {
			// A run of 64 survivors (common where the MBRs overlap most)
			// moves as five block copies.
			lo := wi << 6
			copy(out.MinX[k:k+64], p.MinX[lo:lo+64])
			copy(out.MinY[k:k+64], p.MinY[lo:lo+64])
			copy(out.MaxX[k:k+64], p.MaxX[lo:lo+64])
			copy(out.MaxY[k:k+64], p.MaxY[lo:lo+64])
			copy(ids[k:k+64], blk.IDs[lo:lo+64])
			k += 64
			continue
		}
		for word != 0 {
			i := wi<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			out.MinX[k], out.MinY[k], out.MaxX[k], out.MaxY[k] = p.MinX[i], p.MinY[i], p.MaxX[i], p.MaxY[i]
			ids[k] = blk.IDs[i]
			k++
		}
	}
	return ids
}
