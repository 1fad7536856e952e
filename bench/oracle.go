package main

import (
	"sort"

	"spjoin/internal/join"
	"spjoin/internal/rtree"
)

// digest identifies a pair set: its size and an order-independent 64-bit
// checksum (the wrapping sum of a mixed hash of every (R, S) id pair).
type digest struct {
	pairs int
	sum   uint64
}

func (d *digest) add(r, s rtree.EntryID) {
	x := uint64(uint32(r))<<32 | uint64(uint32(s))
	x ^= x >> 33 // splitmix64 finalizer
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	d.pairs++
	d.sum += x
}

// digestOf hashes an engine's candidate list; it allocates nothing.
func digestOf(cands []join.Candidate) digest {
	var d digest
	for i := range cands {
		d.add(cands[i].R, cands[i].S)
	}
	return d
}

// oracle computes the digest of the exact intersecting pair set of r and s
// with a sort-by-MinX forward plane sweep. It shares no code with any engine
// or geom kernel, so it stays valid when those are rewritten or deleted.
func oracle(r, s []rtree.Item) digest {
	byMinX := func(items []rtree.Item) []rtree.Item {
		out := append([]rtree.Item(nil), items...)
		sort.Slice(out, func(i, j int) bool { return out[i].Rect.MinX < out[j].Rect.MinX })
		return out
	}
	rs, ss := byMinX(r), byMinX(s)
	var d digest
	i, j := 0, 0
	for i < len(rs) && j < len(ss) {
		if rs[i].Rect.MinX <= ss[j].Rect.MinX {
			a := rs[i].Rect
			for k := j; k < len(ss) && ss[k].Rect.MinX <= a.MaxX; k++ {
				if b := ss[k].Rect; a.MinY <= b.MaxY && b.MinY <= a.MaxY {
					d.add(rs[i].ID, ss[k].ID)
				}
			}
			i++
		} else {
			b := ss[j].Rect
			for k := i; k < len(rs) && rs[k].Rect.MinX <= b.MaxX; k++ {
				if a := rs[k].Rect; a.MinY <= b.MaxY && b.MinY <= a.MaxY {
					d.add(rs[k].ID, ss[j].ID)
				}
			}
			j++
		}
	}
	return d
}
