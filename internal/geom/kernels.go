package geom

import (
	"fmt"
	"math/bits"
	"slices"
)

// Kernel dispatch. The filter kernels over Planes exist twice: a pure-Go
// scalar implementation that runs everywhere, and an AVX2 implementation
// (kernel_amd64.s) selected at init when the CPU and OS support 256-bit
// vector state. The two are semantically identical — the vector code
// evaluates the same closed-rectangle predicate, bit for bit, including
// NaN and EmptyRect never matching, and the dense sweep's vector scan the
// same break and overlap tests as its scalar loop, down to the comparison
// count — so dispatch is purely a performance decision. SetKernel("purego") forces the fallback at runtime for A/B
// runs; builds with -tags purego never compile the assembly at all.

var useAVX2 = avx2Available

// KernelName returns the active kernel path: "avx2" or "purego".
func KernelName() string {
	if useAVX2 {
		return "avx2"
	}
	return "purego"
}

// SetKernel selects the kernel path: "auto" picks the best the CPU
// supports, "purego" forces the scalar fallback. It returns an error for
// unknown modes. Not safe to call concurrently with running kernels.
func SetKernel(mode string) error {
	switch mode {
	case "auto":
		useAVX2 = avx2Available
	case "purego":
		useAVX2 = false
	default:
		return fmt.Errorf("geom: unknown kernel %q (want auto or purego)", mode)
	}
	return nil
}

// MaskWords returns the number of uint64 words a bitmask over n rectangles
// needs (one bit per rectangle).
func MaskWords(n int) int { return (n + 63) >> 6 }

// IntersectBatchPlanes is the batch micro-kernel of the filter step: it
// tests the query q against every rectangle of a coordinate-plane view and
// writes the outcomes as a bitmask — bit i%64 of out[i/64] is set iff
// rectangle i of p intersects q, under exactly the Rect.Intersects
// predicate (touching edges count; NaN and EmptyRect never match; finite
// inverted rectangles behave however the four scalar comparisons say).
// The caller walks the mask in whatever order it needs without
// re-testing. out must hold at least MaskWords(p.Len()) words; used words
// are fully overwritten with zero trailing bits. It returns the number of
// intersecting rectangles.
func IntersectBatchPlanes(q Rect, p *Planes, out []uint64) int {
	n := p.Len()
	words := MaskWords(n)
	if words == 0 {
		return 0
	}
	out = out[:words]
	count := 0
	if useAVX2 {
		qv := [4]float64{q.MinX, q.MinY, q.MaxX, q.MaxY}
		for wi := 0; wi < words; wi++ {
			base := wi << 6
			cnt := n - base
			if cnt > 64 {
				cnt = 64
			}
			full := cnt &^ 3
			var word uint64
			if full > 0 {
				word = intersectBlocks(&qv, &p.MinX[base], &p.MinY[base], &p.MaxX[base], &p.MaxY[base], full)
			}
			for i := base + full; i < base+cnt; i++ {
				word |= intersectLane(q, p, i) << (uint(i-base) & 63)
			}
			out[wi] = word
			count += bits.OnesCount64(word)
		}
		return count
	}
	for wi := 0; wi < words; wi++ {
		base := wi << 6
		end := base + 64
		if end > n {
			end = n
		}
		var word uint64
		for i := base; i < end; i++ {
			word |= intersectLane(q, p, i) << (uint(i-base) & 63)
		}
		out[wi] = word
		count += bits.OnesCount64(word)
	}
	return count
}

// intersectLane is the branchless single-lane exact test over the planes:
// it returns 1 iff lane i and the query share at least one point, with the
// exact closed-rectangle semantics of Rect.Intersects. Each comparison
// feeds a bitwise AND, so the test carries no data-dependent branch.
func intersectLane(q Rect, p *Planes, i int) uint64 {
	return b2u(p.MinX[i] <= q.MaxX) & b2u(q.MinX <= p.MaxX[i]) &
		b2u(p.MinY[i] <= q.MaxY) & b2u(q.MinY <= p.MaxY[i])
}

// b2u converts a comparison result to 0/1 without a visible branch (the
// compiler lowers this pattern to SETcc on amd64).
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// SweepPairsPlanesDense sweeps all of r against all of s, both already in
// ascending (MinX, MinY) order at positions 0..Len-1, and appends every
// intersecting pair to out as position pairs. This is the segment form of
// the sweep the partition join runs per tile: both sides are contiguous
// coordinate-plane slices (tile segments come out of the counting sort
// already sweep-sorted and densely packed), so every load in the scan is
// a step through a dense float64 stream — no index indirection, no
// striding. Pair set, order and the comparison count equal
// SweepPairsPlanes over the same rectangles with identity index slices.
// It is SweepPairsPlanesDenseRange over all events.
func SweepPairsPlanesDense(r, s *Planes, out []IndexPair) ([]IndexPair, int) {
	return SweepPairsPlanesDenseRange(r, s, 0, r.Len(), 0, s.Len(), out)
}

// SweepPairsPlanesDenseRange runs the events R[i0:i1) and S[j0:j1) of the
// dense sweep of r against s, starting from the merge state (i0, j0) and
// stopping at (i1, j1); both states must be ones the sweep's event merge
// passes through (see MergeSplit). Each event still scans the other side
// from its current front to the end, so running the ranges between any
// ascending merge states in turn appends exactly the pairs of the whole
// sweep, in the same order, with the same summed comparison count.
//
// On the AVX2 path each scan runs eight lanes at a time (sweepScan8) while
// eight or more lanes of the other side remain, and finishes its tail of
// under eight lanes in the scalar loop below; the scalar loop alone is the
// purego path and the oracle the vector scan is tested against.
func SweepPairsPlanesDenseRange(r, s *Planes, i0, i1, j0, j1 int, out []IndexPair) ([]IndexPair, int) {
	rMinX, rMinY, rMaxX, rMaxY := r.MinX, r.MinY, r.MaxX, r.MaxY
	sMinX, sMinY, sMaxX, sMaxY := s.MinX, s.MinY, s.MaxX, s.MaxY
	// Pin the sibling planes to the MinX lengths so the scans' bounds
	// checks vanish (the loop conditions already guard len(\*MinX)).
	rMinY, rMaxX, rMaxY = rMinY[:len(rMinX)], rMaxX[:len(rMinX)], rMaxY[:len(rMinX)]
	sMinY, sMaxX, sMaxY = sMinY[:len(sMinX)], sMaxX[:len(sMinX)], sMaxY[:len(sMinX)]
	vec := useAVX2
	comparisons := 0
	i, j := i0, j0
	// Once a side is exhausted the other side's events scan nothing, so the
	// loop ends there, as the whole sweep's does.
	for i < len(rMinX) && j < len(sMinX) && (i < i1 || j < j1) {
		// The merge takes R first on equal keys; past the end of the R
		// range every remaining event is S's. (Past the end of the S range
		// the comparison already picks R: the merge passes (i1, j1).)
		if i < i1 && rMinX[i] <= sMinX[j] {
			tMaxX, tMinY, tMaxY := rMaxX[i], rMinY[i], rMaxY[i]
			k := j
			if vec && len(sMinX)-k >= 8 {
				var n int
				var brk bool
				t := [3]float64{tMaxX, tMinY, tMaxY}
				out, n, brk = sweepScanVec(&t, sMinX, sMinY, sMaxY, k, uint64(uint32(i)), 1<<32, out)
				comparisons += n
				k += n
				if brk {
					i++
					continue
				}
			}
			for ; k < len(sMinX); k++ {
				if sMinX[k] > tMaxX {
					break
				}
				comparisons++
				if tMinY <= sMaxY[k] && sMinY[k] <= tMaxY {
					out = append(out, IndexPair{R: int32(i), S: int32(k)})
				}
			}
			i++
		} else {
			tMaxX, tMinY, tMaxY := sMaxX[j], sMinY[j], sMaxY[j]
			k := i
			if vec && len(rMinX)-k >= 8 {
				var n int
				var brk bool
				t := [3]float64{tMaxX, tMinY, tMaxY}
				out, n, brk = sweepScanVec(&t, rMinX, rMinY, rMaxY, k, uint64(uint32(j))<<32, 1, out)
				comparisons += n
				k += n
				if brk {
					j++
					continue
				}
			}
			for ; k < len(rMinX); k++ {
				if rMinX[k] > tMaxX {
					break
				}
				comparisons++
				if rMinY[k] <= tMaxY && tMinY <= rMaxY[k] {
					out = append(out, IndexPair{R: int32(k), S: int32(j)})
				}
			}
			j++
		}
	}
	return out, comparisons
}

// MergeSplit returns the state (i, j), i+j = p, that the dense sweep's event
// merge of two ascending key sequences passes through after its first p
// events: the merge takes the R event first on equal keys, so i counts the
// R keys among the p smallest. A binary search over the cross diagonal
// i+j = p, O(log min(p, n)): for 0 ≤ p ≤ len(rMinX)+len(sMinX) the result
// splits the sweep into the event ranges SweepPairsPlanesDenseRange runs.
// The keys must be ordered (no NaN).
func MergeSplit(rMinX, sMinX []float64, p int) (i, j int) {
	lo, hi := max(0, p-len(sMinX)), min(p, len(rMinX))
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		// R[mid] precedes S[p-1-mid] in the merge: more than mid of the
		// first p events are R's.
		if rMinX[mid] <= sMinX[p-1-mid] {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, p - lo
}

// sweepScanVec runs sweepScan8 over the other side's lanes k0.. for the
// sweep rect t, growing out whenever fewer than eight free slots are left.
// fixed is the sweep rect's half of every pair and mul places the lane in
// the other half (see sweepScan8). It returns the grown out, the lanes
// compared, and whether the scan stopped at a lane past t's MaxX; when it
// did not, fewer than eight lanes remain for the scalar tail.
func sweepScanVec(t *[3]float64, minX, minY, maxY []float64, k0 int, fixed, mul uint64, out []IndexPair) ([]IndexPair, int, bool) {
	k := k0
	for len(minX)-k >= 8 {
		if cap(out)-len(out) < 8 {
			out = slices.Grow(out, 8)
		}
		free := out[len(out):cap(out)]
		lanes, hits, brk := sweepScan8(t, &minX[k], &minY[k], &maxY[k], len(minX)-k,
			&free[0], len(free), fixed+uint64(k)*mul, mul)
		out = out[:len(out)+hits]
		k += lanes
		if brk != 0 {
			return out, k - k0, true
		}
	}
	return out, k - k0, false
}

// SweepPairsPlanes enumerates all intersecting pairs between r and s with
// the plane sweep of §2.2 over coordinate-plane views: ri and si index into
// r and s and must be sorted by ascending (MinX, MinY, index) (see
// SortOrderByMinX). The sweep line moves to the unprocessed rectangle with
// the smallest MinX, and the other side is scanned from its current front
// until a rectangle starts beyond the sweep rectangle's MaxX; within the
// scan the x-overlap is implied, so only the y-extents are tested. Every
// intersecting pair is appended to out in local plane-sweep order as
// original (ri, si) indices; the grown slice is returned with the number
// of rectangle pairs tested, which drives the CPU cost model. With a
// cap-sufficient out it performs no allocation.
func SweepPairsPlanes(r, s *Planes, ri, si []int32, out []IndexPair) ([]IndexPair, int) {
	rMinX, rMinY, rMaxX, rMaxY := r.MinX, r.MinY, r.MaxX, r.MaxY
	sMinX, sMinY, sMaxX, sMaxY := s.MinX, s.MinY, s.MaxX, s.MaxY
	comparisons := 0
	i, j := 0, 0
	for i < len(ri) && j < len(si) {
		if rMinX[ri[i]] <= sMinX[si[j]] {
			oi := ri[i]
			tMaxX, tMinY, tMaxY := rMaxX[oi], rMinY[oi], rMaxY[oi]
			for k := j; k < len(si); k++ {
				c := si[k]
				if sMinX[c] > tMaxX {
					break
				}
				comparisons++
				if tMinY <= sMaxY[c] && sMinY[c] <= tMaxY {
					out = append(out, IndexPair{R: oi, S: c})
				}
			}
			i++
		} else {
			oj := si[j]
			tMaxX, tMinY, tMaxY := sMaxX[oj], sMinY[oj], sMaxY[oj]
			for k := i; k < len(ri); k++ {
				c := ri[k]
				if rMinX[c] > tMaxX {
					break
				}
				comparisons++
				if rMinY[c] <= tMaxY && tMinY <= rMaxY[c] {
					out = append(out, IndexPair{R: c, S: oj})
				}
			}
			j++
		}
	}
	return out, comparisons
}
