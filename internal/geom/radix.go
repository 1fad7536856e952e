package geom

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
)

// Keyed radix sort: the one build-time ordering core under both engines,
// and the digit loop behind SortWords. A float key is quantised
// monotonically onto 32 bits over the input's own key range and packed
// with a 32-bit payload as key<<32|payload; three 11-bit LSD passes over
// the upper half ping-pong the packed words between two caller-owned
// buffers. Quantisation is monotone but not injective, so the passes leave
// the words ordered only up to runs of equal quantum; each entry point then
// orders every such run with its exact comparison, which makes the result
// the same unique order its comparison sort produces. Inputs the
// quantisation cannot cover — a NaN or infinite key, a zero-width or
// overflowing key range — are left to the comparison sort. See DESIGN.md
// "Build-time ordering".

const (
	radixBits    = 11
	radixBuckets = 1 << radixBits
	radixMask    = radixBuckets - 1

	// keyQuanta is the largest quantised key. fl(width·fl(keyQuanta/width))
	// exceeds it by at most 2⁻²⁰, so the truncated product fits 32 bits.
	keyQuanta = 1<<32 - 1

	// RadixMinLen is the length below which clearing and prefix-summing the
	// histograms costs more than a comparison sort of the input; every radix
	// entry point, SortWords' callers included, sorts shorter inputs by
	// comparison.
	RadixMinLen = 256
)

// keyScale returns the factor mapping key−lo onto [0, keyQuanta] for keys
// in [lo, hi], or false when no monotone finite mapping exists: lo or hi is
// NaN or infinite, hi−lo is zero, overflows, or is so small that the factor
// does.
func keyScale(lo, hi float64) (float64, bool) {
	w := hi - lo
	scale := keyQuanta / w
	if !(w > 0) || w > math.MaxFloat64 || scale > math.MaxFloat64 {
		return 0, false
	}
	return scale, true
}

// quantise packs the quantum of key x with its payload. Subtraction,
// multiplication by a positive factor and truncation are each monotone
// under IEEE rounding, so x ≤ y implies quantum(x) ≤ quantum(y).
func quantise(x, lo, scale float64, payload uint32) uint64 {
	return uint64(int64((x-lo)*scale))<<32 | uint64(payload)
}

// SortWords sorts the words of a ascending, using b (len(b) >= len(a)) as
// the second buffer, and returns whichever of the two holds the result. It
// allocates nothing. Callers pack their composite keys into the words;
// inputs shorter than RadixMinLen are cheaper to sort by comparison.
//
// It is the build-time digit loop run over each half in turn, LSD: the
// words are rotated so their lower half leads, sorted stably by it, rotated
// back and sorted stably by the upper half. The rotations are two streaming
// passes; widening the loop itself to a run-time bit range slowed the
// build-time sort (a variable digit count and shift in its histogram read).
func SortWords(a, b []uint64) []uint64 {
	if len(a) == 0 {
		return a
	}
	rotateHalves(a)
	byLow := radixSortHi32(a, b)
	rotateHalves(byLow)
	if &byLow[0] == &a[0] {
		return radixSortHi32(a, b)
	}
	return radixSortHi32(byLow, a)
}

// rotateHalves swaps the two 32-bit halves of every word.
func rotateHalves(words []uint64) {
	for i, v := range words {
		words[i] = bits.RotateLeft64(v, 32)
	}
}

// radixSortHi32 stably sorts the words of a by their upper 32 bits, using b
// (len(b) >= len(a)) as the second buffer, and returns whichever of the two
// holds the result. Every digit all words share is skipped. It allocates
// nothing.
func radixSortHi32(a, b []uint64) []uint64 {
	n := len(a)
	if n == 0 {
		return a
	}
	b = b[:n]
	var hist [3][radixBuckets]uint32
	for _, v := range a {
		hist[0][v>>32&radixMask]++
		hist[1][v>>(32+radixBits)&radixMask]++
		hist[2][v>>(32+2*radixBits)]++
	}
	for d := range hist {
		h := &hist[d]
		shift := uint(32 + radixBits*d)
		if h[a[0]>>shift&radixMask] == uint32(n) {
			continue // every key shares this digit
		}
		sum := uint32(0)
		for i, c := range h {
			h[i] = sum
			sum += c
		}
		for _, v := range a {
			dg := v >> shift & radixMask
			b[h[dg]] = v
			h[dg]++
		}
		a, b = b, a
	}
	return a
}

// radixSortOrder brings order into the rectLess total order with the keyed
// radix sort: key MinX, payload the rect index, equal-quantum runs finished
// by the comparison sort. ka and kb are the two word buffers; a buffer
// shorter than order is replaced by a fresh one. Returns false with order
// untouched when the input is too short or its keys cannot be quantised.
func radixSortOrder(rects []Rect, order []int32, ka, kb []uint64) bool {
	n := len(order)
	if n < RadixMinLen {
		return false
	}
	ka, kb = keyBuf(ka, n), keyBuf(kb, n)
	// One gather of the keys (the order may be far from sequential): their
	// bits park in ka until the range is known.
	lo, hi := math.Inf(1), math.Inf(-1)
	nan := false
	for i, o := range order {
		x := rects[o].MinX
		ka[i] = math.Float64bits(x)
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
		if x != x {
			nan = true
		}
	}
	scale, ok := keyScale(lo, hi)
	if nan || !ok {
		return false
	}
	for i, o := range order {
		ka[i] = quantise(math.Float64frombits(ka[i]), lo, scale, uint32(o))
	}
	unpackRuns(radixSortHi32(ka, kb), order, func(run []int32) { quickSortOrder(rects, run) })
	return true
}

// unpackRuns writes the payloads of the sorted words to order and hands
// every run of two or more equal quanta to sortRun, the entry point's exact
// comparison sort.
func unpackRuns(sorted []uint64, order []int32, sortRun func(run []int32)) {
	start := 0
	for i, v := range sorted {
		order[i] = int32(uint32(v))
		if v>>32 != sorted[start]>>32 {
			if i-start > 1 {
				sortRun(order[start:i])
			}
			start = i
		}
	}
	if len(sorted)-start > 1 {
		sortRun(order[start:len(sorted)])
	}
}

// StableOrderByKey fills order (len(order) >= len(keys)) with the
// permutation that sorts keys ascending and keeps equal keys in index
// order — the unique result of a stable sort under cmp.Compare, which also
// fixes where NaN keys go: before every number, in index order. ka and kb
// are the radix sort's word buffers; a buffer shorter than keys is replaced
// by a fresh one. The R*-tree bulk loader sorts entry centres with it.
func StableOrderByKey(keys []float64, order []int32, ka, kb []uint64) {
	order = order[:len(keys)]
	if radixOrderByKey(keys, order, ka, kb) {
		return
	}
	for i := range order {
		order[i] = int32(i)
	}
	stableSortByKey(keys, order)
}

// radixOrderByKey is StableOrderByKey's radix path; like radixSortOrder it
// returns false, order untouched, when the input is too short or its keys
// cannot be quantised.
func radixOrderByKey(keys []float64, order []int32, ka, kb []uint64) bool {
	n := len(keys)
	if n < RadixMinLen {
		return false
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	nan := false
	for _, x := range keys {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
		if x != x {
			nan = true
		}
	}
	scale, ok := keyScale(lo, hi)
	if nan || !ok {
		return false
	}
	ka, kb = keyBuf(ka, n), keyBuf(kb, n)
	for i, x := range keys {
		ka[i] = quantise(x, lo, scale, uint32(i))
	}
	// The passes are stable and the payloads start ascending, so every
	// equal-quantum run arrives in index order: a stable sort of the run by
	// exact key finishes the stable sort of the whole.
	unpackRuns(radixSortHi32(ka, kb), order, func(run []int32) { stableSortByKey(keys, run) })
	return true
}

func stableSortByKey(keys []float64, order []int32) {
	slices.SortStableFunc(order, func(a, b int32) int {
		return cmp.Compare(keys[a], keys[b])
	})
}

func keyBuf(s []uint64, n int) []uint64 {
	if len(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}
