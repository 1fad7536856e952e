package geom

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The references below are deliberately not the code under test: entry
// point (a) is held to quickSortOrder (the comparison sort it replaced) and
// entry point (b) to slices.SortStableFunc under cmp.Compare.

// checkOrderEntry sorts a shuffled order over rects whose MinX are keys
// three ways — the public keyed sort, the radix core alone, the comparison
// sort — and requires identical permutations. With a NaN key rectLess is no
// order at all, so there only the core's contract is checked: it declines
// and leaves the order untouched.
func checkOrderEntry(t *testing.T, keys []float64, seed int64) {
	t.Helper()
	n := len(keys)
	rng := rand.New(rand.NewSource(seed))
	rects := make([]Rect, n)
	order := make([]int32, n)
	hasNaN := false
	for i, k := range keys {
		rects[i] = Rect{MinX: k, MinY: float64(rng.Intn(3)), MaxX: k, MaxY: 3}
		order[i] = int32(i)
		hasNaN = hasNaN || k != k
	}
	rng.Shuffle(n, func(a, b int) { order[a], order[b] = order[b], order[a] })

	core := slices.Clone(order)
	took := radixSortOrder(rects, core, nil, nil)
	if took && (hasNaN || n < RadixMinLen) {
		t.Fatalf("n=%d: radix core took an input it must decline", n)
	}
	if !took && !slices.Equal(core, order) {
		t.Fatalf("n=%d: radix core declined but touched the order", n)
	}
	if hasNaN {
		return
	}
	want := slices.Clone(order)
	quickSortOrder(rects, want)
	if took && !slices.Equal(core, want) {
		t.Fatalf("n=%d: radix core order differs from the comparison sort's", n)
	}
	got := slices.Clone(order)
	SortOrderByMinXKeyed(rects, got, nil, make([]uint64, n), make([]uint64, n))
	if !slices.Equal(got, want) {
		t.Fatalf("n=%d: keyed sort order differs from the comparison sort's", n)
	}
}

// checkKeyEntry holds StableOrderByKey to the stable sort of the identity
// permutation under cmp.Compare, NaN keys included.
func checkKeyEntry(t *testing.T, keys []float64) {
	t.Helper()
	n := len(keys)
	want := make([]int32, n)
	for i := range want {
		want[i] = int32(i)
	}
	slices.SortStableFunc(want, func(a, b int32) int { return cmp.Compare(keys[a], keys[b]) })
	got := make([]int32, n+3)
	StableOrderByKey(keys, got, nil, make([]uint64, n))
	if !slices.Equal(got[:n], want) {
		t.Fatalf("n=%d: StableOrderByKey differs from the stable comparison sort", n)
	}
}

// keyFamilies generates n keys per family; each family aims at one branch of
// the quantisation, its fix-up or its fallbacks.
var keyFamilies = map[string]func(rng *rand.Rand, i int) float64{
	"uniform":   func(rng *rand.Rand, _ int) float64 { return rng.Float64() * 100 },
	"all-equal": func(*rand.Rand, int) float64 { return 42 },
	"two-value": func(rng *rand.Rand, _ int) float64 { return float64(rng.Intn(2)) },
	"ties":      func(rng *rand.Rand, _ int) float64 { return float64(rng.Intn(50)) },
	"ascending": func(_ *rand.Rand, i int) float64 { return float64(i) },
	"descending": func(_ *rand.Rand, i int) float64 {
		return -float64(i)
	},
	"signed-zeros": func(rng *rand.Rand, _ int) float64 {
		return [3]float64{0, math.Copysign(0, -1), 1}[rng.Intn(3)]
	},
	"zeros-only": func(rng *rand.Rand, _ int) float64 {
		return math.Copysign(0, float64(rng.Intn(2))-0.5)
	},
	"denormals": func(rng *rand.Rand, _ int) float64 {
		return float64(rng.Intn(64)) * math.SmallestNonzeroFloat64
	},
	"denormal-and-one": func(rng *rand.Rand, i int) float64 {
		if i == 0 {
			return 1
		}
		return float64(rng.Intn(64)) * math.SmallestNonzeroFloat64
	},
	// Width 1.6e308 is finite; width 3.4e308 overflows to +Inf.
	"wide-1e308": func(rng *rand.Rand, _ int) float64 { return (rng.Float64() - 0.5) * 1.6e308 },
	"wide-overflow": func(rng *rand.Rand, _ int) float64 {
		return (rng.Float64() - 0.5) * 2 * 1.7e308
	},
	// An outlier at −1e9 makes one quantum ≈ 0.47; the rest differ by ulps.
	"clustered-1e9": func(rng *rand.Rand, i int) float64 {
		if i == 7 {
			return -1e9
		}
		return 1e9 + float64(rng.Intn(1000))*1.2e-7
	},
	"nan": func(rng *rand.Rand, _ int) float64 {
		if rng.Intn(10) == 0 {
			return math.NaN()
		}
		return rng.Float64()
	},
	"all-nan": func(*rand.Rand, int) float64 { return math.NaN() },
	"pos-inf": func(rng *rand.Rand, _ int) float64 {
		if rng.Intn(10) == 0 {
			return math.Inf(1)
		}
		return rng.Float64()
	},
	"both-inf": func(rng *rand.Rand, _ int) float64 {
		return [4]float64{math.Inf(-1), math.Inf(1), 0, 1}[rng.Intn(4)]
	},
}

func TestRadixOrderExact(t *testing.T) {
	lengths := []int{0, 1, 2, orderSortCutoff - 1, orderSortCutoff, orderSortCutoff + 1,
		RadixMinLen - 1, RadixMinLen, RadixMinLen + 1,
		radixBuckets - 1, radixBuckets, radixBuckets + 1, 5000}
	for name, gen := range keyFamilies {
		for _, n := range lengths {
			rng := rand.New(rand.NewSource(int64(n) + 3))
			keys := make([]float64, n)
			for i := range keys {
				keys[i] = gen(rng, i)
			}
			t.Run(fmt.Sprintf("%s/%d", name, n), func(t *testing.T) {
				checkOrderEntry(t, keys, int64(n))
				checkKeyEntry(t, keys)
			})
		}
	}
}

// TestRadixSortHi32 checks the core alone against a stable comparison sort
// of the words' upper halves, including inputs that make it skip passes.
func TestRadixSortHi32(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, mask := range []uint32{math.MaxUint32, radixMask, radixMask << radixBits, 0xffc00000, 0} {
		for _, n := range []int{0, 1, 2, 1000, 70000} {
			a := make([]uint64, n)
			for i := range a {
				a[i] = uint64(rng.Uint32()&mask)<<32 | uint64(i)
			}
			want := slices.Clone(a)
			slices.SortStableFunc(want, func(x, y uint64) int { return cmp.Compare(x>>32, y>>32) })
			if got := radixSortHi32(a, make([]uint64, n+5)); !slices.Equal(got, want) {
				t.Fatalf("mask %#x n=%d: radix passes differ from the stable sort", mask, n)
			}
		}
	}
}

// TestSortWords checks the whole-word sort against slices.Sort, with either
// half, both or neither varying (so passes are skipped in each half and the
// result lands in either buffer) and with the extreme words.
func TestSortWords(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, mask := range []uint64{math.MaxUint64, math.MaxUint32, math.MaxUint32 << 32, 0x7ff_0000_07ff, 0} {
		for _, n := range []int{0, 1, 2, RadixMinLen, 70000} {
			a := make([]uint64, n)
			for i := range a {
				a[i] = rng.Uint64() & mask
			}
			if n > 2 && mask == math.MaxUint64 {
				a[0], a[1] = 0, math.MaxUint64
			}
			want := slices.Clone(a)
			slices.Sort(want)
			if got := SortWords(a, make([]uint64, n+5)); !slices.Equal(got, want) {
				t.Fatalf("mask %#x n=%d: SortWords differs from slices.Sort", mask, n)
			}
		}
	}
}

// FuzzRadixOrder feeds both entry points arbitrary float bit patterns. The
// input is tiled up to a length past the radix cutoff; mode picks how the
// copies are spread so tiling yields ties, near-ties or distinct keys.
func FuzzRadixOrder(f *testing.F) {
	bits := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(bits(1, 2, 3), uint8(0))
	f.Add(bits(0, math.Copysign(0, -1), math.SmallestNonzeroFloat64), uint8(1))
	f.Add(bits(math.NaN(), 1, math.Inf(1)), uint8(2))
	f.Add(bits(-1e308, 1e308, 1e9, 1e9+1.2e-7), uint8(3))
	f.Add(bits(math.MaxFloat64, -math.MaxFloat64), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, mode uint8) {
		var base []float64
		for ; len(data) >= 8 && len(base) < 64; data = data[8:] {
			base = append(base, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		}
		if len(base) == 0 {
			return
		}
		n := RadixMinLen + int(mode>>2)*5
		keys := make([]float64, n)
		for i := range keys {
			k, lap := base[i%len(base)], float64(i/len(base))
			switch mode & 3 {
			case 1:
				k += lap // distinct copies
			case 2:
				k = math.Nextafter(k, math.Inf(1-2*(i&1))) // one ulp either way
			case 3:
				k *= 1 + lap*0x1p-50
			}
			keys[i] = k
		}
		checkOrderEntry(t, keys, int64(mode))
		checkKeyEntry(t, keys)
	})
}
