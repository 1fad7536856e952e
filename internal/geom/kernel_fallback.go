//go:build !amd64 || purego

package geom

// Scalar-only build: no vector kernels are compiled, dispatch is pinned to
// the pure-Go path. The stubs below exist so kernels.go typechecks; they
// are unreachable because useAVX2 can never become true when
// avx2Available is a false constant.

const avx2Available = false

func intersectBlocks(q *[4]float64, minx, miny, maxx, maxy *float64, n int) uint64 {
	panic("geom: vector kernel called on a purego build")
}

func sweepScan8(t *[3]float64, minx, miny, maxy *float64, n int, out *IndexPair, room int, base, mul uint64) (lanes, hits, brk int) {
	panic("geom: vector kernel called on a purego build")
}
