//go:build amd64 && !purego

package geom

// AVX2 kernel bindings. The assembly (kernel_amd64.s) implements the exact
// 4-wide float64 intersection test and the 8-lane plane-sweep scan; this
// file owns the CPU feature detection that decides whether they may run.
// Builds with -tags purego exclude both files and fall back to the scalar
// kernels (kernel_fallback.go), which is also the forced path of
// SetKernel("purego").

// avx2Available reports whether the CPU supports AVX2 and the OS has
// enabled 256-bit vector state. Detected once at init.
var avx2Available = detectAVX2()

// detectAVX2 runs the standard three-step check without external
// dependencies: AVX + OSXSAVE in CPUID.1:ECX, XMM+YMM state enabled in
// XCR0 (XGETBV), and AVX2 in CPUID.7.0:EBX.
func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	if xcr0&6 != 6 { // XMM and YMM state both OS-managed
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0 // AVX2
}

// intersectBlocks evaluates the exact closed-rectangle test of query
// q = {MinX, MinY, MaxX, MaxY} against lanes [0, n) of the four planes,
// n a positive multiple of 4 (at most 64), and returns the result bits in
// lane order. NaN compares false in every predicate (VCMPPD LE_OQ), so
// NaN and EmptyRect lanes never set their bit — identical to intersectLane.
//
//go:noescape
func intersectBlocks(q *[4]float64, minx, miny, maxx, maxy *float64, n int) uint64

// sweepScan8 runs the plane sweep's inner scan eight lanes at a time: t
// is the sweep rect as {MaxX, MinY, MaxY}, the planes start at the scan's
// first lane and hold n of them. It steps while eight lanes and eight of
// out's room slots remain, stores each compared lane's hit in lane order
// as the pair whose bits are base + lane*mul, and stops at the first lane
// starting past t.MaxX (brk = 1). It returns the lanes compared and the
// pairs stored. See SweepPairsPlanesDense for the predicates it mirrors.
//
//go:noescape
func sweepScan8(t *[3]float64, minx, miny, maxy *float64, n int, out *IndexPair, room int, base, mul uint64) (lanes, hits, brk int)

// cpuid executes the CPUID instruction with the given leaf/subleaf.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (requires OSXSAVE).
func xgetbv() (eax, edx uint32)
