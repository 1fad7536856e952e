package partjoin

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"spjoin/internal/geom"
	"spjoin/internal/rtree"
)

// refPointOwns is the reference-point test by its definition, the one the
// ownership bits must reproduce: tile (tx, ty) owns the intersecting pair
// (a, b) iff tileOf maps the top-left corner of their intersection,
// (max(a.MinX, b.MinX), min(a.MaxY, b.MaxY)), to it.
func refPointOwns(j *Joiner, a, b geom.Rect, tx, ty int) bool {
	ox, oy := j.tileOf(max(a.MinX, b.MinX), min(a.MaxY, b.MaxY))
	return ox == tx && oy == ty
}

// requireOwnership holds the ownership bits of j's cached tile segments
// against refPointOwns on every hit of every tile — every intersecting pair
// of positions, whether the sweep finds it or the batch path does — and
// returns how many hits it checked and how many of them were another tile's.
func requireOwnership(t testing.TB, stage string, j *Joiner) (hits, dups int) {
	t.Helper()
	for tile := 0; tile < j.gx*j.gy; tile++ {
		tx, ty := tile%j.gx, tile/j.gx
		r := j.rPart.seg(int(j.rPart.starts[tile]), int(j.rPart.starts[tile+1]))
		s := j.sPart.seg(int(j.sPart.starts[tile]), int(j.sPart.starts[tile+1]))
		for rp := range r.planes.Len() {
			a := r.planes.RectAt(rp)
			for sp := range s.planes.Len() {
				b := s.planes.RectAt(sp)
				if !a.Intersects(b) {
					continue
				}
				hits++
				bits, ref := ownedHit(r.own[rp], s.own[sp]), refPointOwns(j, a, b, tx, ty)
				if bits != ref {
					t.Fatalf("%s: tile (%d,%d) hit %v × %v: bits %02b|%02b say owned = %v, the reference point says %v",
						stage, tx, ty, a, b, r.own[rp], s.own[sp], bits, ref)
				}
				if !bits {
					dups++
				}
			}
		}
	}
	return hits, dups
}

// latticeRects returns n rects whose edges lie on the tile borders k·w/g of a
// g-tile axis over [0, w] or half a tile off them, so that many edges sit
// exactly where tileOf changes its answer, and rects of zero width or height
// land on a border too.
func latticeRects(rng *rand.Rand, n, g int, w float64) []geom.Rect {
	coord := func() float64 { return float64(rng.Intn(2*g+1)) * w / float64(2*g) }
	out := make([]geom.Rect, n)
	for i := range out {
		x0, x1 := coord(), coord()
		y0, y1 := coord(), coord()
		out[i] = geom.NewRect(min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1))
	}
	return out
}

// TestOwnershipBitsMatchReferencePoint pins the ownership rule: on every hit
// of every tile, the bits the scatter (or the delta step) wrote decide
// exactly what the reference-point test through tileOf decides — on random
// grids over rects whose edges lie on tile borders, in the clamped border
// tiles (edges on the data MBR's max edge, a collapsed axis, an infinite
// coordinate), and under a frozen grid after deltas moved rects outside its
// MBR. Every case must see hits, and the lattice cases other tiles' hits too.
func TestOwnershipBitsMatchReferencePoint(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	type ownCase struct {
		name     string
		r, s     []geom.Rect
		grid     int
		wantDups bool // the case must see other tiles' hits too
	}
	var cases []ownCase
	for k := 0; k < 12; k++ {
		g := 1 + rng.Intn(9)
		w := []float64{1, 7, 100, 1e-3, 3.3}[k%5]
		cases = append(cases, ownCase{
			name: fmt.Sprintf("lattice g%d w%g", g, w),
			r:    latticeRects(rng, 120, g, w), s: latticeRects(rng, 120, g, w),
			grid: g, wantDups: g > 1,
		})
	}
	// Border tiles: rects on the max edge clamp into the last row and column.
	edge := func(n int) []geom.Rect {
		out := randomRects(rng, n, 10, 3)
		for i := range out {
			if i%3 == 0 {
				out[i].MaxX = 13
			}
			if i%4 == 0 {
				out[i].MaxY, out[i].MinY = 13, min(out[i].MinY, 13)
			}
		}
		return out
	}
	cases = append(cases, ownCase{"max edge", edge(150), edge(150), 6, true})
	flat := func(n int) []geom.Rect { // every rect on the line y = 2
		out := randomRects(rng, n, 10, 2)
		for i := range out {
			out[i].MinY, out[i].MaxY = 2, 2
		}
		return out
	}
	cases = append(cases, ownCase{"collapsed y axis", flat(100), flat(100), 5, true})
	inf := edge(100)
	inf[0].MaxX = math.Inf(1)
	inf[1].MinY = math.Inf(-1)
	cases = append(cases, ownCase{"infinite extent", inf, edge(100), 4, false})

	for _, c := range cases {
		for _, workers := range []int{1, 2} {
			stage := fmt.Sprintf("%s w%d", c.name, workers)
			r, s := items(c.r, 0), items(c.s, 100000)
			cfg := Config{Workers: workers, Grid: c.grid}
			var j Joiner
			requireBrute(t, stage, j.Join(r, s, cfg), r, s)
			hits, dups := requireOwnership(t, stage, &j)
			j.Close()
			if hits == 0 || (c.wantDups && dups == 0) {
				t.Fatalf("%s: %d hits, %d of them another tile's — the case exercises nothing", stage, hits, dups)
			}
		}
	}

	// Frozen grid: deltas move rects outside the data MBR (and back across
	// it), where they clamp into the border tiles.
	r, s := deltaInputs(77, 400)
	cfg := Config{Workers: 2, Grid: 5}
	var j Joiner
	defer j.Close()
	j.Join(r, s, cfg)
	for step, m := range [][]deltaMut{
		{at(0, 30, 105, 105, 160, 160), at(1, 31, -40, 50, 30, 52)},
		{at(0, 32, -30, -30, 5, 5), at(1, 33, 100, -20, 130, 140)},
		{at(0, 30, 108, -5, 112, 200), at(1, 31, 43, 43, 67, 67)},
	} {
		for _, mu := range m {
			[2][]rtree.Item{r, s}[mu.side][mu.idx].Rect = *mu.rect
		}
		stage := fmt.Sprintf("frozen grid step %d", step)
		res := j.Join(r, s, cfg)
		requireBrute(t, stage, res, r, s)
		if res.Reuse != ReuseDelta {
			t.Fatalf("%s: tier %q, want delta", stage, res.Reuse)
		}
		if hits, dups := requireOwnership(t, stage, &j); hits == 0 || dups == 0 {
			t.Fatalf("%s: %d hits, %d of them another tile's", stage, hits, dups)
		}
	}
}
