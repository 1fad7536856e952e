package partjoin

import (
	"fmt"
	"math"
	"testing"

	"spjoin/internal/geom"
	"spjoin/internal/rtree"
)

// fuzzJoinInput decodes a fuzz payload into two rect sets plus a grid shape
// and worker count. Layout: [nr, grid, workers, mut, rect bytes...] with
// four bytes per rect (mut only steers the fuzz targets' mutation steps) (x, y, w, h on a small integer lattice, so touching
// edges and exact tile-boundary hits are common).
func fuzzJoinInput(data []byte) (r, s []rtree.Item, cfg Config) {
	if len(data) < 4 {
		return nil, nil, Config{Workers: 1}
	}
	nr := int(data[0]) % 24
	cfg.Grid = int(data[1]) % 24
	cfg.Workers = 1 + int(data[2])%4
	data = data[4:]

	var rects []geom.Rect
	for len(data) >= 4 {
		x := float64(data[0] % 32)
		y := float64(data[1] % 32)
		w := float64(data[2] % 8)
		h := float64(data[3] % 8)
		data = data[4:]
		rects = append(rects, geom.NewRect(x, y, x+w, y+h))
	}
	if nr > len(rects) {
		nr = len(rects)
	}
	return items(rects[:nr], 0), items(rects[nr:], 10000), cfg
}

// FuzzPartitionJoin checks the partition engine against the brute-force
// oracle on arbitrary rect sets, grid shapes, and worker counts: the
// candidate set must be exactly the intersecting pairs, with no pair
// reported twice (toSet fails on duplicates). Each input also drives the
// Joiner's reuse cache: an identical re-join (clean tier), then a mutation
// derived from the payload and a third join, which must track the mutated
// inputs whichever tier serves it.
func FuzzPartitionJoin(f *testing.F) {
	f.Add([]byte{2, 4, 1, 0, 0, 0, 4, 4, 1, 1, 4, 4, 3, 3, 2, 2, 8, 8, 1, 1})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{7, 1, 3, 1, 5, 5, 0, 0, 5, 5, 0, 0, 5, 5, 0, 0})
	f.Add([]byte{3, 23, 2, 1, 0, 0, 7, 7, 8, 8, 7, 7, 16, 16, 7, 7, 24, 24, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, s, cfg := fuzzJoinInput(data)
		var j Joiner
		defer j.Close()
		check := func(stage string) {
			t.Helper()
			got := toSet(t, j.Join(r, s, cfg).Candidates)
			want := bruteSet(r, s)
			if len(got) != len(want) {
				t.Fatalf("cfg %+v %s: %d pairs, want %d", cfg, stage, len(got), len(want))
			}
			for k := range want {
				if !got[k] {
					t.Fatalf("cfg %+v %s: missing pair %v", cfg, stage, k)
				}
			}
		}
		check("cold")
		check("rejoin")
		if len(r) > 0 && len(data) >= 4 {
			i := int(data[2]) % len(r)
			switch data[3] % 3 {
			case 0: // grow within the world — may stay in-tile or cross
				r[i].Rect.MaxX += float64(data[0] % 8)
				r[i].Rect.MaxY += float64(data[1] % 8)
			case 1: // move left — typically breaks the sweep order
				r[i].Rect.MinX = -float64(data[0] % 16)
			case 2: // change identity only
				r[i].ID += 777
			}
			check("mutated")
		}
	})
}

// fuzzRefinedInput decodes the split-fuzz payload: the base layout of
// fuzzJoinInput plus a split threshold selector and special-rect
// injection. Byte 1 (grid) doubles as the threshold source so tiny
// explicit thresholds (splitting small tiles down to one event per unit)
// and auto mode both occur; rect bytes with a 0xF? x-coordinate are
// replaced by NaN/EmptyRect/duplicate shapes.
func fuzzRefinedInput(data []byte) (r, s []rtree.Item, cfg Config) {
	r, s, cfg = fuzzJoinInput(data)
	if len(data) < 4 {
		return r, s, cfg
	}
	switch data[1] % 4 {
	case 0:
		cfg.RefineThreshold = 0 // auto
	case 1:
		cfg.RefineThreshold = 1 // split every sweep tile into single events
	case 2:
		cfg.RefineThreshold = 16
	case 3:
		cfg.RefineThreshold = 256
	}
	// Degenerate injections driven by the raw payload: NaN rects, empty
	// rects, and exact duplicates of rect 0 (duplicate-heavy stacks).
	nan := math.NaN()
	for i := range r {
		switch data[(i+1)%len(data)] {
		case 0xF0:
			r[i].Rect = geom.Rect{MinX: nan, MinY: nan, MaxX: nan, MaxY: nan}
		case 0xF1:
			r[i].Rect = geom.EmptyRect()
		case 0xF2:
			if len(r) > 0 {
				r[i].Rect = r[0].Rect
			}
		}
	}
	return r, s, cfg
}

// FuzzPartitionJoinRefined pins the split engine to the brute-force
// oracle AND to the unsplit engine's exact sorted pair sequence,
// comparisons and duplicates, across skewed/degenerate/duplicate-heavy
// inputs and the Joiner reuse tiers after mutations (one changed rect: a
// grown extent, a broken sweep order, an identity change;
// FuzzPartitionJoinMutateSequence drives the rebuild). Both resident
// Joiners see the same inputs in the same order, so they hold the same
// grid. Both results are sorted by the caller so the two engines' outputs
// are comparable element by element.
func FuzzPartitionJoinRefined(f *testing.F) {
	f.Add([]byte{2, 1, 1, 0, 0, 0, 4, 4, 1, 1, 4, 4, 3, 3, 2, 2, 8, 8, 1, 1})
	f.Add([]byte{0, 0, 0, 0})
	// All-in-one-tile stack: identical rects, grid 1, threshold 1.
	f.Add([]byte{7, 1, 3, 1, 5, 5, 0, 0, 5, 5, 0, 0, 5, 5, 0, 0, 5, 5, 0, 0})
	// NaN + empty + duplicate injections (0xF0/0xF1/0xF2 markers).
	f.Add([]byte{9, 1, 2, 1, 0xF0, 0xF1, 0xF2, 3, 1, 1, 4, 4, 2, 2, 8, 8, 6, 6, 1, 1, 9, 9, 2, 2})
	// Boundary lattice: rects touching at multiples of 8.
	f.Add([]byte{6, 2, 2, 1, 0, 0, 8, 8, 8, 8, 8, 8, 16, 16, 8, 8, 0, 8, 8, 8, 8, 0, 8, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, s, cfg := fuzzRefinedInput(data)
		base := cfg
		base.RefineThreshold = RefineDisabled
		var jr, ju Joiner
		defer jr.Close()
		defer ju.Close()
		check := func(stage string) {
			t.Helper()
			res := jr.Join(r, s, cfg)
			got := toSet(t, res.Candidates)
			want := bruteSet(r, s)
			if len(got) != len(want) {
				t.Fatalf("cfg %+v %s: %d pairs, want %d", cfg, stage, len(got), len(want))
			}
			for k := range want {
				if !got[k] {
					t.Fatalf("cfg %+v %s: missing pair %v", cfg, stage, k)
				}
			}
			// Exact pair-sequence and work equality against the unsplit
			// engine.
			whole := ju.Join(r, s, base)
			if res.Comparisons != whole.Comparisons || res.Duplicates != whole.Duplicates {
				t.Fatalf("cfg %+v %s: split %d comparisons, %d duplicates; unsplit %d, %d",
					cfg, stage, res.Comparisons, res.Duplicates, whole.Comparisons, whole.Duplicates)
			}
			seq, ref := sortedCands(res.Candidates), sortedCands(whole.Candidates)
			if len(ref) != len(seq) {
				t.Fatalf("cfg %+v %s: split %d pairs, unsplit %d",
					cfg, stage, len(seq), len(ref))
			}
			for i := range ref {
				if ref[i] != seq[i] {
					t.Fatalf("cfg %+v %s: pair %d differs: split (%d,%d) vs unsplit (%d,%d)",
						cfg, stage, i, seq[i].R, seq[i].S, ref[i].R, ref[i].S)
				}
			}
		}
		check("cold")
		check("rejoin")
		if len(r) > 0 && len(data) >= 4 {
			i := int(data[2]) % len(r)
			switch data[3] % 3 {
			case 0: // grow within the world — may stay in-tile or cross
				r[i].Rect.MaxX += float64(data[0] % 8)
				r[i].Rect.MaxY += float64(data[1] % 8)
			case 1: // move left — typically breaks the sweep order
				r[i].Rect.MinX = -float64(data[0] % 16)
			case 2: // change identity only
				r[i].ID += 777
			}
			check("mutated")
		}
	})
}

// FuzzPartitionJoinMutateSequence is the mutate-then-rejoin axis: one
// resident Joiner, at least eight rounds of one to five mutated rects each
// (both sides, every kind the delta step distinguishes — extent changes,
// moves, points, whole rows, identity, leaving the world, NaN / infinite /
// inverted rects and their way back), every round against brute force. Each
// round is also held against a fresh Joiner's cold build wherever the two
// grids coincide: whichever tier served it, the cache must then be that
// build's, element for element — and, on every round, the segments'
// ownership bits against the reference-point test on every hit.
//
// Payload: the four header bytes of fuzzJoinInput, a rect count, that many
// four-byte rects (fuzzRefinedInput decodes those, threshold selector and
// 0xF? injections included), then four-byte mutation ops read cyclically.
func FuzzPartitionJoinMutateSequence(f *testing.F) {
	f.Add([]byte{2, 4, 1, 0, 5, 0, 0, 4, 4, 1, 1, 4, 4, 3, 3, 2, 2, 8, 8, 1, 1, 20, 20, 3, 3,
		0, 0, 3, 3, 3, 1, 9, 9, 4, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 0})
	// One tile, split everything, sorted: all kinds in order on both sides.
	f.Add([]byte{7, 1, 3, 1, 12, 5, 5, 2, 2, 5, 5, 0, 0, 6, 6, 3, 3, 7, 5, 1, 1, 9, 9, 2, 2, 1, 1, 4, 4,
		12, 3, 2, 2, 3, 12, 4, 4, 20, 20, 1, 1, 8, 8, 8, 8, 30, 2, 1, 1, 2, 30, 1, 1,
		0, 1, 2, 3, 2, 2, 4, 5, 4, 3, 6, 7, 6, 4, 8, 9, 8, 5, 1, 2, 10, 6, 3, 4, 12, 7, 5, 6, 14, 8, 7, 8,
		1, 1, 2, 3, 3, 2, 4, 5, 5, 3, 6, 7, 7, 4, 8, 9, 9, 5, 1, 2, 11, 6, 3, 4, 13, 7, 5, 6, 15, 8, 7, 8})
	// Fine grid, NaN / empty injections in the input, specials and restores.
	f.Add([]byte{9, 23, 2, 0, 10, 0xF0, 0xF1, 0xF2, 3, 1, 1, 4, 4, 2, 2, 8, 8, 6, 6, 1, 1, 9, 9, 2, 2,
		16, 16, 7, 7, 24, 24, 7, 7, 0, 8, 8, 8, 8, 0, 8, 8,
		10, 0, 0, 0, 10, 1, 1, 0, 10, 2, 2, 0, 10, 3, 3, 0, 14, 0, 0, 0, 14, 1, 0, 0, 11, 4, 1, 1, 15, 4, 0, 0})
	// Boundary lattice, coarse grid: moves along tile borders.
	f.Add([]byte{6, 2, 2, 1, 8, 0, 0, 8, 8, 8, 8, 8, 8, 16, 16, 8, 8, 0, 8, 8, 8, 8, 0, 8, 8, 16, 0, 8, 8,
		24, 24, 7, 7, 8, 16, 7, 7, 2, 0, 8, 8, 2, 1, 16, 16, 3, 2, 24, 8, 12, 3, 0, 0, 13, 4, 0, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		n := min(int(data[4])%48, (len(data)-5)/4)
		head := append(append([]byte(nil), data[:4]...), data[5:5+4*n]...)
		r, s, cfg := fuzzRefinedInput(head)
		ops := data[5+4*n:]
		if len(ops) == 0 {
			ops = data
		}
		pos := 0
		next := func() byte { // cyclic, varied on every lap
			b := ops[pos%len(ops)] + byte(7*(pos/len(ops)))
			pos++
			return b
		}
		orig := [2][]rtree.Item{append([]rtree.Item(nil), r...), append([]rtree.Item(nil), s...)}
		nan, inf := math.NaN(), math.Inf(1)
		mutate := func() {
			sel, at, a, b := next(), int(next()), float64(next()), float64(next())
			side := [2][]rtree.Item{r, s}[sel&1]
			if len(side) == 0 {
				return
			}
			it := &side[at%len(side)]
			rc := &it.Rect
			switch (sel >> 1) % 8 {
			case 0: // grow: stays in its tiles or enters new ones
				rc.MaxX += float64(int(a) % 8)
				rc.MaxY += float64(int(b) % 8)
			case 1: // move on the lattice, size kept: the sweep key changes
				w, h := rc.MaxX-rc.MinX, rc.MaxY-rc.MinY
				x, y := float64(int(a)%32), float64(int(b)%32)
				*rc = geom.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}
			case 2: // shrink to its own corner
				rc.MaxX, rc.MaxY = rc.MinX, rc.MinY
			case 3: // identity only
				it.ID += 777
			case 4: // leave the world on either side
				d := 40 + float64(int(a)%64)
				if int(b)&1 != 0 {
					d = -d
				}
				*rc = geom.Rect{MinX: d, MinY: d, MaxX: d + 3, MaxY: d + float64(int(b)%8)}
			case 5: // what the delta step must decline
				switch int(a) % 5 {
				case 0:
					*rc = geom.Rect{MinX: nan, MinY: nan, MaxX: nan, MaxY: nan}
				case 1:
					rc.MaxX = nan
				case 2:
					*rc = geom.EmptyRect()
				case 3:
					*rc = geom.Rect{MinX: -inf, MinY: -inf, MaxX: -inf, MaxY: -inf}
				case 4:
					*rc = geom.Rect{MinX: inf, MinY: inf, MaxX: inf, MaxY: inf}
				}
			case 6: // a whole row of the world
				y := float64(int(b) % 32)
				*rc = geom.Rect{MinX: 0, MinY: y, MaxX: 39, MaxY: y + float64(int(a)%4)}
			case 7: // back to what it was
				*it = orig[sel&1][at%len(side)]
			}
		}
		var j Joiner
		defer j.Close()
		check := func(stage string) {
			t.Helper()
			res := j.Join(r, s, cfg)
			requireBrute(t, fmt.Sprintf("cfg %+v %s", cfg, stage), res, r, s)
			if len(r) == 0 || len(s) == 0 {
				return
			}
			if diff, comparable := freshStateDiff(&j, r, s, cfg); comparable && diff != "" {
				t.Fatalf("cfg %+v %s (%s): %s", cfg, stage, res.Reuse, diff)
			}
			requireOwnership(t, fmt.Sprintf("cfg %+v %s (%s)", cfg, stage, res.Reuse), &j)
		}
		check("cold")
		for round := 0; round < 8+int(data[0])%5; round++ {
			for k := 1 + int(next())%5; k > 0; k-- {
				mutate()
			}
			check(fmt.Sprintf("round %d", round))
		}
	})
}
