package partjoin

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"spjoin/internal/geom"
	"spjoin/internal/join"
	"spjoin/internal/rtree"
	"spjoin/internal/tiger"
	"spjoin/internal/timeline"
)

// requireBrute fails unless res holds exactly the brute-force pair set of
// (r, s), each pair once.
func requireBrute(t testing.TB, stage string, res Result, r, s []rtree.Item) {
	t.Helper()
	got := toSet(t, res.Candidates)
	want := bruteSet(r, s)
	if len(got) != len(want) {
		t.Fatalf("%s (%s): %d pairs, want %d", stage, res.Reuse, len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("%s (%s): missing pair %v", stage, res.Reuse, k)
		}
	}
}

func sameFloats(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	})
}

// requireFreshState is the white-box exactness check of the delta tier: the
// resident Joiner's sweep orders, segment boundaries, segment indices,
// segment planes, ID planes and ownership bits must be element for element
// what a fresh Joiner's cold build over the same items leaves. It presumes the mutations left the data
// MBR alone (a cold build derives its grid from it) and fails if not.
func requireFreshState(t testing.TB, stage string, j *Joiner, r, s []rtree.Item, cfg Config) {
	t.Helper()
	diff, comparable := freshStateDiff(j, r, s, cfg)
	if !comparable {
		t.Fatalf("%s: grid geometry differs from a fresh build — the mutation moved the data MBR", stage)
	}
	if diff != "" {
		t.Fatalf("%s: %s", stage, diff)
	}
}

// freshStateDiff compares j's cache with a fresh Joiner's cold build over
// the same items and names the first structure that differs. comparable is
// false when the two grids differ (j's geometry is frozen at its last full
// build). Where both schedules were built under the same trigger, j's work
// units and their costs must be the fresh build's with every split tile cut
// into j's part count — a split tile's part count drifts with its cost and
// stays frozen between schedule builds, as an auto trigger does with the
// cost total (then the schedules are not compared at all).
func freshStateDiff(j *Joiner, r, s []rtree.Item, cfg Config) (diff string, comparable bool) {
	var f Joiner
	defer f.Close()
	f.Join(r, s, cfg)
	diff, comparable, _ = stateDiff(j, &f)
	return diff, comparable
}

// stateDiff is freshStateDiff against a given Joiner f; sched reports
// whether the schedules were compared and are the same, part counts
// included.
func stateDiff(j, f *Joiner) (diff string, comparable, sched bool) {
	if j.gx != f.gx || j.minX != f.minX || j.minY != f.minY || j.invW != f.invW || j.invH != f.invH {
		return "", false, false
	}
	sides := []struct {
		name     string
		ord, fo  []int32
		got, ref *gridSide
	}{
		{"R", j.rOrd, f.rOrd, &j.rPart, &f.rPart},
		{"S", j.sOrd, f.sOrd, &j.sPart, &f.sPart},
	}
	for _, sd := range sides {
		gp, fp := &sd.got.planes, &sd.ref.planes
		switch {
		case !slices.Equal(sd.ord, sd.fo):
			return sd.name + " sweep order differs from a fresh build", true, false
		case !slices.Equal(sd.got.starts, sd.ref.starts):
			return sd.name + " starts differ from a fresh build", true, false
		case !slices.Equal(sd.got.idx, sd.ref.idx):
			return sd.name + " idx differs from a fresh build", true, false
		case !slices.Equal(sd.got.ids, sd.ref.ids):
			return sd.name + " ID plane differs from a fresh build", true, false
		case !slices.Equal(sd.got.own, sd.ref.own):
			return sd.name + " ownership bits differ from a fresh build", true, false
		case !sameFloats(gp.MinX, fp.MinX) || !sameFloats(gp.MinY, fp.MinY) ||
			!sameFloats(gp.MaxX, fp.MaxX) || !sameFloats(gp.MaxY, fp.MaxY):
			return sd.name + " segment planes differ from a fresh build", true, false
		}
	}
	if j.trigger != f.trigger {
		return "", true, false
	}
	parts := splitTiles(j.units)
	want := Joiner{}
	for i, t := range f.tiles {
		p := max(parts[t], 1)
		for k := int32(0); k < p; k++ {
			want.units = append(want.units, workUnit{tile: t, part: k, parts: p})
			want.ucost = append(want.ucost, partCost(f.cost[i], k, p))
		}
	}
	sort.Sort(&tileOrder{&want})
	if !slices.Equal(j.units, want.units) || !slices.Equal(j.ucost, want.ucost) {
		return "work-unit schedule differs from a fresh build's cut into the frozen part counts", true, false
	}
	return "", true, maps.Equal(parts, splitTiles(f.units))
}

// splitTiles maps every split tile of a schedule to its part count.
func splitTiles(units []workUnit) map[int32]int32 {
	out := map[int32]int32{}
	for _, u := range units {
		if u.parts > 1 {
			out[u.tile] = u.parts
		}
	}
	return out
}

// tileCosts returns every tile's estimated sweep cost in j's current
// segments.
func tileCosts(j *Joiner) []int64 {
	out := make([]int64, j.gx*j.gy)
	for t := range out {
		out[t] = unitCost(int64(j.rPart.starts[t+1]-j.rPart.starts[t]),
			int64(j.sPart.starts[t+1]-j.sPart.starts[t]))
	}
	return out
}

// crossedTrigger reports whether some tile's cost lies on the other side of
// j's frozen trigger after a change than before it — the one change the
// delta step answers with a schedule rebuild.
func crossedTrigger(j *Joiner, before, after []int64) bool {
	for t := range before {
		if j.isHot(before[t]) != j.isHot(after[t]) {
			return true
		}
	}
	return false
}

// deltaWorld is the side of the square the delta tests' inputs span: two
// anchor rects per side pin the data MBR to [0, deltaWorld]², so with
// Grid 5 every tile is 22 units wide and mutations inside the square leave
// the grid geometry alone.
const deltaWorld = 110

func deltaInputs(seed int64, n int) (r, s []rtree.Item) {
	rng := rand.New(rand.NewSource(seed))
	anchors := []geom.Rect{geom.NewRect(0, 0, 0.1, 0.1),
		geom.NewRect(deltaWorld-0.1, deltaWorld-0.1, deltaWorld, deltaWorld)}
	r = items(append(randomRects(rng, n, 100, 5), anchors...), 0)
	s = items(append(randomRects(rng, n, 100, 5), anchors...), 100000)
	return r, s
}

// deltaMut changes one item: a non-nil rect replaces the rectangle, a
// non-zero id is added to the ID.
type deltaMut struct {
	side int // 0 = R, 1 = S
	idx  int
	rect *geom.Rect
	id   rtree.EntryID
}

type deltaStep struct {
	name      string
	muts      []deltaMut
	want      Reuse
	skipFresh bool // the step moves the data MBR: no fresh-build check
}

func at(side, idx int, x0, y0, x1, y1 float64) deltaMut {
	rc := geom.Rect{MinX: x0, MinY: y0, MaxX: x1, MaxY: y1}
	return deltaMut{side: side, idx: idx, rect: &rc}
}

// TestDeltaCases drives one resident Joiner per scenario through every case
// of the delta step, each join against brute force, the expected tier and —
// where the data MBR holds — the fresh-build state. With sorted set the
// caller orders every result view in place before checking it, as a caller
// wanting deterministic output does: the Joiner must not depend on what its
// previous result view holds.
func TestDeltaCases(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	manyR := func(n int) []deltaMut {
		out := make([]deltaMut, n)
		for k := range out {
			out[k] = deltaMut{side: k % 2, idx: 50 + k, id: 1000}
		}
		return out
	}
	scenarios := []struct {
		name  string
		steps []deltaStep
	}{
		{"in-tile", []deltaStep{
			{"place in tile (1,1)", []deltaMut{at(0, 10, 30, 30, 33, 33)}, ReuseDelta, false},
			{"same key, new extent", []deltaMut{at(0, 10, 30, 30, 35, 36)}, ReuseDelta, false},
			{"key change inside the tile", []deltaMut{at(0, 10, 31, 29, 35, 36)}, ReuseDelta, false},
			{"onto the origin", []deltaMut{at(0, 12, 0, 0, 1, 1)}, ReuseDelta, false},
			{"sign of zero only", []deltaMut{at(0, 12, math.Copysign(0, -1), 0, 1, 1)}, ReuseDelta, false},
			{"unchanged", nil, ReuseClean, false},
		}},
		{"range", []deltaStep{
			{"1 tile", []deltaMut{at(1, 7, 30, 30, 33, 33)}, ReuseDelta, false},
			{"grows to 4 tiles", []deltaMut{at(1, 7, 30, 30, 50, 50)}, ReuseDelta, false},
			{"grows to a whole row", []deltaMut{at(1, 7, 1, 30, 109, 33)}, ReuseDelta, false},
			{"shrinks to 4 tiles", []deltaMut{at(1, 7, 40, 30, 50, 50)}, ReuseDelta, false},
			{"shrinks to 1 tile", []deltaMut{at(1, 7, 90, 90, 91, 91)}, ReuseDelta, false},
			{"whole grid", []deltaMut{at(1, 7, 1, 1, 109, 109)}, ReuseDelta, false},
			{"back to 1 tile", []deltaMut{at(1, 7, 3, 3, 4, 4)}, ReuseDelta, false},
		}},
		{"order", []deltaStep{
			{"to the right edge", []deltaMut{at(0, 20, 100, 50, 103, 53)}, ReuseDelta, false},
			{"to the left edge", []deltaMut{at(0, 20, 2, 50, 5, 53)}, ReuseDelta, false},
			{"first in order", []deltaMut{at(0, 21, 0, 0, 1, 1)}, ReuseDelta, false},
			{"last in order", []deltaMut{at(0, 21, 109.95, 109, 110, 110)}, ReuseDelta, false},
			{"both sides at once", []deltaMut{at(0, 22, 80, 10, 83, 12), at(1, 22, 5, 80, 30, 85), at(1, 23, 60, 60, 61, 61)}, ReuseDelta, false},
		}},
		{"outside the frozen MBR", []deltaStep{
			{"past the max corner", []deltaMut{at(0, 30, 150, 150, 160, 160)}, ReuseDelta, true},
			{"straddling the max edge", []deltaMut{at(0, 31, 100, 20, 400, 25)}, ReuseDelta, true},
			{"past the min corner", []deltaMut{at(0, 30, -50, -50, -40, -40)}, ReuseDelta, true},
			{"back inside", []deltaMut{at(0, 30, 10, 10, 12, 12), at(0, 31, 20, 20, 21, 21)}, ReuseDelta, false},
			{"beyond conversion range", []deltaMut{at(0, 30, 1e300, 1, 1e301, 2)}, ReuseRebuild, true},
		}},
		{"identity", []deltaStep{
			{"id only", []deltaMut{{side: 0, idx: 5, id: 777}}, ReuseDelta, false},
			{"id and rect", []deltaMut{{side: 1, idx: 5, id: 777, rect: at(1, 5, 70, 70, 72, 72).rect}}, ReuseDelta, false},
		}},
		{"capacity", []deltaStep{
			{"deltaMax changes", manyR(deltaMax), ReuseDelta, false},
			{"deltaMax+1 changes", manyR(deltaMax + 1), ReuseRebuild, false},
			{"delta after the rebuild", []deltaMut{at(0, 3, 44, 44, 45, 45)}, ReuseDelta, false},
		}},
		{"non-finite", []deltaStep{
			{"new rect NaN", []deltaMut{at(0, 40, nan, nan, nan, nan)}, ReuseRebuild, false},
			{"old rect NaN", []deltaMut{at(0, 40, 50, 50, 51, 51)}, ReuseRebuild, false},
			{"new rect inverted and infinite", []deltaMut{{side: 1, idx: 41, rect: ptr(geom.EmptyRect())}}, ReuseRebuild, false},
			{"old rect inverted and infinite", []deltaMut{at(1, 41, 50, 50, 51, 51)}, ReuseRebuild, false},
			{"new rect at -Inf", []deltaMut{at(0, 42, -inf, -inf, -inf, -inf)}, ReuseRebuild, true},
			{"old rect at -Inf", []deltaMut{at(0, 42, 9, 9, 10, 10)}, ReuseRebuild, false},
			{"finite again", []deltaMut{at(0, 42, 9, 9, 10, 11)}, ReuseDelta, false},
			{"a rect with a NaN edge stays in the input", []deltaMut{at(0, 43, 5, 5, nan, 6)}, ReuseRebuild, false},
			{"unchanged beside it", nil, ReuseClean, false},
			{"finite change beside it", []deltaMut{at(0, 44, 1, 1, 2, 2)}, ReuseDelta, false},
			{"its ID changes", []deltaMut{{side: 0, idx: 43, id: 5}}, ReuseDelta, false},
		}},
	}
	for _, workers := range []int{1, 2, 3} {
		for _, sorted := range []bool{false, true} {
			for _, sc := range scenarios {
				t.Run(fmt.Sprintf("%s/w%d/sorted=%v", sc.name, workers, sorted), func(t *testing.T) {
					r, s := deltaInputs(71, 400)
					cfg := Config{Workers: workers, Grid: 5}
					var j Joiner
					defer j.Close()
					if res := j.Join(r, s, cfg); res.Reuse != ReuseCold {
						t.Fatalf("first join reports %q, want cold", res.Reuse)
					}
					for _, st := range sc.steps {
						for _, m := range st.muts {
							side := r
							if m.side == 1 {
								side = s
							}
							if m.rect != nil {
								side[m.idx].Rect = *m.rect
							}
							side[m.idx].ID += m.id
						}
						res := j.Join(r, s, cfg)
						if sorted {
							join.SortCandidates(res.Candidates)
							if !slices.IsSortedFunc(res.Candidates, compareCands) {
								t.Fatalf("%s: result view not in (R, S) order after sorting", st.name)
							}
						}
						requireBrute(t, st.name, res, r, s)
						if res.Reuse != st.want {
							t.Fatalf("%s: tier %q, want %q", st.name, res.Reuse, st.want)
						}
						wantRects := 0
						if res.Reuse == ReuseDelta {
							wantRects = len(st.muts)
						}
						if res.DeltaRects != wantRects {
							t.Fatalf("%s: DeltaRects = %d, want %d", st.name, res.DeltaRects, wantRects)
						}
						if !st.skipFresh {
							requireFreshState(t, st.name, &j, r, s, cfg)
						}
					}
				})
			}
		}
	}
}

func ptr[T any](v T) *T { return &v }

// TestDeltaIdentityOnly pins the identity bugfix: an ID-only change is
// served by the delta tier as one patched rect, does exactly the clean
// tier's work, and the emitted pairs carry the new ID.
func TestDeltaIdentityOnly(t *testing.T) {
	r, s := clusteredItems(2000, 5, 13)
	cfg := Config{Workers: 2, RefineThreshold: 0}
	var j Joiner
	defer j.Close()
	j.Join(r, s, cfg)
	clean := j.Join(r, s, cfg)
	if clean.Reuse != ReuseClean {
		t.Fatalf("unchanged re-join reports %q", clean.Reuse)
	}
	// A rect that has partners, so its new ID must show up in the output.
	pick := -1
	for i := range r {
		for k := range s {
			if r[i].Rect.Intersects(s[k].Rect) {
				pick = i
				break
			}
		}
		if pick >= 0 {
			break
		}
	}
	r[pick].ID += 777
	res := j.Join(r, s, cfg)
	requireBrute(t, "id-only", res, r, s)
	if res.Reuse != ReuseDelta || res.DeltaRects != 1 {
		t.Fatalf("id-only change: tier %q with %d rects, want delta with 1", res.Reuse, res.DeltaRects)
	}
	if res.Comparisons != clean.Comparisons || res.Partitions != clean.Partitions ||
		res.Subtiles != clean.Subtiles || res.RefinedTiles != clean.RefinedTiles {
		t.Fatalf("id-only change did other work than the clean tier: %d/%d/%d/%d vs %d/%d/%d/%d",
			res.Comparisons, res.Partitions, res.Subtiles, res.RefinedTiles,
			clean.Comparisons, clean.Partitions, clean.Subtiles, clean.RefinedTiles)
	}
	seen := false
	for _, c := range res.Candidates {
		seen = seen || c.R == r[pick].ID
	}
	if !seen {
		t.Fatal("no emitted pair carries the new ID")
	}
}

// TestDeltaOwnershipAndIDs covers the delta step's upkeep of the ID plane
// and the ownership bits, each change against brute force and a fresh
// build's state: a rect that grows left into the previous tile column keeps
// its slot in its old tile but loses ownX there; one that grows up into the
// next row keeps its sweep key and loses ownY in its old tile; and an
// ID-only change of a multi-tile rect rewrites its ID at every position
// that holds it.
func TestDeltaOwnershipAndIDs(t *testing.T) {
	for _, workers := range []int{1, 2} {
		r, s := deltaInputs(79, 400)
		cfg := Config{Workers: workers, Grid: 5}
		var j Joiner
		j.Join(r, s, cfg)
		tw, th := 1/j.invW, 1/j.invH
		// pick returns, in a tile off the first column and the last row, the
		// slot of the first R rect that starts in the tile's column, when
		// that rect lies in the tile alone and can grow left across the
		// column border while staying behind the entry before it (which
		// starts further left): low is that entry's MinX, or half a tile
		// left of the border.
		pick := func() (tile, slot int, low float64) {
			for tile := 0; tile < j.gx*j.gy; tile++ {
				tx, ty := tile%j.gx, tile/j.gx
				if tx == 0 || ty == j.gy-1 {
					continue
				}
				border := j.minX + float64(tx)*tw
				low := border - tw/2
				for p := j.rPart.starts[tile]; p < j.rPart.starts[tile+1]; p++ {
					rc := r[j.rPart.idx[p]].Rect
					x0, y0 := j.tileOf(rc.MinX, rc.MinY)
					if x0 < tx {
						low = max(low, rc.MinX)
						continue
					}
					x1, y1 := j.tileOf(rc.MaxX, rc.MaxY)
					if x1 == tx && y0 == ty && y1 == ty && border-low > tw/100 {
						return tile, int(p - j.rPart.starts[tile]), low
					}
					break
				}
			}
			t.Fatal("test premise broken: no rect qualifies")
			return 0, 0, 0
		}
		slotIdx := func(tile, slot int) *int32 { return &j.rPart.idx[int(j.rPart.starts[tile])+slot] }
		step := func(stage string, i int32, tile, slot int, wantOwn uint8) {
			t.Helper()
			stage = fmt.Sprintf("w%d %s", workers, stage)
			res := j.Join(r, s, cfg)
			requireBrute(t, stage, res, r, s)
			if res.Reuse != ReuseDelta || res.DeltaRects != 1 {
				t.Fatalf("%s: tier %q with %d rects, want delta with 1", stage, res.Reuse, res.DeltaRects)
			}
			requireFreshState(t, stage, &j, r, s, cfg)
			requireOwnership(t, stage, &j)
			if *slotIdx(tile, slot) != i {
				t.Fatalf("%s: the rect left its slot in tile %d", stage, tile)
			}
			if got := j.rPart.own[int(j.rPart.starts[tile])+slot]; got != wantOwn {
				t.Fatalf("%s: ownership bits %02b in its old tile, want %02b", stage, got, wantOwn)
			}
		}

		tile, slot, low := pick()
		i := *slotIdx(tile, slot)
		r[i].Rect.MinX = (low + j.minX + float64(tile%j.gx)*tw) / 2
		step("grows left into the previous column", i, tile, slot, ownY)
		grown := i

		tile, slot, _ = pick()
		i = *slotIdx(tile, slot)
		r[i].Rect.MaxY = j.minY + float64(tile/j.gx+1)*th + th/4
		step("grows up into the next row", i, tile, slot, ownX)

		// Only the ID of the rect grown left, now in two tiles, changes.
		if n := len(slices.DeleteFunc(slices.Clone(j.rPart.idx), func(k int32) bool { return k != grown })); n != 2 {
			t.Fatalf("w%d: test premise broken: rect %d is in %d tiles", workers, grown, n)
		}
		r[grown].ID += 5000
		res := j.Join(r, s, cfg)
		stage := fmt.Sprintf("w%d ID-only change of a multi-tile rect", workers)
		requireBrute(t, stage, res, r, s)
		if res.Reuse != ReuseDelta || res.DeltaRects != 1 {
			t.Fatalf("%s: tier %q with %d rects, want delta with 1", stage, res.Reuse, res.DeltaRects)
		}
		if diff, comparable := freshStateDiff(&j, r, s, cfg); !comparable || diff != "" {
			t.Fatalf("%s: comparable %v, %s", stage, comparable, diff)
		}
		j.Close()
	}
}

// TestDeltaRefinedTiles covers the schedule half of the delta step on a
// clustered input with an explicit threshold (so a fresh build resolves the
// same trigger and the schedules are comparable unit for unit): a change in
// a cold tile re-costs its unit in place, a change inside, into or out of a
// split tile edits its segments and re-costs its units — all without a
// schedule rebuild — and only a tile pushed across the trigger rebuilds it.
func TestDeltaRefinedTiles(t *testing.T) {
	r, s := clusteredItems(3000, 5, 21)
	var j Joiner
	defer j.Close()
	base := Config{Workers: 3, Grid: 8}
	j.Join(r, s, base)

	// Pick the threshold between the tile costs so that some tiles split
	// and one sits exactly on it (cost == threshold is not hot).
	tiles := j.gx * j.gy
	count := func(g *gridSide, t int) int { return int(g.starts[t+1] - g.starts[t]) }
	cost := func(t int) int64 {
		return unitCost(int64(count(&j.rPart, t)), int64(count(&j.sPart, t)))
	}
	var costs []int64
	for t := 0; t < tiles; t++ {
		if c := cost(t); c > 0 {
			costs = append(costs, c)
		}
	}
	slices.Sort(costs)
	thr := costs[len(costs)/2]
	mbr := geom.EmptyRect()
	for _, side := range [2][]rtree.Item{r, s} {
		for i := range side {
			mbr = mbr.Union(side[i].Rect)
		}
	}
	// movable returns a rect of the side assigned to tile t and nothing else
	// that does not touch the data MBR (moving it leaves the grid geometry
	// alone), or -1.
	movable := func(side, t int) int {
		g, items := &j.rPart, r
		if side == 1 {
			g, items = &j.sPart, s
		}
		for p := g.starts[t]; p < g.starts[t+1]; p++ {
			rc := items[g.idx[p]].Rect
			x0, y0 := j.tileOf(rc.MinX, rc.MinY)
			x1, y1 := j.tileOf(rc.MaxX, rc.MaxY)
			if x0 == x1 && y0 == y1 && rc.MinX > mbr.MinX && rc.MinY > mbr.MinY &&
				rc.MaxX < mbr.MaxX && rc.MaxY < mbr.MaxY {
				return int(g.idx[p])
			}
		}
		return -1
	}
	// edge sits exactly on the threshold (not hot), src and dst are cold
	// tiles that stay cold and non-empty when one rect moves between them,
	// hot is the costliest tile.
	edge, src, dst, hot := -1, -1, -1, 0
	for t := 0; t < tiles; t++ {
		c := cost(t)
		switch {
		case c == thr && edge < 0:
			edge = t
		case c > 0 && c < thr/2 && count(&j.rPart, t) >= 3 && src < 0 && movable(0, t) >= 0:
			src = t
		case c > 0 && c < thr/2 && dst < 0:
			dst = t
		}
		if c > cost(hot) {
			hot = t
		}
	}
	if edge < 0 || src < 0 || dst < 0 || movable(0, hot) < 0 || movable(1, hot) < 0 {
		t.Fatalf("test premise broken: edge %d src %d dst %d hot %d (thr %d)", edge, src, dst, hot, thr)
	}
	cfg := base
	cfg.RefineThreshold = thr
	first := j.Join(r, s, cfg)
	if first.Reuse != ReuseClean || first.RefinedTiles == 0 {
		t.Fatalf("threshold change: tier %q, %d split tiles", first.Reuse, first.RefinedTiles)
	}
	if parts, _ := j.tileParts(int32(hot)); parts < 2 {
		t.Fatalf("test premise broken: the costliest tile %d was not split", hot)
	}

	// centre returns a small rect in the middle of tile t.
	centre := func(t int) geom.Rect {
		w, h := 1/j.invW, 1/j.invH
		x := j.minX + (float64(t%j.gx)+0.5)*w
		y := j.minY + (float64(t/j.gx)+0.5)*h
		return geom.NewRect(x, y, x+w/100, y+h/100)
	}
	// The fast path touches the refine bucket only when it rebuilds the
	// schedule, so an empty bucket means the schedule was patched in place.
	// Every step is a delta that keeps the schedule exactly when no tile
	// crosses the trigger, and leaves a fresh build's state, the schedule
	// included wherever the split tiles kept their part counts.
	var compared int
	step := func(stage string, wantKept bool) {
		t.Helper()
		before := tileCosts(&j)
		res := j.Join(r, s, cfg)
		requireBrute(t, stage, res, r, s)
		if res.Reuse != ReuseDelta {
			t.Fatalf("%s: tier %q, want delta", stage, res.Reuse)
		}
		kept := res.PhaseNS[timeline.PhaseRefine] == 0
		if crossed := crossedTrigger(&j, before, tileCosts(&j)); kept != !crossed || kept != wantKept {
			t.Fatalf("%s: schedule kept = %v with a tile crossing the trigger = %v, want kept = %v",
				stage, kept, crossed, wantKept)
		}
		if !requireFreshJoin(t, stage, &j, res, r, s, cfg) {
			return
		}
		compared++
	}
	// Cold tile → another cold tile: two units re-costed in place.
	r[movable(0, src)].Rect = centre(dst)
	step("cold to cold", true)
	// Inside a split tile, both sides: same key with a new extent, a new
	// key, then grown over most of the tile.
	for side, items := range [2][]rtree.Item{r, s} {
		i := movable(side, hot)
		rc := &items[i].Rect
		rc.MaxX -= (rc.MaxX - rc.MinX) / 2
		step(fmt.Sprintf("side %d: new extent inside a hot tile", side), true)
		w, h := rc.MaxX-rc.MinX, rc.MaxY-rc.MinY
		*rc = centre(hot)
		rc.MaxX, rc.MaxY = rc.MinX+w, rc.MinY+h
		step(fmt.Sprintf("side %d: new key inside a hot tile", side), true)
		tw, th := 1/j.invW, 1/j.invH
		*rc = geom.NewRect(rc.MinX-0.4*tw, rc.MinY-0.4*th, rc.MinX+0.4*tw, rc.MinY+0.4*th)
		step(fmt.Sprintf("side %d: grown over a hot tile", side), true)
	}
	// Out of the split tile into a cold one, and a cold tile's rect into it.
	r[movable(0, hot)].Rect = centre(dst)
	step("hot to cold", true)
	r[movable(0, src)].Rect = centre(hot)
	step("cold to hot", true)
	// Onto the edge tile: its cost crosses the trigger.
	r[movable(0, src)].Rect = centre(edge)
	step("across the trigger", false)
	if compared == 0 {
		t.Fatal("no step's schedule was comparable with a fresh build's")
	}
}

// TestDeltaTileEntersSchedule: a tile that gains its first rect of a side
// enters the work-unit schedule and one that loses its last leaves it, both
// without a schedule rebuild.
func TestDeltaTileEntersSchedule(t *testing.T) {
	_, s := deltaInputs(75, 400)
	// R holds the two anchors, two rects sharing tile (1,1) of the 5×5 grid
	// and a stack in tile (0,4), so that its layout has tail headroom.
	rects := []geom.Rect{
		geom.NewRect(0, 0, 0.1, 0.1), geom.NewRect(deltaWorld-0.1, deltaWorld-0.1, deltaWorld, deltaWorld),
		geom.NewRect(30, 30, 33, 33), geom.NewRect(35, 35, 38, 38),
	}
	for k := 0; k < 20; k++ {
		rects = append(rects, geom.NewRect(5, 95, 6+float64(k)/4, 96))
	}
	r := items(rects, 0)
	cfg := Config{Workers: 2, Grid: 5, RefineThreshold: 1 << 40}
	var j Joiner
	defer j.Close()
	units := j.Join(r, s, cfg).Partitions
	for _, st := range []struct {
		name  string
		mut   deltaMut
		units int
	}{
		{"first R rect of tile (3,3)", at(0, 2, 74, 74, 77, 77), units + 1},
		{"over four tiles, two of them new", at(0, 2, 60, 60, 77, 77), units + 4},
		{"last R rect out of tile (1,1)", at(0, 3, 75, 75, 76, 76), units + 3},
		{"all back", at(0, 2, 30, 30, 33, 33), units},
	} {
		r[st.mut.idx].Rect = *st.mut.rect
		if st.name == "all back" {
			r[3].Rect = geom.NewRect(35, 35, 38, 38)
		}
		res := j.Join(r, s, cfg)
		requireBrute(t, st.name, res, r, s)
		if res.Reuse != ReuseDelta || res.PhaseNS[timeline.PhaseRefine] != 0 {
			t.Fatalf("%s: tier %q, %d ns in the refine bucket; want delta and a kept schedule",
				st.name, res.Reuse, res.PhaseNS[timeline.PhaseRefine])
		}
		if res.Partitions != st.units {
			t.Fatalf("%s: %d work units, want %d", st.name, res.Partitions, st.units)
		}
		requireFreshState(t, st.name, &j, r, s, cfg)
	}
}

// TestJoinerDeltaZeroAlloc pins the delta tier's allocation contract: once
// the resident buffers have seen every state, a re-join that patches one to
// three changed rects of any kind allocates nothing — also when every tile
// is refined and the changes go down the refinement subtrees.
func TestJoinerDeltaZeroAlloc(t *testing.T) {
	for _, cfg := range []Config{
		{Workers: 1, Grid: 5},
		{Workers: 2, Grid: 5, RefineThreshold: RefineDisabled},
		{Workers: 2, Grid: 5, RefineThreshold: 100},
	} {
		r, s := deltaInputs(73, 500)
		var j Joiner
		states := [][]deltaMut{
			{at(0, 10, 30, 30, 35, 36)},                               // in tile
			{at(0, 10, 30, 30, 50, 50), at(1, 11, 1, 60, 109, 62)},    // ranges grow
			{at(0, 10, 100, 5, 101, 6), at(1, 11, 2, 2, 3, 3)},        // reorder, ranges shrink
			{at(0, 12, 150, 150, 160, 160), {side: 1, idx: 3, id: 9}}, // clamp, identity
			{at(0, 12, 40, 40, 41, 41), at(0, 10, 30, 30, 33, 33), at(1, 11, 70, 70, 71, 71)},
		}
		k := 0
		rejoin := func() {
			for _, m := range states[k%len(states)] {
				side := r
				if m.side == 1 {
					side = s
				}
				if m.rect != nil {
					side[m.idx].Rect = *m.rect
				}
				side[m.idx].ID += m.id
			}
			k++
			if res := j.Join(r, s, cfg); res.Reuse != ReuseDelta {
				t.Errorf("cfg %+v state %d: tier %q, want delta", cfg, k, res.Reuse)
			}
		}
		j.Join(r, s, cfg)
		for k < 2*len(states) { // warm every state's buffers
			rejoin()
		}
		allocs := testing.AllocsPerRun(4*len(states), rejoin)
		requireBrute(t, "after the alloc runs", j.Join(r, s, cfg), r, s)
		j.Close()
		if allocs != 0 {
			t.Errorf("cfg %+v: %.2f allocs per delta re-join, want 0", cfg, allocs)
		}
	}
}

// TestTigerRejoinCycleTiers is the acceptance check on the benchmark's
// workload shape: over tiger.Maps, whose costliest tiles the auto trigger
// splits, all five re-joins of a tiger_rejoin cycle — restored (three rects
// put back), clean, in-tile growth, cross-tile move, order-breaking move
// (tiger.RejoinMutations) — are served by the clean or the delta tier
// without a schedule rebuild, and after every delta the cache equals a
// fresh build's.
func TestTigerRejoinCycleTiers(t *testing.T) {
	r, s := tiger.Maps(0.05, 7)
	for _, workers := range []int{1, 2, 3} {
		cfg := Config{Workers: workers}
		var j Joiner
		cold := j.Join(r, s, cfg)
		if cold.RefinedTiles == 0 {
			t.Fatalf("workers %d: test premise broken: no tile split", workers)
		}
		muts, ok := tiger.RejoinMutations(r, s, cold.GX)
		if !ok {
			t.Fatal("no rect qualifies for one of the mutations")
		}
		var orig [3]geom.Rect
		for k, m := range muts {
			orig[k] = r[m.Idx].Rect
		}
		for cycle := 0; cycle < 2; cycle++ {
			for step := 0; step < 5; step++ {
				if step >= 2 {
					r[muts[step-2].Idx].Rect = muts[step-2].Next
				}
				want := ReuseDelta
				if step == 1 || (cycle == 0 && step == 0) { // nothing to restore in the first cycle
					want = ReuseClean
				}
				res := j.Join(r, s, cfg)
				stage := fmt.Sprintf("workers %d cycle %d step %d", workers, cycle, step)
				if res.Reuse != want || res.PhaseNS[timeline.PhaseRefine] != 0 {
					t.Fatalf("%s: tier %q with %d ns of schedule rebuild, want %q and none",
						stage, res.Reuse, res.PhaseNS[timeline.PhaseRefine], want)
				}
				if res.Reuse == ReuseDelta {
					requireFreshState(t, stage, &j, r, s, cfg)
				}
			}
			for k, m := range muts {
				r[m.Idx].Rect = orig[k]
			}
		}
		requireBrute(t, "after two cycles", j.Join(r, s, cfg), r, s)
		j.Close()
	}
}

// TestTigerHotTileChangeKeepsSchedule: on tiger.Maps under the auto
// threshold, a rect of the costliest — split — tile grows inside it and
// shrinks back (tiger.HotTileGrowth); both re-joins are deltas that edit the
// tile's segments, re-cost its units in place and leave the schedule
// standing, and the cache equals a fresh build's, the schedule included
// whenever the tile kept its part count — which it must at least once.
func TestTigerHotTileChangeKeepsSchedule(t *testing.T) {
	r, s := tiger.Maps(0.05, 7)
	for _, workers := range []int{1, 2, 3} {
		cfg := Config{Workers: workers}
		var j Joiner
		mut, ok := tiger.HotTileGrowth(r, s, j.Join(r, s, cfg).GX)
		if !ok {
			t.Fatal("no rect of the costliest tile can grow inside it")
		}
		base := r[mut.Idx].Rect
		tx, ty := j.tileOf(base.MinX, base.MinY)
		if parts, _ := j.tileParts(int32(ty*j.gx + tx)); parts < 2 {
			t.Fatalf("workers %d: test premise broken: tile (%d,%d) is not split", workers, tx, ty)
		}
		trigger := j.trigger
		compared := 0
		for step, rc := range []geom.Rect{mut.Next, base, mut.Next, base} {
			r[mut.Idx].Rect = rc
			res := j.Join(r, s, cfg)
			stage := fmt.Sprintf("workers %d step %d", workers, step)
			if res.Reuse != ReuseDelta || res.DeltaRects != 1 || res.PhaseNS[timeline.PhaseRefine] != 0 {
				t.Fatalf("%s: tier %q, %d rects, %d ns of schedule rebuild; want delta, 1 and none",
					stage, res.Reuse, res.DeltaRects, res.PhaseNS[timeline.PhaseRefine])
			}
			if requireFreshJoin(t, stage, &j, res, r, s, Config{Workers: workers, RefineThreshold: trigger}) {
				compared++
			}
		}
		if compared == 0 {
			t.Fatalf("workers %d: no step's schedule was comparable with a fresh build's", workers)
		}
		if j.trigger != trigger {
			t.Fatalf("workers %d: the trigger moved from %d to %d", workers, trigger, j.trigger)
		}
		requireBrute(t, "after the steps", j.Join(r, s, cfg), r, s)
		j.Close()
	}
}

// TestDeltaRefinedRandomWalk drives a resident Joiner over a clustered input
// — several split tiles — through rounds of one to three random moves on
// either side, each rect landing beside another rect of its side (so the
// clusters, and the split tiles, keep taking the changes). Every round is
// checked against brute force and, while the data MBR holds, against a
// fresh build's state, the schedule included wherever the split tiles kept
// their part counts; a round keeps the schedule exactly when no tile crossed
// the trigger, and most rounds must have kept it.
func TestDeltaRefinedRandomWalk(t *testing.T) {
	r, s := clusteredItems(1500, 5, 29)
	base := Config{Workers: 2, Grid: 6}
	var j Joiner
	defer j.Close()
	j.Join(r, s, base)
	var costs []int64
	for _, c := range tileCosts(&j) {
		if c > 0 {
			costs = append(costs, c)
		}
	}
	slices.Sort(costs)
	cfg := base
	cfg.RefineThreshold = costs[len(costs)/2]
	if res := j.Join(r, s, cfg); res.RefinedTiles < 2 {
		t.Fatalf("test premise broken: %d split tiles", res.RefinedTiles)
	}
	rng := rand.New(rand.NewSource(31))
	const rounds = 60
	kept, compared, scheduled := 0, 0, 0
	for round := 0; round < rounds; round++ {
		for k := 1 + rng.Intn(3); k > 0; k-- {
			side := [2][]rtree.Item{r, s}[rng.Intn(2)]
			rc := &side[rng.Intn(len(side))].Rect
			to := side[rng.Intn(len(side))].Rect
			w, h := (rc.MaxX-rc.MinX)*(0.5+rng.Float64()), (rc.MaxY-rc.MinY)*(0.5+rng.Float64())
			x, y := to.MinX+rng.Float64(), to.MinY+rng.Float64()
			*rc = geom.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}
		}
		before := tileCosts(&j)
		res := j.Join(r, s, cfg)
		stage := fmt.Sprintf("round %d", round)
		requireBrute(t, stage, res, r, s)
		if res.Reuse != ReuseDelta {
			t.Fatalf("%s: tier %q, want delta", stage, res.Reuse)
		}
		k := res.PhaseNS[timeline.PhaseRefine] == 0
		if k {
			kept++
		}
		// Rounds that moved the data MBR run on a frozen grid: tile costs
		// are the frozen grid's either way.
		if crossed := crossedTrigger(&j, before, tileCosts(&j)); k == crossed {
			t.Fatalf("%s: schedule kept = %v, a tile crossed the trigger = %v", stage, k, crossed)
		}
		var f Joiner
		f.Join(r, s, cfg)
		diff, comparable, sched := stateDiff(&j, &f)
		f.Close()
		if diff != "" {
			t.Fatalf("%s: %s", stage, diff)
		}
		if comparable {
			compared++
		}
		if sched {
			scheduled++
		}
	}
	t.Logf("%d of %d rounds kept the schedule, %d were comparable with a fresh build, %d with its part counts too",
		kept, rounds, compared, scheduled)
	if kept < rounds/2 || compared < rounds/2 || scheduled == 0 {
		t.Fatalf("%d of %d rounds kept the schedule, %d were comparable with a fresh build, %d schedules; want most and some",
			kept, rounds, compared, scheduled)
	}
}
