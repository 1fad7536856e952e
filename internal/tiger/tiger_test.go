package tiger

import (
	"math"
	"testing"

	"spjoin/internal/geom"
	"spjoin/internal/rtree"
)

func TestMapsCardinalities(t *testing.T) {
	streets, mixed := Maps(1.0, 42)
	if len(streets) != DefaultStreetCount {
		t.Errorf("streets = %d, want %d", len(streets), DefaultStreetCount)
	}
	if len(mixed) != DefaultMixedCount {
		t.Errorf("mixed = %d, want %d", len(mixed), DefaultMixedCount)
	}
}

func TestMapsScaled(t *testing.T) {
	streets, mixed := Maps(0.01, 42)
	if len(streets) != DefaultStreetCount/100 {
		t.Errorf("scaled streets = %d, want %d", len(streets), DefaultStreetCount/100)
	}
	if len(mixed) != DefaultMixedCount/100 {
		t.Errorf("scaled mixed = %d, want %d", len(mixed), DefaultMixedCount/100)
	}
}

func TestMapsTinyScaleFloor(t *testing.T) {
	streets, mixed := Maps(1e-9, 1)
	if len(streets) != 1 || len(mixed) != 1 {
		t.Fatalf("floor failed: %d, %d", len(streets), len(mixed))
	}
}

func TestMapsRejectNonPositiveScale(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on scale 0")
		}
	}()
	Maps(0, 1)
}

func checkItems(t *testing.T, items []rtree.Item) {
	t.Helper()
	world := geom.NewRect(0, 0, World, World)
	for i, it := range items {
		if it.ID != rtree.EntryID(i) {
			t.Fatalf("item %d has ID %d", i, it.ID)
		}
		if !it.Rect.Valid() {
			t.Fatalf("item %d has invalid rect %v", i, it.Rect)
		}
		if !world.Contains(it.Rect) {
			t.Fatalf("item %d rect %v outside world", i, it.Rect)
		}
	}
}

func TestStreetsWellFormed(t *testing.T) {
	checkItems(t, Streets(5000, 7))
}

func TestMixedWellFormed(t *testing.T) {
	checkItems(t, MixedFeatures(5000, 7))
}

func TestDeterminism(t *testing.T) {
	a, b := Streets(2000, 3), Streets(2000, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("streets diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c, d := MixedFeatures(2000, 3), MixedFeatures(2000, 3)
	for i := range c {
		if c[i] != d[i] {
			t.Fatalf("mixed diverge at %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := Streets(100, 1), Streets(100, 2)
	same := 0
	for i := range a {
		if a[i].Rect == b[i].Rect {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical maps")
	}
}

func TestStreetsSmallerThanMixedFeatures(t *testing.T) {
	// Streets are short segments; map-2 features are much longer on
	// average. Compare mean margins.
	streets := Streets(5000, 9)
	mixed := MixedFeatures(5000, 9)
	avg := func(items []rtree.Item) float64 {
		var sum float64
		for _, it := range items {
			sum += it.Rect.Margin()
		}
		return sum / float64(len(items))
	}
	s, m := avg(streets), avg(mixed)
	if m < 2*s {
		t.Errorf("mixed mean margin %.3f not clearly larger than streets %.3f", m, s)
	}
}

func TestStreetsClustered(t *testing.T) {
	// At least half the streets land inside town bounding boxes.
	centers, _ := towns(11)
	streets := Streets(5000, 11)
	inTown := 0
	for _, it := range streets {
		for _, c := range centers {
			// Generous halo: towns spread Gaussian beyond their nominal box.
			halo := geom.NewRect(c.MinX-5, c.MinY-5, c.MaxX+5, c.MaxY+5)
			if halo.Intersects(it.Rect) {
				inTown++
				break
			}
		}
	}
	if frac := float64(inTown) / float64(len(streets)); frac < 0.5 {
		t.Errorf("only %.0f%% of streets near towns, want >= 50%%", frac*100)
	}
}

func TestMapsOverlap(t *testing.T) {
	// The two maps must actually join: a decent number of cross-map MBR
	// intersections per object.
	streets, mixed := Maps(0.005, 5)
	hits := 0
	for _, s := range streets {
		for _, m := range mixed {
			if s.Rect.Intersects(m.Rect) {
				hits++
			}
		}
	}
	if hits == 0 {
		t.Fatal("no cross-map intersections at all")
	}
}

func TestTreeShapeAtFullScaleIsTable1Like(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale build")
	}
	streets, mixed := Maps(1.0, 42)
	t1 := rtree.BulkLoadSTR(rtree.DefaultParams(), streets, 0.73)
	t2 := rtree.BulkLoadSTR(rtree.DefaultParams(), mixed, 0.73)
	for i, tr := range []*rtree.Tree{t1, t2} {
		s := tr.Stats()
		if s.Height != 3 {
			t.Errorf("tree%d height = %d, want 3 (Table 1)", i+1, s.Height)
		}
		if s.DataPages < 5500 || s.DataPages > 8500 {
			t.Errorf("tree%d data pages = %d, want ≈ 7000 (Table 1)", i+1, s.DataPages)
		}
		if s.DirectoryPages < 60 || s.DirectoryPages > 140 {
			t.Errorf("tree%d directory pages = %d, want ≈ 95 (Table 1)", i+1, s.DirectoryPages)
		}
	}
}

func TestFeaturesAlignWithItems(t *testing.T) {
	fs := StreetFeatures(2000, 42)
	items := Streets(2000, 42)
	for i := range fs {
		if fs[i].ID != items[i].ID || fs[i].Rect != items[i].Rect {
			t.Fatalf("feature %d misaligned with item", i)
		}
	}
	ms := MixedFeaturesExact(2000, 42)
	mitems := MixedFeatures(2000, 42)
	for i := range ms {
		if ms[i].ID != mitems[i].ID || ms[i].Rect != mitems[i].Rect {
			t.Fatalf("mixed feature %d misaligned with item", i)
		}
	}
}

func TestFeatureMBRsConservative(t *testing.T) {
	// The filter MBR must contain the exact geometry, at least for shapes
	// fully inside the world (shapes leaving the world are clipped by the
	// MBR clamp, which is fine for the bounded workload).
	world := geom.NewRect(0, 0, World, World)
	for _, fs := range [][]Feature{StreetFeatures(3000, 7), MixedFeaturesExact(3000, 7)} {
		for i, f := range fs {
			b := f.Shape.Bounds()
			if !world.Contains(b) {
				continue // clipped at the world edge
			}
			grown := geom.NewRect(f.Rect.MinX-1e-9, f.Rect.MinY-1e-9,
				f.Rect.MaxX+1e-9, f.Rect.MaxY+1e-9)
			if !grown.Contains(b) {
				t.Fatalf("feature %d: MBR %v does not contain shape bounds %v", i, f.Rect, b)
			}
		}
	}
}

func TestMixedFeatureKinds(t *testing.T) {
	fs := MixedFeaturesExact(3000, 11)
	boxes, segs := 0, 0
	for _, f := range fs {
		if _, ok := f.Shape.IsBox(); ok {
			boxes++
		} else {
			segs++
		}
	}
	// 40% boundaries (boxes), 60% rivers+rails (segments), loosely.
	if boxes < 900 || boxes > 1500 {
		t.Errorf("boxes = %d of 3000, want ≈ 1200", boxes)
	}
	if segs+boxes != 3000 {
		t.Errorf("kinds do not cover all features")
	}
}

func TestItemsProjection(t *testing.T) {
	fs := StreetFeatures(10, 3)
	items := Items(fs)
	if len(items) != len(fs) {
		t.Fatal("Items length mismatch")
	}
	for i := range fs {
		if items[i].ID != fs[i].ID || items[i].Rect != fs[i].Rect {
			t.Fatal("Items projection wrong")
		}
	}
}

// TestRejoinMutations pins the three kinds on the seed maps: the grown rect
// keeps its key and its tile, the shifted one keeps MinX and changes rows,
// the mirrored one crosses the world, and none touches the data MBR.
func TestRejoinMutations(t *testing.T) {
	r, s := Maps(0.05, 7)
	const grid = 9
	muts, ok := RejoinMutations(r, s, grid)
	if !ok {
		t.Fatal("no rect qualifies on the seed maps")
	}
	mbr := geom.EmptyRect()
	for _, side := range [2][]rtree.Item{r, s} {
		for i := range side {
			mbr = mbr.Union(side[i].Rect)
		}
	}
	th := (mbr.MaxY - mbr.MinY) / grid
	for k, m := range muts {
		was, now := r[m.Idx].Rect, m.Next
		if !mbr.Contains(now) || now.MinX == mbr.MinX || now.MaxX == mbr.MaxX {
			t.Errorf("mutation %d leaves or touches the data MBR: %v", k, now)
		}
		switch k {
		case 0:
			if now.MinX != was.MinX || now.MinY != was.MinY || !now.Contains(was) || now == was {
				t.Errorf("grown rect %v -> %v", was, now)
			}
		case 1:
			if now.MinX != was.MinX || math.Abs(math.Abs(now.MinY-was.MinY)-2*th) > 1e-9*th {
				t.Errorf("shifted rect %v -> %v", was, now)
			}
		case 2:
			if mid := (mbr.MinX + mbr.MaxX) / 2; was.MaxX >= mid || now.MinX <= mid {
				t.Errorf("mirrored rect %v -> %v", was, now)
			}
		}
	}
	if muts[0].Idx == muts[1].Idx || muts[1].Idx == muts[2].Idx || muts[0].Idx == muts[2].Idx {
		t.Errorf("picks collide: %v", muts)
	}
}

// TestHotTileGrowth: the pick lies in the tile with the largest product of
// the two sides' rect counts, and the grown rect keeps its key and stays in
// that tile.
func TestHotTileGrowth(t *testing.T) {
	r, s := Maps(0.05, 7)
	const grid = 9
	mut, ok := HotTileGrowth(r, s, grid)
	if !ok {
		t.Fatal("no rect qualifies on the seed maps")
	}
	mbr := geom.EmptyRect()
	for _, side := range [2][]rtree.Item{r, s} {
		for i := range side {
			mbr = mbr.Union(side[i].Rect)
		}
	}
	tileOf := func(x, y float64) int {
		tx := int((x - mbr.MinX) / (mbr.MaxX - mbr.MinX) * grid)
		ty := int((y - mbr.MinY) / (mbr.MaxY - mbr.MinY) * grid)
		return min(ty, grid-1)*grid + min(tx, grid-1)
	}
	var counts [2][grid * grid]int
	for k, side := range [2][]rtree.Item{r, s} {
		for i := range side {
			rc := side[i].Rect
			lo, hi := tileOf(rc.MinX, rc.MinY), tileOf(rc.MaxX, rc.MaxY)
			for ty := lo / grid; ty <= hi/grid; ty++ {
				for tx := lo % grid; tx <= hi%grid; tx++ {
					counts[k][ty*grid+tx]++
				}
			}
		}
	}
	was, now := r[mut.Idx].Rect, mut.Next
	home := tileOf(was.MinX, was.MinY)
	if tileOf(was.MaxX, was.MaxY) != home || tileOf(now.MaxX, now.MaxY) != home {
		t.Fatalf("rect %v -> %v does not stay in tile %d", was, now, home)
	}
	for tile := range counts[0] {
		if counts[0][tile]*counts[1][tile] > counts[0][home]*counts[1][home] {
			t.Fatalf("tile %d (%d x %d) is costlier than the picked tile %d (%d x %d)",
				tile, counts[0][tile], counts[1][tile], home, counts[0][home], counts[1][home])
		}
	}
	if now.MinX != was.MinX || now.MinY != was.MinY || !now.Contains(was) || now == was {
		t.Errorf("grown rect %v -> %v", was, now)
	}
}
