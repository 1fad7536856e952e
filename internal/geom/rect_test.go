package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewRectNormalizes(t *testing.T) {
	r := NewRect(5, 7, 1, 2)
	if r.MinX != 1 || r.MinY != 2 || r.MaxX != 5 || r.MaxY != 7 {
		t.Fatalf("NewRect did not normalize corners: %v", r)
	}
	if r.IsEmpty() {
		t.Fatalf("normalized rect reported empty: %v", r)
	}
}

// TestNaNRectIsEmpty pins that a NaN coordinate makes a rect empty, so that
// Union never carries it into an MBR.
func TestNaNRectIsEmpty(t *testing.T) {
	r := NewRect(0, 0, 1, 1)
	for i := 0; i < 4; i++ {
		n := r
		switch i {
		case 0:
			n.MinX = math.NaN()
		case 1:
			n.MinY = math.NaN()
		case 2:
			n.MaxX = math.NaN()
		case 3:
			n.MaxY = math.NaN()
		}
		if !n.IsEmpty() {
			t.Errorf("%v not empty", n)
		}
		if got := r.Union(n); got != r {
			t.Errorf("%v.Union(%v) = %v, want %v", r, n, got, r)
		}
		if got := n.Union(r); got != r {
			t.Errorf("%v.Union(%v) = %v, want %v", n, r, got, r)
		}
		if got := EmptyRect().Union(n); got != EmptyRect() {
			t.Errorf("EmptyRect().Union(%v) = %v, want EmptyRect", n, got)
		}
	}
}

func TestEmptyRect(t *testing.T) {
	e := EmptyRect()
	if !e.IsEmpty() {
		t.Fatal("EmptyRect is not empty")
	}
	if e.Area() != 0 {
		t.Fatalf("empty rect area = %g, want 0", e.Area())
	}
	if e.Margin() != 0 {
		t.Fatalf("empty rect margin = %g, want 0", e.Margin())
	}
	if e.Valid() {
		t.Fatal("empty rect must not be Valid")
	}
	r := NewRect(0, 0, 1, 1)
	if got := e.Union(r); got != r {
		t.Fatalf("EmptyRect.Union(r) = %v, want %v", got, r)
	}
	if got := r.Union(e); got != r {
		t.Fatalf("r.Union(EmptyRect) = %v, want %v", got, r)
	}
}

func TestIntersectsBasic(t *testing.T) {
	a := NewRect(0, 0, 2, 2)
	cases := []struct {
		name string
		b    Rect
		want bool
	}{
		{"disjoint right", NewRect(3, 0, 4, 2), false},
		{"disjoint above", NewRect(0, 3, 2, 4), false},
		{"overlap", NewRect(1, 1, 3, 3), true},
		{"contained", NewRect(0.5, 0.5, 1.5, 1.5), true},
		{"containing", NewRect(-1, -1, 3, 3), true},
		{"touch edge", NewRect(2, 0, 3, 2), true},
		{"touch corner", NewRect(2, 2, 3, 3), true},
		{"identical", a, true},
		{"degenerate point inside", NewRect(1, 1, 1, 1), true},
		{"degenerate point outside", NewRect(5, 5, 5, 5), false},
	}
	for _, c := range cases {
		if got := a.Intersects(c.b); got != c.want {
			t.Errorf("%s: Intersects = %v, want %v", c.name, got, c.want)
		}
		if got := c.b.Intersects(a); got != c.want {
			t.Errorf("%s: Intersects not symmetric", c.name)
		}
	}
}

func TestContains(t *testing.T) {
	a := NewRect(0, 0, 10, 10)
	if !a.Contains(NewRect(2, 3, 4, 5)) {
		t.Error("Contains inner rect failed")
	}
	if !a.Contains(a) {
		t.Error("rect must contain itself")
	}
	if a.Contains(NewRect(2, 3, 11, 5)) {
		t.Error("Contains must reject protruding rect")
	}
	if !a.ContainsPoint(0, 0) || !a.ContainsPoint(10, 10) {
		t.Error("ContainsPoint must include boundary")
	}
	if a.ContainsPoint(10.0001, 5) {
		t.Error("ContainsPoint accepted outside point")
	}
}

func TestAreaMargin(t *testing.T) {
	r := NewRect(1, 2, 4, 6)
	if got := r.Area(); got != 12 {
		t.Errorf("Area = %g, want 12", got)
	}
	if got := r.Margin(); got != 7 {
		t.Errorf("Margin = %g, want 7", got)
	}
}

func TestIntersectionUnion(t *testing.T) {
	a := NewRect(0, 0, 4, 4)
	b := NewRect(2, 1, 6, 3)
	got := a.Intersection(b)
	want := NewRect(2, 1, 4, 3)
	if got != want {
		t.Errorf("Intersection = %v, want %v", got, want)
	}
	u := a.Union(b)
	wantU := NewRect(0, 0, 6, 4)
	if u != wantU {
		t.Errorf("Union = %v, want %v", u, wantU)
	}
	// Disjoint intersection is the canonical empty rect.
	c := NewRect(10, 10, 11, 11)
	if !a.Intersection(c).IsEmpty() {
		t.Error("Intersection of disjoint rects must be empty")
	}
}

func TestEnlargement(t *testing.T) {
	a := NewRect(0, 0, 2, 2)
	if got := a.Enlargement(NewRect(1, 1, 2, 2)); got != 0 {
		t.Errorf("Enlargement of contained rect = %g, want 0", got)
	}
	if got := a.Enlargement(NewRect(0, 0, 4, 2)); got != 4 {
		t.Errorf("Enlargement = %g, want 4", got)
	}
}

func TestOverlapDegree(t *testing.T) {
	a := NewRect(0, 0, 2, 2)
	if got := a.OverlapDegree(NewRect(5, 5, 6, 6)); got != 0 {
		t.Errorf("disjoint degree = %g, want 0", got)
	}
	if got := a.OverlapDegree(a); got != 1 {
		t.Errorf("identical degree = %g, want 1", got)
	}
	// Jaccard: intersection 2, union 6.
	if got := a.OverlapDegree(NewRect(1, 0, 3, 2)); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("half overlap degree = %g, want 1/3", got)
	}
	// Degenerate point inside a proper rect: zero intersection area over
	// positive union area.
	if got := a.OverlapDegree(NewRect(1, 1, 1, 1)); got != 0 {
		t.Errorf("degenerate-in-square degree = %g, want 0", got)
	}
	// Degenerate on degenerate at the same spot: degree 1 by convention.
	p := NewRect(1, 1, 1, 1)
	if got := p.OverlapDegree(p); got != 1 {
		t.Errorf("degenerate-on-degenerate degree = %g, want 1", got)
	}
}

func TestCenterDist2(t *testing.T) {
	a := NewRect(0, 0, 2, 2)
	b := NewRect(3, 4, 3, 4) // center (3,4), a center (1,1) -> dx=2 dy=3
	if got := a.CenterDist2(b); got != 13 {
		t.Errorf("CenterDist2 = %g, want 13", got)
	}
}

func TestRectString(t *testing.T) {
	if s := NewRect(0, 0, 1, 2).String(); s == "" {
		t.Fatal("String returned empty")
	}
}

// randomRect draws a small random rectangle inside [0,100)^2.
func randomRect(rng *rand.Rand) Rect {
	x := rng.Float64() * 100
	y := rng.Float64() * 100
	return NewRect(x, y, x+rng.Float64()*10, y+rng.Float64()*10)
}

func TestQuickIntersectionSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(_ int) bool {
		a, b := randomRect(rng), randomRect(rng)
		return a.Intersects(b) == b.Intersects(a) &&
			a.OverlapArea(b) == b.OverlapArea(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickUnionContainsBoth(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(_ int) bool {
		a, b := randomRect(rng), randomRect(rng)
		u := a.Union(b)
		return u.Contains(a) && u.Contains(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickIntersectionContained(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(_ int) bool {
		a, b := randomRect(rng), randomRect(rng)
		in := a.Intersection(b)
		if in.IsEmpty() {
			return !a.Intersects(b)
		}
		return a.Contains(in) && b.Contains(in) && a.Intersects(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickAreaIdentity(t *testing.T) {
	// inclusion–exclusion upper bound: area(union) >= area(a)+area(b)-overlap.
	rng := rand.New(rand.NewSource(4))
	f := func(_ int) bool {
		a, b := randomRect(rng), randomRect(rng)
		return a.Union(b).Area() >= a.Area()+b.Area()-a.OverlapArea(b)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickOverlapDegreeRange(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(_ int) bool {
		a, b := randomRect(rng), randomRect(rng)
		d := a.OverlapDegree(b)
		return d >= 0 && d <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestValid(t *testing.T) {
	if !NewRect(0, 0, 1, 1).Valid() {
		t.Error("unit rect must be valid")
	}
	if (Rect{MinX: math.NaN(), MaxX: 1, MinY: 0, MaxY: 1}).Valid() {
		t.Error("NaN rect must be invalid")
	}
	if (Rect{MinX: 0, MaxX: math.Inf(1), MinY: 0, MaxY: 1}).Valid() {
		t.Error("infinite rect must be invalid")
	}
}
