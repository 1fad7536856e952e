// Package geom provides the planar geometric primitives used by the spatial
// join: axis-parallel rectangles (MBRs), their set operations, and the
// two-sequence plane-sweep algorithm of Brinkhoff/Kriegel/Seeger that
// enumerates intersecting pairs in "local plane-sweep order".
package geom

import (
	"fmt"
	"math"
)

// Rect is a closed axis-parallel rectangle given by its lower-left corner
// (MinX, MinY) and its upper-right corner (MaxX, MaxY). A Rect with
// MinX > MaxX or MinY > MaxY is empty.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// NewRect returns the rectangle spanned by two arbitrary corner points.
func NewRect(x1, y1, x2, y2 float64) Rect {
	if x1 > x2 {
		x1, x2 = x2, x1
	}
	if y1 > y2 {
		y1, y2 = y2, y1
	}
	return Rect{MinX: x1, MinY: y1, MaxX: x2, MaxY: y2}
}

// EmptyRect returns the canonical empty rectangle. It behaves as the neutral
// element of Union.
func EmptyRect() Rect {
	return Rect{
		MinX: math.Inf(1), MinY: math.Inf(1),
		MaxX: math.Inf(-1), MaxY: math.Inf(-1),
	}
}

// IsEmpty reports whether r contains no point. A rect with a NaN
// coordinate counts as empty, so Union never lets a NaN into an MBR: an
// R*-tree holding such a rect still joins everything else. A finite
// inverted rect (MinX > MaxX or MinY > MaxY) is empty here too, but
// Intersects may still match it; what the engines answer for inverted
// rects is not yet defined.
func (r Rect) IsEmpty() bool {
	return !(r.MinX <= r.MaxX && r.MinY <= r.MaxY)
}

// Valid reports whether r is a well-formed, non-empty rectangle with finite
// coordinates.
func (r Rect) Valid() bool {
	return !r.IsEmpty() &&
		!math.IsInf(r.MinX, 0) && !math.IsInf(r.MinY, 0) &&
		!math.IsInf(r.MaxX, 0) && !math.IsInf(r.MaxY, 0) &&
		!math.IsNaN(r.MinX) && !math.IsNaN(r.MinY) &&
		!math.IsNaN(r.MaxX) && !math.IsNaN(r.MaxY)
}

// Intersects reports whether the closed rectangles r and s share at least one
// point. Touching edges count as intersection, matching the candidate test of
// the filter step.
func (r Rect) Intersects(s Rect) bool {
	return r.MinX <= s.MaxX && s.MinX <= r.MaxX &&
		r.MinY <= s.MaxY && s.MinY <= r.MaxY
}

// Contains reports whether r fully contains s.
func (r Rect) Contains(s Rect) bool {
	return r.MinX <= s.MinX && s.MaxX <= r.MaxX &&
		r.MinY <= s.MinY && s.MaxY <= r.MaxY
}

// ContainsPoint reports whether the point (x, y) lies in the closed
// rectangle r.
func (r Rect) ContainsPoint(x, y float64) bool {
	return r.MinX <= x && x <= r.MaxX && r.MinY <= y && y <= r.MaxY
}

// Area returns the area of r; an empty rectangle has area 0.
func (r Rect) Area() float64 {
	if r.IsEmpty() {
		return 0
	}
	return (r.MaxX - r.MinX) * (r.MaxY - r.MinY)
}

// Margin returns half the perimeter of r (the R*-tree "margin" measure).
func (r Rect) Margin() float64 {
	if r.IsEmpty() {
		return 0
	}
	return (r.MaxX - r.MinX) + (r.MaxY - r.MinY)
}

// Union returns the minimum bounding rectangle of r and s. An empty operand
// (IsEmpty, so also one with a NaN coordinate) adds nothing, and the union
// of two empty rects is EmptyRect.
func (r Rect) Union(s Rect) Rect {
	if s.IsEmpty() {
		if r.IsEmpty() {
			return EmptyRect()
		}
		return r
	}
	if r.IsEmpty() {
		return s
	}
	return Rect{
		MinX: math.Min(r.MinX, s.MinX),
		MinY: math.Min(r.MinY, s.MinY),
		MaxX: math.Max(r.MaxX, s.MaxX),
		MaxY: math.Max(r.MaxY, s.MaxY),
	}
}

// Intersection returns the common part of r and s. The result is empty if
// the rectangles do not intersect.
func (r Rect) Intersection(s Rect) Rect {
	out := Rect{
		MinX: math.Max(r.MinX, s.MinX),
		MinY: math.Max(r.MinY, s.MinY),
		MaxX: math.Min(r.MaxX, s.MaxX),
		MaxY: math.Min(r.MaxY, s.MaxY),
	}
	if out.IsEmpty() {
		return EmptyRect()
	}
	return out
}

// OverlapArea returns the area of the intersection of r and s.
func (r Rect) OverlapArea(s Rect) float64 {
	return r.Intersection(s).Area()
}

// Enlargement returns by how much the area of r grows when s is added.
func (r Rect) Enlargement(s Rect) float64 {
	return r.Union(s).Area() - r.Area()
}

// CenterX returns the x-coordinate of the center of r.
func (r Rect) CenterX() float64 { return (r.MinX + r.MaxX) / 2 }

// CenterY returns the y-coordinate of the center of r.
func (r Rect) CenterY() float64 { return (r.MinY + r.MaxY) / 2 }

// CenterDist2 returns the squared distance between the centers of r and s.
// The R*-tree reinsertion step sorts entries by this measure.
func (r Rect) CenterDist2(s Rect) float64 {
	dx := r.CenterX() - s.CenterX()
	dy := r.CenterY() - s.CenterY()
	return dx*dx + dy*dy
}

// OverlapDegree returns a measure in [0, 1] of how strongly r and s overlap:
// the area of their intersection divided by the area of their union (Jaccard
// index). Two intersecting rectangles whose union has zero area (degenerate
// on degenerate) have degree 1. The paper's refinement-cost model (§4.2)
// scales the waiting period of the exact test by this degree.
func (r Rect) OverlapDegree(s Rect) float64 {
	if !r.Intersects(s) {
		return 0
	}
	inter := r.OverlapArea(s)
	union := r.Area() + s.Area() - inter
	if union <= 0 {
		return 1
	}
	d := inter / union
	if d > 1 {
		d = 1
	}
	return d
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%g,%g | %g,%g]", r.MinX, r.MinY, r.MaxX, r.MaxY)
}
