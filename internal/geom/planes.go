package geom

// Planes is the structure-of-arrays coordinate-plane view of a rectangle
// sequence: the i-th rectangle is (MinX[i], MinY[i], MaxX[i], MaxY[i]).
// Splitting the coordinates into per-axis planes is what lets the filter
// kernels test several rectangles per instruction — each plane is a dense
// float64 stream a 4-wide compare can load directly, where the []Rect
// layout would need a gather. The planes are the only copy of the
// coordinates the kernels read.
//
// The zero value is an empty Planes ready for use; Reset/SetRect reuse
// capacity and perform no allocation in steady state.
type Planes struct {
	MinX, MinY, MaxX, MaxY []float64
}

// Len returns the number of rectangles.
func (p *Planes) Len() int { return len(p.MinX) }

// Reset sizes the planes for n rectangles, reusing capacity and keeping
// any prefix contents that were already present (callers overwrite the
// lanes they own).
func (p *Planes) Reset(n int) {
	p.MinX = growFloats(p.MinX, n)
	p.MinY = growFloats(p.MinY, n)
	p.MaxX = growFloats(p.MaxX, n)
	p.MaxY = growFloats(p.MaxY, n)
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		out := make([]float64, n)
		copy(out, s)
		return out
	}
	return s[:n]
}

// SetRect stores rectangle r at index i.
func (p *Planes) SetRect(i int, r Rect) {
	p.MinX[i] = r.MinX
	p.MinY[i] = r.MinY
	p.MaxX[i] = r.MaxX
	p.MaxY[i] = r.MaxY
}

// RectAt returns rectangle i (the exact float64 coordinates).
func (p *Planes) RectAt(i int) Rect {
	return Rect{MinX: p.MinX[i], MinY: p.MinY[i], MaxX: p.MaxX[i], MaxY: p.MaxY[i]}
}

// View returns the subrange [lo, hi) of p as a Planes sharing p's backing
// arrays — no copying, valid as long as p's planes are not reallocated.
func (p *Planes) View(lo, hi int) Planes {
	return Planes{
		MinX: p.MinX[lo:hi],
		MinY: p.MinY[lo:hi],
		MaxX: p.MaxX[lo:hi],
		MaxY: p.MaxY[lo:hi],
	}
}

// FromRects fills the planes from an array-of-structs rect slice.
func (p *Planes) FromRects(rects []Rect) {
	p.Reset(len(rects))
	for i := range rects {
		r := &rects[i]
		p.MinX[i] = r.MinX
		p.MinY[i] = r.MinY
		p.MaxX[i] = r.MaxX
		p.MaxY[i] = r.MaxY
	}
}
