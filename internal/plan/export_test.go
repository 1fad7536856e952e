package plan

import (
	"math"

	"spjoin/internal/estimate"
	"spjoin/internal/geom"
	"spjoin/internal/rtree"
	"spjoin/internal/stats"
)

// AnalyzeThreePass is the form Analyze had before it took the joint MBR
// from the two SetStats: AnalyzeSet unioning with Rect.Union, a second MBR
// loop with math.Min/Max, then the probe pass. Kept as the reference
// TestAnalyzeMatchesThreePassForm holds Analyze bit-equal to.
func AnalyzeThreePass(r, s []rtree.Item) Stats {
	analyzeSet := func(items []rtree.Item) estimate.SetStats {
		st := estimate.SetStats{MBR: geom.EmptyRect()}
		var sw, sh float64
		for i := range items {
			r := &items[i].Rect
			if !(r.MinX <= r.MaxX && r.MinY <= r.MaxY) {
				continue
			}
			st.N++
			sw += r.MaxX - r.MinX
			sh += r.MaxY - r.MinY
			st.MBR = st.MBR.Union(*r)
		}
		if st.N > 0 {
			st.AvgW = sw / float64(st.N)
			st.AvgH = sh / float64(st.N)
		}
		return st
	}
	st := Stats{NR: len(r), NS: len(s), Probe: probeGrid}
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	valid := 0
	var sides [2]estimate.SetStats
	for k, side := range [2][]rtree.Item{r, s} {
		sides[k] = analyzeSet(side)
		for i := range side {
			rc := &side[i].Rect
			if !(rc.MinX <= rc.MaxX && rc.MinY <= rc.MaxY) {
				continue
			}
			valid++
			minX = math.Min(minX, rc.MinX)
			minY = math.Min(minY, rc.MinY)
			maxX = math.Max(maxX, rc.MaxX)
			maxY = math.Max(maxY, rc.MaxY)
		}
	}
	st.Selectivity = estimate.Selectivity(sides[0], sides[1])
	if valid == 0 {
		st.Skew, st.Rep = 1, 1
		return st
	}
	invW := safeProbeInv(maxX - minX)
	invH := safeProbeInv(maxY - minY)
	counts := make([]float64, probeGrid*probeGrid)
	tilesSum := 0.0
	for _, side := range [2][]rtree.Item{r, s} {
		for i := range side {
			rc := &side[i].Rect
			if !(rc.MinX <= rc.MaxX && rc.MinY <= rc.MaxY) {
				continue
			}
			cx := clampProbe(int(((rc.MinX+rc.MaxX)/2 - minX) * invW))
			cy := clampProbe(int(((rc.MinY+rc.MaxY)/2 - minY) * invH))
			counts[cy*probeGrid+cx]++
			lox := clampProbe(int((rc.MinX - minX) * invW))
			hix := clampProbe(int((rc.MaxX - minX) * invW))
			loy := clampProbe(int((rc.MinY - minY) * invH))
			hiy := clampProbe(int((rc.MaxY - minY) * invH))
			tilesSum += float64((hix - lox + 1) * (hiy - loy + 1))
		}
	}
	st.Skew = stats.Summarize(counts).Skew()
	st.Rep = tilesSum / float64(valid)
	return st
}
