package exp

import (
	"fmt"
	"io"

	"spjoin/internal/partjoin"
	"spjoin/internal/rtree"
	"spjoin/internal/stats"
	"spjoin/internal/tiger"
)

// skewWorkers pins the worker count for the skew cells. The split's auto
// trigger is a fair-share rule (hot means "bigger than a worker's fair
// share"), so the recorded unit schedule — and with it the unit counters
// below — is only a pure function of the inputs at a fixed worker count.
const skewWorkers = 4

// skewN is the per-side cardinality at the workload scale: 60,000 per
// side (120,000 rectangles joined) at scale 1.0, floored so smoke scales
// still exercise the hot-tile split.
func skewN(scale float64) int {
	n := int(60000 * scale)
	if n < 500 {
		n = 500
	}
	return n
}

// skewDists enumerates the skew ladder: the uniform baseline plus three
// gaussian-cluster levels of increasing concentration (smaller sigma =
// hotter tiles). Both join sides share cluster centers (same centerSeed)
// so the hot spots actually collide — the Join Product Skew case.
var skewDists = []struct {
	name  string
	sigma float64
}{
	{"uniform", 0},
	{"gauss60", 60},
	{"gauss20", 20},
	{"gauss5", 5},
}

// skewSides generates one distribution's two join sides at the workload's
// seed and scale.
func skewSides(w *Workload, sigma float64) (r, s []rtree.Item) {
	n := skewN(w.Scale)
	const maxSide = 0.1
	if sigma == 0 {
		return tiger.Uniform(n, maxSide, w.Seed+1), tiger.Uniform(n, maxSide, w.Seed+2)
	}
	return tiger.GaussianClusters(n, 6, sigma, maxSide, w.Seed, w.Seed+1),
		tiger.GaussianClusters(n, 6, sigma, maxSide, w.Seed, w.Seed+2)
}

// ExpSkew measures what the hot-tile split does to the partition engine
// across the skew ladder: with the split off the hottest tile's quadratic
// sweep is one work unit, the straggler no worker count can hide; with the
// auto trigger each hot tile's sweep is cut into event ranges of about half
// the trigger's cost, so the hottest unit shrinks while the comparisons,
// duplicates and candidates stay exactly the unsplit join's. Only
// deterministic counters are recorded (comparisons, candidates,
// duplicates, work units, the hottest unit's estimated cost, split tiles
// and their units — never wall time), so the cells digest-diff across runs
// and machines.
func ExpSkew(w *Workload, out io.Writer) {
	n := skewN(w.Scale)
	t := stats.NewTable(fmt.Sprintf(
		"Extension: skew-adaptive hot-tile split; partition engine, %d+%d rects, %d workers",
		n, n, skewWorkers),
		"distribution", "split", "comparisons", "candidates", "work units", "hottest unit", "split tiles", "their units")
	for _, d := range skewDists {
		r, s := skewSides(w, d.sigma)
		for _, ref := range []struct {
			label string
			thr   int64
		}{
			{"off", partjoin.RefineDisabled},
			{"auto", 0},
		} {
			res := partjoin.Join(r, s, partjoin.Config{
				Workers:         skewWorkers,
				RefineThreshold: ref.thr,
			})
			var hot int64
			if len(res.TopTiles) > 0 {
				hot = res.TopTiles[0].Cost
			}
			t.AddRow(d.name, ref.label, res.Comparisons, len(res.Candidates),
				res.Partitions, hot, res.RefinedTiles, res.Subtiles)
			if w.Rec != nil {
				w.Rec.AddEngine("partjoin", "skew",
					map[string]string{"dist": d.name, "refine": ref.label},
					map[string]float64{
						"comparisons":   float64(res.Comparisons),
						"candidates":    float64(len(res.Candidates)),
						"duplicates":    float64(res.Duplicates),
						"units":         float64(res.Partitions),
						"hot_unit":      float64(hot),
						"refined_tiles": float64(res.RefinedTiles),
						"subtiles":      float64(res.Subtiles),
					})
			}
		}
	}
	t.Render(out)
}
