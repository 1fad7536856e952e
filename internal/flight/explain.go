package flight

import (
	"fmt"
	"io"
	"strings"
	"time"

	"spjoin/internal/stats"
	"spjoin/internal/timeline"
)

// Explain renders one captured execution as an EXPLAIN ANALYZE report:
// the plan and the statistics that drove it, the phase waterfall, the
// worker-skew table, and (for a partition join) the costliest work units
// and an ASCII tile-cost heatmap. Output is deterministic for
// a given record, so tests can pin it.
func Explain(w io.Writer, rec *Record) {
	fmt.Fprintf(w, "JOIN #%d  engine=%s  wall=%s\n",
		rec.Seq, rec.Engine, fmtDur(rec.WallNS))
	explainPlan(w, rec)
	explainShape(w, rec)
	explainPhases(w, rec)
	explainHealth(w, rec)
	explainWorkers(w, rec)
	explainTiles(w, rec)
	explainHeat(w, rec)
}

func explainPlan(w io.Writer, rec *Record) {
	p := &rec.Plan
	if p.Engine == "" {
		fmt.Fprintf(w, "plan: (not captured)\n")
		return
	}
	fmt.Fprintf(w, "plan (%s): engine=%s", p.Source, p.Engine)
	if p.Engine == "partition" {
		ref := "off"
		switch {
		case p.RefineThreshold == 0:
			ref = "auto"
		case p.RefineThreshold > 0:
			ref = fmt.Sprintf("%d", p.RefineThreshold)
		}
		fmt.Fprintf(w, " grid=%dx%d refine=%s", p.Grid, p.Grid, ref)
	}
	fmt.Fprintf(w, " workers=%d\n", p.Workers)
	if p.NR > 0 || p.NS > 0 {
		fmt.Fprintf(w, "  stats: nr=%d ns=%d skew=%.2f rep=%.2f selectivity=%.3g",
			p.NR, p.NS, p.Skew, p.Rep, p.Selectivity)
		if est := p.Selectivity * float64(p.NR) * float64(p.NS); est > 0 && rec.Candidates > 0 {
			fmt.Fprintf(w, " (est. pairs %.3g, actual %d, drift %.2fx)",
				est, rec.Candidates, float64(rec.Candidates)/est)
		}
		fmt.Fprintf(w, "\n")
	}
}

func explainShape(w io.Writer, rec *Record) {
	fmt.Fprintf(w, "input: nr=%d ns=%d\n", rec.NR, rec.NS)
	fmt.Fprintf(w, "filter: candidates=%d", rec.Candidates)
	if rec.Comparisons > 0 {
		fmt.Fprintf(w, " comparisons=%d", rec.Comparisons)
	}
	if rec.Duplicates > 0 {
		fmt.Fprintf(w, " duplicates=%d", rec.Duplicates)
	}
	fmt.Fprintf(w, "\n")
	switch rec.Engine {
	case "partition":
		fmt.Fprintf(w, "partition: grid=%dx%d units=%d split_tiles=%d split_units=%d\n",
			rec.GX, rec.GY, rec.Partitions, rec.RefinedTiles, rec.Subtiles)
		if rec.Reuse != "" {
			fmt.Fprintf(w, "reuse: tier=%s delta_rects=%d\n", rec.Reuse, rec.DeltaRects)
		}
	case "tree":
		fmt.Fprintf(w, "tree: tasks=%d\n", rec.Tasks)
	}
}

func explainPhases(w io.Writer, rec *Record) {
	var total int64
	for _, ns := range rec.PhaseNS {
		total += ns
	}
	if total == 0 {
		return
	}
	fmt.Fprintf(w, "phases (measured %s of %s wall):\n", fmtDur(total), fmtDur(rec.WallNS))
	for p := 0; p < timeline.NumPhases; p++ {
		ns := rec.PhaseNS[p]
		if ns == 0 {
			continue // phase skipped (e.g. steady-state reuse, tree engine)
		}
		share := float64(ns) / float64(total)
		fmt.Fprintf(w, "  %-9s %10s %5.1f%% %s\n",
			timeline.PhaseName(p), fmtDur(ns), share*100, bar(share, 30))
	}
}

// explainHealth renders the runtime health window (runtimeobs.Sampler)
// the driver bracketed around the join: the wall clock attributed across
// useful work, GC stop-the-world pauses, scheduler run-queue delay and
// lock contention, plus the raw runtime deltas and any anomaly flags.
func explainHealth(w io.Writer, rec *Record) {
	h := &rec.Health
	if !h.Sampled {
		return
	}
	fmt.Fprintf(w, "runtime health (%s wall, %d workers):\n",
		fmtDur(h.WallNS), h.Workers)
	work, gc, sched, cont := h.Shares()
	rows := []struct {
		name  string
		ns    int64
		share float64
	}{
		{"work", h.WorkNS, work},
		{"gc-pause", h.GCNS, gc},
		{"sched-delay", h.SchedNS, sched},
		{"contention", h.ContentionNS, cont},
	}
	for _, r := range rows {
		fmt.Fprintf(w, "  %-11s %10s %5.1f%% %s\n",
			r.name, fmtDur(r.ns), r.share*100, bar(r.share, 30))
	}
	fmt.Fprintf(w, "  gc: %d cycle(s), %s cpu, %s pause; alloc %s, heap %s\n",
		h.GCCycles, fmtDur(h.GCCPUNS), fmtDur(h.GCPauseNS),
		fmtBytes(h.AllocBytes), fmtBytes(h.HeapBytes))
	fmt.Fprintf(w, "  goroutines: %d -> %d\n", h.GoroutinesStart, h.GoroutinesEnd)
	if a := h.Anomalies(); len(a) > 0 {
		fmt.Fprintf(w, "  anomalies: %s\n", strings.Join(a, "; "))
	}
}

// fmtBytes renders a byte count at a human scale.
func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%dB", b)
}

func explainWorkers(w io.Writer, rec *Record) {
	if len(rec.WorkerPairs) < 2 {
		return
	}
	vals := make([]float64, len(rec.WorkerPairs))
	var maxPairs int64 = 1
	for i, p := range rec.WorkerPairs {
		vals[i] = float64(p)
		if p > maxPairs {
			maxPairs = p
		}
	}
	sum := stats.Summarize(vals)
	fmt.Fprintf(w, "workers (pairs): min=%.0f max=%.0f mean=%.1f skew=%.2f\n",
		sum.Min, sum.Max, sum.Mean, sum.Skew())
	for i, p := range rec.WorkerPairs {
		fmt.Fprintf(w, "  W%-3d %s %d\n", i, bar(float64(p)/float64(maxPairs), 24), p)
	}
}

func explainTiles(w io.Writer, rec *Record) {
	if len(rec.TopTiles) == 0 {
		return
	}
	fmt.Fprintf(w, "top work units (by estimated cost):\n")
	for _, t := range rec.TopTiles {
		kind := ""
		if t.Refined {
			kind = "  split"
		}
		fmt.Fprintf(w, "  tile (%d,%d) cost=%d%s\n", t.TX, t.TY, t.Cost, kind)
	}
}

// heatRamp maps a cell's share of the hottest cell to a glyph; index 0 is
// "truly zero", the rest spread linearly.
const heatRamp = " .:-=+*#%@"

func explainHeat(w io.Writer, rec *Record) {
	if rec.HeatW <= 0 || rec.HeatH <= 0 || len(rec.Heat) < rec.HeatW*rec.HeatH {
		return
	}
	var maxC int64
	for _, c := range rec.Heat {
		if c > maxC {
			maxC = c
		}
	}
	if maxC == 0 {
		return
	}
	fmt.Fprintf(w, "tile cost heat (%dx%d grid -> %dx%d cells, @ = hottest):\n",
		rec.GX, rec.GY, rec.HeatW, rec.HeatH)
	for y := rec.HeatH - 1; y >= 0; y-- { // row 0 is the bottom of the space
		fmt.Fprintf(w, "  |")
		for x := 0; x < rec.HeatW; x++ {
			c := rec.Heat[y*rec.HeatW+x]
			g := 0
			if c > 0 {
				g = 1 + int(int64(len(heatRamp)-2)*c/maxC)
			}
			fmt.Fprintf(w, "%c", heatRamp[g])
		}
		fmt.Fprintf(w, "|\n")
	}
}

// bar renders share (0..1) as a fixed-width block bar; at least one block
// for any non-zero share so small phases stay visible.
func bar(share float64, width int) string {
	n := int(share*float64(width) + 0.5)
	if n < 1 && share > 0 {
		n = 1
	}
	if n > width {
		n = width
	}
	return strings.Repeat("▇", n)
}

// fmtDur formats nanoseconds at millisecond-or-better precision without
// trailing noise (time.Duration's default prints 1.234567ms).
func fmtDur(ns int64) string {
	d := time.Duration(ns)
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	case d >= time.Microsecond:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	}
	return fmt.Sprintf("%dns", ns)
}
