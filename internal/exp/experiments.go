package exp

import (
	"fmt"
	"io"

	"spjoin/internal/buffer"
	"spjoin/internal/estimate"
	"spjoin/internal/join"
	"spjoin/internal/parjoin"
	"spjoin/internal/stats"
	"spjoin/internal/storage"
)

// Experiment regenerates one table or figure of the paper.
type Experiment struct {
	// Name is the CLI identifier (table1, fig5, ...).
	Name string
	// Title describes what the paper reports there.
	Title string
	// Run executes the experiment against w and renders rows to out.
	Run func(w *Workload, out io.Writer)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Table 1: Parameters of the R*-trees", Table1},
		{"table2", "Table 2: Parameters of the simulated machine", Table2},
		{"fig5", "Figure 5: Disk accesses vs. buffer size (8 and 24 processors)", Fig5},
		{"fig7", "Figure 7: Run times and disk accesses with/without task reassignment", Fig7},
		{"fig8", "Figure 8: Victim selection: most-loaded vs. arbitrary processor", Fig8},
		{"fig9", "Figure 9: Response time vs. number of processors (d=1, 8, n)", Fig9},
		{"fig10", "Figure 10: Speed-up and disk accesses vs. number of processors", Fig10},
		{"sn", "Extension (§5 future work): shared-virtual-memory vs. shared-nothing", ExpSN},
		{"est", "Extension (§3.4): estimation-based static balancing vs. dynamic reassignment", ExpEst},
		{"skew", "Extension: skew-adaptive hot-tile split on the native partition engine", ExpSkew},
		{"metrics", "Cross-check: metrics registry vs. simulator results (observation-only instrumentation)", ExpMetrics},
		{"timeline", "Cross-check: span profiler — critical path, utilization/skew, determinism (observation-only)", ExpTimeline},
	}
}

// ByName finds an experiment by CLI name.
func ByName(name string) (Experiment, bool) {
	for _, e := range All() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Table1 reports the R*-tree parameters the paper's Table 1 lists, plus m
// (the number of tasks) computed from the actual root pages.
func Table1(w *Workload, out io.Writer) {
	s1, s2 := w.R.Stats(), w.S.Stats()
	m, _, _ := taskCount(w)
	t := stats.NewTable("Table 1: Parameters of the R*-trees (paper: tree1/tree2 = 3/3 height, "+
		"131443/127312 entries, 6968/6778 data pages, 95/92 directory pages, m=404)",
		"", "tree1 (streets)", "tree2 (mixed)")
	t.AddRow("height", s1.Height, s2.Height)
	t.AddRow("number of data entries", s1.DataEntries, s2.DataEntries)
	t.AddRow("number of data pages", s1.DataPages, s2.DataPages)
	t.AddRow("number of directory pages", s1.DirectoryPages, s2.DirectoryPages)
	t.AddRow("avg page utilization", fmt.Sprintf("%.0f%%", s1.AvgLeafFill*100),
		fmt.Sprintf("%.0f%%", s2.AvgLeafFill*100))
	t.AddRow("m (number of tasks)", m, m)
	t.Render(out)
	if w.Rec != nil {
		w.Rec.Add("table1", map[string]string{"tree": "streets"}, map[string]float64{
			"height": float64(s1.Height), "data_entries": float64(s1.DataEntries),
			"data_pages": float64(s1.DataPages), "dir_pages": float64(s1.DirectoryPages),
			"avg_leaf_fill": s1.AvgLeafFill, "m_tasks": float64(m)})
		w.Rec.Add("table1", map[string]string{"tree": "features"}, map[string]float64{
			"height": float64(s2.Height), "data_entries": float64(s2.DataEntries),
			"data_pages": float64(s2.DataPages), "dir_pages": float64(s2.DirectoryPages),
			"avg_leaf_fill": s2.AvgLeafFill, "m_tasks": float64(m)})
	}
}

func taskCount(w *Workload) (m, level, comparisons int) {
	tasks, level, comparisons := parjoin.CreateTasks(w.R, w.S, parjoin.DefaultConfig(1, 1, 1).Join, 2)
	return len(tasks), level, comparisons
}

// Table2 reports the simulated machine's cost parameters, mirroring the
// paper's KSR1 memory table and §4.2 disk/refinement calibration.
func Table2(w *Workload, out io.Writer) {
	bc := buffer.DefaultCostParams()
	dp := storage.DefaultDiskParams()
	cpu := parjoin.DefaultCPUParams()
	t := stats.NewTable("Table 2: Simulated machine parameters (paper: KSR1 — local memory ≈ 10× faster than remote)",
		"component", "cost")
	t.AddRow("page in own buffer", fmt.Sprintf("%.2f ms", float64(bc.LocalHit)))
	t.AddRow("page in other processor's buffer", fmt.Sprintf("%.2f ms", float64(bc.RemoteHit)))
	t.AddRow("buffer directory lock", fmt.Sprintf("%.2f ms", float64(bc.Lock)))
	t.AddRow("directory page from disk", fmt.Sprintf("%.1f ms (9 seek + 6 latency + 1 transfer)", float64(dp.PageRead)))
	t.AddRow("data page + geometry cluster from disk", fmt.Sprintf("%.1f ms", float64(dp.DataRead)))
	t.AddRow("rectangle comparison (CPU)", fmt.Sprintf("%.3f ms", float64(cpu.PerComparison)))
	t.AddRow("task queue operation", fmt.Sprintf("%.2f ms", float64(cpu.TaskQueueOp)))
	t.AddRow("exact geometry test (refinement)", "2–18 ms by MBR overlap degree")
	t.Render(out)
}

// fig5Sizes are the paper's total buffer sizes in pages (full scale).
var fig5Sizes = []int{200, 400, 800, 1600, 2400, 3200}

// Fig5 measures total disk accesses as a function of the LRU buffer size
// for the three variants, with 8 and with 24 processors (d = n, task
// reassignment on the root level, per §4.3).
func Fig5(w *Workload, out io.Writer) {
	for _, procs := range []int{8, 24} {
		t := stats.NewTable(
			fmt.Sprintf("Figure 5: disk accesses, %d processors and %d disks (paper: gd < gsrr ≈ lsr; global buffer gains more from large buffers)", procs, procs),
			"buffer [pages]", "lsr", "gsrr", "gd")
		for _, size := range fig5Sizes {
			row := make([]interface{}, 0, 4)
			row = append(row, w.Pages(size, procs))
			for _, v := range []string{"lsr", "gsrr", "gd"} {
				cfg := w.config(procs, procs, size).Variant(v)
				cfg.Reassign = parjoin.ReassignRoot
				res := w.runRec("fig5", map[string]string{
					"procs": fmt.Sprint(procs), "buffer": fmt.Sprint(size), "variant": v}, cfg)
				row = append(row, res.DiskAccesses)
			}
			t.AddRow(row...)
		}
		t.Render(out)
	}
}

// Fig7 measures the effect of task reassignment: per-processor run times
// (first/average/last finisher) and disk accesses for every variant ×
// reassignment mode; 8 processors, 8 disks, 800 buffer pages (§4.4).
func Fig7(w *Workload, out io.Writer) {
	t := stats.NewTable("Figure 7: run time [s] (first/avg/last) and disk accesses; buffer 800 pages, n=d=8 "+
		"(paper: reassignment shrinks the last finisher sharply for lsr/gsrr, mildly for gd; root = none for gd)",
		"variant", "reassign", "first", "avg", "last", "total work", "disk", "reassignments")
	for _, v := range []string{"lsr", "gsrr", "gd"} {
		for _, ra := range []parjoin.Reassign{parjoin.ReassignNone, parjoin.ReassignRoot, parjoin.ReassignAll} {
			cfg := w.config(8, 8, 800).Variant(v)
			cfg.Reassign = ra
			res := w.runRec("fig7", map[string]string{"variant": v, "reassign": reassignLabel(ra)}, cfg)
			t.AddRow(v, ra.String(),
				res.FirstFinish.Seconds(), res.AvgFinish.Seconds(),
				res.ResponseTime.Seconds(), res.TotalWork.Seconds(),
				res.DiskAccesses, res.Reassignments)
		}
	}
	t.Render(out)
}

// Fig8 compares the two victim-selection strategies (§4.4, test series a/b):
// reassignment to the most loaded processor vs. an arbitrary one.
func Fig8(w *Workload, out io.Writer) {
	t := stats.NewTable("Figure 8: disk accesses by victim selection; n=d=8, buffer 800 pages, reassignment on all levels "+
		"(paper: arbitrary victims cost extra disk accesses only with local buffers)",
		"variant", "a: most-loaded", "b: arbitrary")
	for _, v := range []string{"lsr", "gsrr", "gd"} {
		row := []interface{}{v}
		for _, vict := range []parjoin.Victim{parjoin.MostLoaded, parjoin.RandomVictim} {
			cfg := w.config(8, 8, 800).Variant(v)
			cfg.Reassign = parjoin.ReassignAll
			cfg.Victim = vict
			cfg.Seed = w.Seed
			res := w.runRec("fig8", map[string]string{"variant": v, "victim": victimLabel(vict)}, cfg)
			row = append(row, res.DiskAccesses)
		}
		t.AddRow(row...)
	}
	t.Render(out)
}

// Fig9 reports the response time of the best variant (gd, reassignment on
// all levels) against the number of processors for d = 1, 8, n; the buffer
// grows linearly with 100 pages per processor (§4.5).
func Fig9(w *Workload, out io.Writer) {
	d := w.figure9()
	t := stats.NewTable("Figure 9: response time [s] vs. processors; buffer = 100 pages/processor "+
		"(paper: d=1 flattens beyond 4 processors at ≈550 s; d=n keeps falling to 62.8 s at n=24)",
		"n", "d=1", "d=8", "d=n", "total work d=n [s]")
	for i, n := range d.procs {
		t.AddRow(n,
			d.response[0][i].Seconds(),
			d.response[1][i].Seconds(),
			d.response[2][i].Seconds(),
			d.totalWork[2][i].Seconds())
	}
	t.Render(out)
}

// Fig10 reports the speed-up t(1)/t(n) for the same runs plus the disk
// accesses of the d=n series (§4.5; paper: linear speed-up for d=n, 22.6 at
// n=24, disk accesses falling as the global buffer grows).
func Fig10(w *Workload, out io.Writer) {
	d := w.figure9()
	t := stats.NewTable("Figure 10: speed-up and disk accesses vs. processors "+
		"(paper: d=n speed-up 22.6 at n=24; d=8 flattens past 10 processors)",
		"n", "speedup d=1", "speedup d=8", "speedup d=n", "disk d=n")
	t1 := [3]float64{
		float64(d.response[0][0]),
		float64(d.response[1][0]),
		float64(d.response[2][0]),
	}
	for i, n := range d.procs {
		row := []interface{}{n}
		for ci := 0; ci < 3; ci++ {
			sp := 0.0
			if rt := float64(d.response[ci][i]); rt > 0 {
				sp = t1[ci] / rt
			}
			row = append(row, sp)
		}
		row = append(row, d.disk[2][i])
		t.AddRow(row...)
	}
	t.Render(out)
}

// ExpSN goes beyond the paper's figures into its §5 future work: the same
// best-variant join run on the SVM platform (global buffer) and on a
// shared-nothing platform where every disk belongs to one processor and
// remote pages are shipped as copies. The paper conjectures upcoming
// shared-nothing machines "will be comparable to a state-of-the-art
// SVM-architecture with respect to their performance".
func ExpSN(w *Workload, out io.Writer) {
	t := stats.NewTable("Extension: SVM (global buffer) vs. shared-nothing (page shipping); gd, reassignment on all levels, d=n, buffer 100·n",
		"n", "SVM t(n) [s]", "SN t(n) [s]", "SN/SVM", "SVM disk", "SN disk")
	for _, n := range []int{1, 4, 8, 16, 24} {
		svm := w.runRec("sn", map[string]string{"n": fmt.Sprint(n), "platform": "svm"},
			w.config(n, n, 100*n))
		cfgSN := w.config(n, n, 100*n)
		cfgSN.Buffer = parjoin.SharedNothingOrg
		sn := w.runRec("sn", map[string]string{"n": fmt.Sprint(n), "platform": "sn"}, cfgSN)
		ratio := 0.0
		if svm.ResponseTime > 0 {
			ratio = float64(sn.ResponseTime) / float64(svm.ResponseTime)
		}
		t.AddRow(n, svm.ResponseTime.Seconds(), sn.ResponseTime.Seconds(),
			ratio, svm.DiskAccesses, sn.DiskAccesses)
	}
	t.Render(out)
}

// ExpEst probes the alternative the paper's §3.4 dismisses: statically
// balancing work loads by estimated task cost. It reports (a) how well a
// cheap selectivity-based estimate tracks the actual per-task work, and
// (b) how estimation-based LPT assignment compares against naive range
// assignment and against dynamic assignment with task reassignment.
func ExpEst(w *Workload, out io.Writer) {
	tasks, _, _ := parjoin.CreateTasks(w.R, w.S, join.Options{}, 3*8)
	costs := estimate.Costs(w.R, w.S, tasks)
	actual := make([]float64, len(tasks))
	for i, task := range tasks {
		n := 0
		e := join.Engine{
			Src:          join.DirectSource{R: w.R, S: w.S},
			OnCandidates: func(cs []join.Candidate) { n += len(cs) },
		}
		e.Run(task)
		actual[i] = float64(n)
	}
	corr := estimate.Correlation(costs, actual)
	if w.Rec != nil {
		w.Rec.Add("est", map[string]string{"measure": "correlation"},
			map[string]float64{"pearson_r": corr, "tasks": float64(len(tasks))})
	}
	fmt.Fprintf(out, "estimate vs actual per-task work: Pearson r = %.2f over %d tasks\n", corr, len(tasks))
	fmt.Fprintf(out, "(the paper's §3.4 argument: cheap estimates track clustered spatial work poorly)\n\n")

	t := stats.NewTable("Extension: static assignments vs. dynamic reassignment; local buffers, n=d=8, buffer 800 pages",
		"assignment", "reassign", "first [s]", "avg [s]", "last [s]", "disk")
	rows := []struct {
		name, key string
		assign    parjoin.Assignment
		reassign  parjoin.Reassign
	}{
		{"static range", "range", parjoin.StaticRange, parjoin.ReassignNone},
		{"static estimated (LPT)", "lpt", parjoin.StaticEstimated, parjoin.ReassignNone},
		{"static estimated (LPT)", "lpt", parjoin.StaticEstimated, parjoin.ReassignAll},
		{"dynamic", "dynamic", parjoin.Dynamic, parjoin.ReassignAll},
	}
	for _, r := range rows {
		cfg := w.config(8, 8, 800)
		cfg.Buffer = parjoin.LocalOrg
		cfg.Assign = r.assign
		cfg.Reassign = r.reassign
		res := w.runRec("est", map[string]string{
			"assignment": r.key, "reassign": reassignLabel(r.reassign)}, cfg)
		t.AddRow(r.name, r.reassign.String(),
			res.FirstFinish.Seconds(), res.AvgFinish.Seconds(),
			res.ResponseTime.Seconds(), res.DiskAccesses)
	}
	t.Render(out)
}
