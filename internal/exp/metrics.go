package exp

import (
	"fmt"
	"io"

	"spjoin/internal/metrics"
	"spjoin/internal/stats"
)

// ExpMetrics runs the three buffer variants of §4.3 with the metrics layer
// attached and reports the registry's view of each run next to the
// simulator's own Result figures. The two columns must agree exactly: the
// counters observe the simulation, they never advance virtual time, so an
// instrumented run is bit-identical to an uninstrumented one.
func ExpMetrics(w *Workload, out io.Writer) {
	t := stats.NewTable("Metrics registry vs. simulator results; n=d=8, buffer 800 pages, reassignment on all levels "+
		"(every pair must match: instrumentation is observation-only)",
		"variant", "measure", "result", "registry")
	for _, v := range []string{"lsr", "gsrr", "gd"} {
		reg := metrics.NewRegistry()
		cfg := w.config(8, 8, 800).Variant(v)
		cfg.Metrics = reg
		res := w.run(cfg)
		snap := reg.Snapshot()

		disk := snap.Counters["sim.disk.reads.directory"] + snap.Counters["sim.disk.reads.data"]
		t.AddRow(v, "disk accesses", res.DiskAccesses, disk)
		t.AddRow(v, "buffer misses", res.Buffer.Misses, snap.Counters["sim.buffer.misses"])
		t.AddRow(v, "local hits", res.Buffer.LocalHits, snap.Counters["sim.buffer.local_hits"])
		t.AddRow(v, "remote hits", res.Buffer.RemoteHits, snap.Counters["sim.buffer.remote_hits"])
		t.AddRow(v, "candidates", res.Candidates, snap.Counters["sim.join.candidates"])
		t.AddRow(v, "reassignments", res.Reassignments, snap.Counters["sim.reassign.successes"])
		t.AddRow(v, "response [s]", fmt.Sprintf("%.3f", res.ResponseTime.Seconds()),
			fmt.Sprintf("%.3f", snap.Gauges["sim.response_s"]))
	}
	t.Render(out)
}
