// Command spjoin runs one parallel spatial join — either simulated on the
// virtual shared-virtual-memory machine (default, reporting the paper's
// measures) or natively with goroutines (-native).
//
// Usage:
//
//	spjoin [-scale 0.1] [-seed 42] [-dist uniform|gauss|diag]
//	       [-procs 8] [-disks 8] [-buffer 800]
//	       [-engine tree|partition|auto] [-grid 0] [-refine 0]
//	       [-variant gd|gsrr|lsr|sn|est] [-reassign none|root|all]
//	       [-victim loaded|random] [-native] [-repeat 1]
//	       [-kernel auto|purego] [-printkernel]
//	       [-metrics out.json]
//	       [-timeline out.json] [-report] [-pprof :6060]
//	       [-explain] [-slowlog 50ms] [-explain-svg heat.svg]
//	       [-loadR r.csv -loadS s.csv]
//
// -engine=partition joins the raw rectangle sets with the grid-partitioned
// in-memory engine (internal/partjoin): no trees are built and execution is
// always native. -grid fixes the grid side (0 picks it from the input
// size) and -refine sets the hot-tile split threshold: a tile whose
// estimated sweep cost exceeds it is joined as several units, each a range
// of the tile sweep's events (0 = auto, negative = off). -engine=auto
// probes the inputs with internal/plan and picks engine, grid, split and
// workers itself (printing the decision). The default tree engine simulates the paper's machine, or
// runs the native tree join with -native.
//
// -timeline writes a Perfetto/Chrome trace-event file (open it at
// ui.perfetto.dev); -report prints the critical-path attribution and the
// per-processor utilization/skew tables; -pprof serves net/http/pprof and
// expvar (including a live metrics snapshot) on the given address for the
// duration of the run.
//
// Every native join (partition or -native tree) lands in an always-on
// flight recorder (internal/flight) and is bracketed by a runtime health
// window (internal/runtimeobs): the EXPLAIN report attributes the join's
// wall time across work, GC pauses, scheduler delay and lock contention.
// -explain prints the EXPLAIN ANALYZE report for the run; -slowlog prints
// it only when the join's wall time exceeds the given threshold;
// -explain-svg additionally writes the tile-cost heatmap as SVG. With
// -pprof, /debug/joins serves the recorded executions as JSON and
// /debug/joins/live the progress (done/total work units, ETA) of joins
// currently in flight — useful with -repeat, which re-runs the native
// join N times so there is something in flight to watch.
package main

import (
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"spjoin/internal/flight"
	"spjoin/internal/geom"
	"spjoin/internal/mapio"
	"spjoin/internal/metrics"
	"spjoin/internal/parjoin"
	"spjoin/internal/parnative"
	"spjoin/internal/partjoin"
	"spjoin/internal/plan"
	"spjoin/internal/report"
	"spjoin/internal/rtree"
	"spjoin/internal/runtimeobs"
	"spjoin/internal/sim"
	"spjoin/internal/stats"
	"spjoin/internal/tiger"
	"spjoin/internal/timeline"
)

// observability bundles the optional -metrics registry and its output path.
type observability struct {
	reg         *metrics.Registry
	metricsPath string
}

// newObservability creates the registry when a metrics path is given.
func newObservability(metricsPath string) *observability {
	o := &observability{metricsPath: metricsPath}
	if metricsPath != "" {
		o.reg = metrics.NewRegistry()
	}
	return o
}

// finish writes the metrics snapshot and prints a summary table of every
// registered instrument.
func (o *observability) finish() error {
	if o.reg == nil || o.metricsPath == "" {
		// -pprof alone creates a registry for the expvar snapshot without a
		// metrics output file; nothing to write then.
		return nil
	}
	f, err := os.Create(o.metricsPath)
	if err != nil {
		return err
	}
	if err := o.reg.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("metrics:                %s\n\n", o.metricsPath)
	renderSnapshot(o.reg.Snapshot())
	return nil
}

// renderSnapshot prints every counter, gauge and histogram as an aligned
// table, sorted by name so the output is reproducible.
func renderSnapshot(snap metrics.Snapshot) {
	t := stats.NewTable("Metrics", "name", "value")
	names := make([]string, 0, len(snap.Counters))
	for name := range snap.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.AddRow(name, snap.Counters[name])
	}
	names = names[:0]
	for name := range snap.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.AddRow(name, fmt.Sprintf("%.3f", snap.Gauges[name]))
	}
	names = names[:0]
	for name := range snap.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := snap.Histograms[name]
		cells := make([]string, 0, len(h.Counts))
		for i, c := range h.Counts {
			bound := "inf"
			if i < len(h.Bounds) {
				bound = fmt.Sprintf("%d", h.Bounds[i])
			}
			cells = append(cells, fmt.Sprintf("le%s:%d", bound, c))
		}
		t.AddRow(name, fmt.Sprintf("n=%d sum=%d [%s]", h.Count, h.Sum, strings.Join(cells, " ")))
	}
	t.Render(os.Stdout)
}

// introspection bundles the flight recorder and the report triggers for
// the native join paths. The zero value records nothing (tests use it);
// main always wires a recorder so /debug/joins has history even when no
// report was asked for.
type introspection struct {
	flights *flight.Recorder
	planRec flight.Plan   // captured planner decision, zero when none
	explain bool          // always print the EXPLAIN report
	slowlog time.Duration // print it when wall time exceeds this (>0)
	svgPath string        // write the tile-cost heatmap SVG here

	// Runtime health: health brackets each join with a runtime/metrics
	// window (nil = no sampling, as in the zero value), and progress is
	// the live-progress slot the engine publishes to (served by
	// /debug/joins/live when -pprof mounted the registry).
	health   *runtimeobs.Sampler
	progress *runtimeobs.Progress
}

// record captures one execution: ring, metrics export, and — when -explain
// asked for it or the join breached -slowlog — the EXPLAIN report and SVG.
func (in *introspection) record(out io.Writer, reg *metrics.Registry, rec *flight.Record) {
	rec.Start = time.Now().Add(-time.Duration(rec.WallNS))
	rec.Plan = in.planRec
	rec.Seq = in.flights.Add(rec)
	flight.Observe(reg, rec)
	slow := in.slowlog > 0 && rec.WallNS >= in.slowlog.Nanoseconds()
	if slow {
		fmt.Fprintf(out, "\nslowlog: join exceeded %v\n", in.slowlog)
	}
	if in.explain || slow {
		fmt.Fprintln(out)
		flight.Explain(out, rec)
	}
	if in.svgPath != "" && rec.HeatW > 0 {
		svg, err := report.HeatmapSVG("tile cost heat", rec.HeatW, rec.HeatH, rec.Heat)
		if err == nil {
			err = os.WriteFile(in.svgPath, []byte(svg), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "spjoin: -explain-svg: %v\n", err)
			return
		}
		fmt.Fprintf(out, "heatmap:      %s\n", in.svgPath)
	}
}

// joinsHandler serves the flight recorder's history as JSON (oldest
// first), mounted as /debug/joins on the -pprof mux.
func joinsHandler(flights *flight.Recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(flights.Snapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// liveHandler serves the in-flight joins (runtimeobs live-progress
// snapshot) as JSON, mounted as /debug/joins/live. An idle process
// serves [], never null, so pollers can range unconditionally.
func liveHandler(live *runtimeobs.Live) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		snap := live.Snapshot()
		if snap == nil {
			snap = []runtimeobs.Status{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snap); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// newDebugMux assembles the -pprof endpoint set on a dedicated mux:
// net/http/pprof, expvar, OpenMetrics, and the flight-recorder views.
// A dedicated mux (instead of http.DefaultServeMux) keeps the handlers
// testable and makes double registration impossible by construction.
func newDebugMux(reg *metrics.Registry, flights *flight.Recorder, live *runtimeobs.Live) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.Handle("/metrics", metricsHandler(reg))
	mux.Handle("/debug/joins", joinsHandler(flights))
	mux.Handle("/debug/joins/live", liveHandler(live))
	return mux
}

func main() {
	scale := flag.Float64("scale", 0.1, "workload scale (1.0 = paper cardinalities)")
	seed := flag.Int64("seed", 42, "workload generator seed")
	procs := flag.Int("procs", 8, "simulated processors (or goroutines with -native)")
	disks := flag.Int("disks", 8, "simulated disks")
	bufferPages := flag.Int("buffer", 800, "total LRU buffer size in pages")
	engine := flag.String("engine", "tree", "join engine: tree (R-tree based) | partition (grid-partitioned, native) | auto (planner picks)")
	grid := flag.Int("grid", 0, "partition engine grid side (0 = choose from input size)")
	refine := flag.Int64("refine", 0, "partition hot-tile split threshold: tiles costlier than this are swept as several units (0 = auto, negative = off)")
	variant := flag.String("variant", "gd", "lsr | gsrr | gd | sn (shared-nothing) | est (estimated static)")
	reassign := flag.String("reassign", "all", "task reassignment: none | root | all")
	victim := flag.String("victim", "loaded", "victim selection: loaded | random")
	native := flag.Bool("native", false, "run natively with goroutines instead of simulating")
	kernel := flag.String("kernel", "auto", "filter kernel path: auto (best for this CPU) | purego (scalar fallback)")
	printKernel := flag.Bool("printkernel", false, "print the active filter kernel path and exit")
	metricsOut := flag.String("metrics", "", "write a JSON metrics snapshot to this file")
	timelineOut := flag.String("timeline", "", "write a Perfetto trace-event timeline to this file")
	reportFlag := flag.Bool("report", false, "print the critical-path / load-balance report")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof and expvar on this address (e.g. :6060)")
	explain := flag.Bool("explain", false, "print an EXPLAIN ANALYZE report for the native join")
	slowlog := flag.Duration("slowlog", 0, "print the EXPLAIN report when the join exceeds this wall time (e.g. 50ms)")
	explainSVG := flag.String("explain-svg", "", "write the tile-cost heatmap SVG to this file (implies introspection)")
	loadR := flag.String("loadR", "", "CSV file for relation R (default: generated streets)")
	loadS := flag.String("loadS", "", "CSV file for relation S (default: generated mixed features)")
	dist := flag.String("dist", "uniform", "generated workload shape: uniform (TIGER-like maps) | gauss (clustered hotspots) | diag (diagonal band)")
	repeat := flag.Int("repeat", 1, "run the native join this many times (reports the last; earlier iterations feed /debug/joins and /debug/joins/live)")
	flag.Parse()

	if err := geom.SetKernel(*kernel); err != nil {
		fmt.Fprintf(os.Stderr, "spjoin: -kernel: %v\n", err)
		os.Exit(2)
	}
	if *printKernel {
		fmt.Println(geom.KernelName())
		return
	}

	obs := newObservability(*metricsOut)
	live := runtimeobs.NewLive()
	intro := &introspection{
		flights: flight.NewRecorder(16),
		explain: *explain,
		slowlog: *slowlog,
		svgPath: *explainSVG,
		health:  runtimeobs.NewSampler(),
	}

	if *pprofAddr != "" {
		if obs.reg == nil {
			obs.reg = metrics.NewRegistry()
		}
		reg := obs.reg
		expvar.Publish("spjoin.metrics", expvar.Func(func() interface{} { return reg.Snapshot() }))
		mux := newDebugMux(reg, intro.flights, live)
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spjoin: -pprof: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("pprof/expvar on http://%s/debug/pprof/, OpenMetrics on /metrics, flight recorder on /debug/joins, live progress on /debug/joins/live\n", ln.Addr())
		go http.Serve(ln, mux)
	}

	var streets, mixed []rtree.Item
	if *loadR != "" || *loadS != "" {
		if *loadR == "" || *loadS == "" {
			fmt.Fprintln(os.Stderr, "spjoin: -loadR and -loadS must be given together")
			os.Exit(2)
		}
		var err error
		if streets, err = loadCSV(*loadR); err != nil {
			fmt.Fprintf(os.Stderr, "spjoin: %v\n", err)
			os.Exit(1)
		}
		if mixed, err = loadCSV(*loadS); err != nil {
			fmt.Fprintf(os.Stderr, "spjoin: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("loaded %d + %d objects from %s, %s\n", len(streets), len(mixed), *loadR, *loadS)
	} else {
		fmt.Printf("generating %s maps at scale %g (seed %d)...\n", *dist, *scale, *seed)
		var err error
		if streets, mixed, err = generate(*dist, *scale, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "spjoin: %v\n", err)
			os.Exit(2)
		}
	}
	if *engine == "auto" {
		// The planner probes the raw inputs and rewrites the engine flags
		// with its decision; execution then follows the ordinary paths
		// below, so auto runs exactly what a hand-picked invocation would.
		maxW := *procs
		if maxW <= 0 {
			maxW = runtime.GOMAXPROCS(0)
		}
		st := plan.Analyze(streets, mixed)
		d := plan.Decide(st, maxW)
		fmt.Printf("planner: n=%d+%d skew=%.2f replication=%.2f -> %v\n",
			st.NR, st.NS, st.Skew, st.Rep, d)
		intro.planRec = flight.Plan{
			Source: "auto", Engine: d.Engine.String(),
			Grid: d.Grid, RefineThreshold: d.RefineThreshold, Workers: d.Workers,
			NR: st.NR, NS: st.NS, Skew: st.Skew, Rep: st.Rep,
			Selectivity: st.Selectivity, Probe: st.Probe,
		}
		*procs = d.Workers
		if d.Engine == plan.EnginePartition {
			*engine = "partition"
			*grid = d.Grid
			*refine = d.RefineThreshold
		} else {
			*engine = "tree"
			*native = true
		}
	}
	switch *engine {
	case "partition":
		workers := *procs
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		if intro.planRec.Engine == "" {
			intro.planRec = flight.Plan{
				Source: "forced", Engine: "partition",
				Grid: *grid, RefineThreshold: *refine, Workers: workers,
			}
		}
		var rec *timeline.Recorder
		if *timelineOut != "" || *reportFlag {
			rec = timeline.NewWallRecorder(workers)
		}
		intro.progress = live.NewProgress("partition")
		for i := repeatCount(*repeat); i > 1; i-- {
			// Warm-up / soak iterations: full executions feeding the flight
			// recorder and the live endpoint, with the human reports muted.
			quiet := *intro
			quiet.explain, quiet.slowlog, quiet.svgPath = false, 0, ""
			runPartition(io.Discard, streets, mixed, workers, *grid, *refine, obs, nil, &quiet)
		}
		runPartition(os.Stdout, streets, mixed, workers, *grid, *refine, obs, rec, intro)
		if rec != nil {
			if err := finishTimeline(rec, *timelineOut, *reportFlag, rec.MaxEnd()); err != nil {
				fmt.Fprintf(os.Stderr, "spjoin: %v\n", err)
				os.Exit(1)
			}
		}
		if err := obs.finish(); err != nil {
			fmt.Fprintf(os.Stderr, "spjoin: %v\n", err)
			os.Exit(1)
		}
		return
	case "tree":
		// Fall through to the tree-based engines below.
	default:
		fmt.Fprintf(os.Stderr, "spjoin: unknown -engine %q\n", *engine)
		os.Exit(2)
	}

	t0 := time.Now()
	r := rtree.BulkLoadSTRParallel(rtree.DefaultParams(), streets, 0.73, 0)
	s := rtree.BulkLoadSTRParallel(rtree.DefaultParams(), mixed, 0.73, 0)
	fmt.Printf("trees built in %v: %d + %d objects, heights %d/%d\n\n",
		time.Since(t0).Round(time.Millisecond), r.Len(), s.Len(), r.Height(), s.Height())

	if *native {
		workers := *procs
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		if intro.planRec.Engine == "" {
			intro.planRec = flight.Plan{Source: "forced", Engine: "tree", Workers: workers}
		}
		var rec *timeline.Recorder
		if *timelineOut != "" || *reportFlag {
			rec = timeline.NewWallRecorder(workers)
		}
		intro.progress = live.NewProgress("tree")
		for i := repeatCount(*repeat); i > 1; i-- {
			quiet := *intro
			quiet.explain, quiet.slowlog, quiet.svgPath = false, 0, ""
			runNative(io.Discard, r, s, workers, obs, nil, &quiet)
		}
		runNative(os.Stdout, r, s, workers, obs, rec, intro)
		if rec != nil {
			// No simulated response time: the wall response is the latest
			// recorded span end.
			if err := finishTimeline(rec, *timelineOut, *reportFlag, rec.MaxEnd()); err != nil {
				fmt.Fprintf(os.Stderr, "spjoin: %v\n", err)
				os.Exit(1)
			}
		}
		if err := obs.finish(); err != nil {
			fmt.Fprintf(os.Stderr, "spjoin: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if intro.explain || intro.slowlog > 0 || intro.svgPath != "" {
		fmt.Fprintln(os.Stderr, "spjoin: -explain/-slowlog/-explain-svg apply to the native engines"+
			" (-engine partition, -engine auto, or -native); the simulated run keeps virtual time only")
	}

	var rec *timeline.Recorder
	if *timelineOut != "" || *reportFlag {
		rec = timeline.NewRecorder(*procs, *disks)
	}

	var cfg parjoin.Config
	switch *variant {
	case "sn":
		cfg = parjoin.DefaultConfig(*procs, *disks, *bufferPages)
		cfg.Buffer = parjoin.SharedNothingOrg
	case "est":
		cfg = parjoin.DefaultConfig(*procs, *disks, *bufferPages)
		cfg.Buffer = parjoin.LocalOrg
		cfg.Assign = parjoin.StaticEstimated
	default:
		cfg = parjoin.DefaultConfig(*procs, *disks, *bufferPages).Variant(*variant)
	}
	switch *reassign {
	case "none":
		cfg.Reassign = parjoin.ReassignNone
	case "root":
		cfg.Reassign = parjoin.ReassignRoot
	case "all":
		cfg.Reassign = parjoin.ReassignAll
	default:
		fmt.Fprintf(os.Stderr, "spjoin: unknown -reassign %q\n", *reassign)
		os.Exit(2)
	}
	switch *victim {
	case "loaded":
		cfg.Victim = parjoin.MostLoaded
	case "random":
		cfg.Victim = parjoin.RandomVictim
	default:
		fmt.Fprintf(os.Stderr, "spjoin: unknown -victim %q\n", *victim)
		os.Exit(2)
	}

	cfg.Metrics = obs.reg
	cfg.Timeline = rec

	t0 = time.Now()
	res := parjoin.Run(r, s, cfg)
	wall := time.Since(t0)

	fmt.Printf("variant %s (%s buffer, %s assignment), reassignment %s, victim %s\n",
		*variant, cfg.Buffer, cfg.Assign, cfg.Reassign, cfg.Victim)
	fmt.Printf("processors %d, disks %d, buffer %d pages\n\n", cfg.Procs, cfg.Disks, cfg.BufferPages)
	fmt.Printf("tasks created (m):      %d (subtree level %d)\n", res.TasksCreated, res.TaskLevel)
	fmt.Printf("candidates:             %d\n", res.Candidates)
	fmt.Printf("response time:          %.1f s (virtual)\n", res.ResponseTime.Seconds())
	fmt.Printf("first / avg finisher:   %.1f s / %.1f s\n", res.FirstFinish.Seconds(), res.AvgFinish.Seconds())
	fmt.Printf("total work:             %.1f s\n", res.TotalWork.Seconds())
	fmt.Printf("disk accesses:          %d (%d data pages)\n", res.DiskAccesses, res.DataDiskAccesses)
	fmt.Printf("buffer:                 %d local hits, %d remote hits, %d misses (hit rate %.1f%%)\n",
		res.Buffer.LocalHits, res.Buffer.RemoteHits, res.Buffer.Misses, res.Buffer.HitRate()*100)
	fmt.Printf("path buffer hits:       %d\n", res.PathBufferHits)
	fmt.Printf("task reassignments:     %d\n", res.Reassignments)
	fmt.Printf("simulated in:           %v wall time\n", wall.Round(time.Millisecond))
	if err := finishTimeline(rec, *timelineOut, *reportFlag, res.ResponseTime); err != nil {
		fmt.Fprintf(os.Stderr, "spjoin: %v\n", err)
		os.Exit(1)
	}
	if err := obs.finish(); err != nil {
		fmt.Fprintf(os.Stderr, "spjoin: %v\n", err)
		os.Exit(1)
	}
}

// finishTimeline writes the Perfetto export and/or prints the analyzer
// report; a nil recorder (profiling off) is a no-op.
func finishTimeline(rec *timeline.Recorder, path string, report bool, response sim.Time) error {
	if rec == nil {
		return nil
	}
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := rec.WritePerfetto(f); err != nil {
			f.Close()
			return fmt.Errorf("write timeline: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("timeline:               %d spans -> %s (open at ui.perfetto.dev)\n", rec.SpanCount(), path)
	}
	if report {
		fmt.Println()
		timeline.Analyze(rec, response).Render(os.Stdout)
	}
	return nil
}

// metricsHandler serves the registry as OpenMetrics text (the /metrics
// endpoint Prometheus scrapes), mounted on the -pprof mux.
func metricsHandler(reg *metrics.Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		if err := reg.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// repeatCount clamps -repeat to at least one execution.
func repeatCount(n int) int {
	if n < 1 {
		return 1
	}
	return n
}

// generate builds the two input relations for the requested distribution.
// uniform is the TIGER-like map pair the paper scales; gauss piles both
// sides into the same gaussian hotspots (the skewed workload the hot-tile
// split and the runtime-health smoke test exercise); diag
// lays both sides along a jittered diagonal band.
func generate(dist string, scale float64, seed int64) (streets, mixed []rtree.Item, err error) {
	n := int(120000 * scale)
	if n < 1000 {
		n = 1000
	}
	switch dist {
	case "uniform":
		streets, mixed = tiger.Maps(scale, seed)
	case "gauss":
		streets = tiger.GaussianClusters(n, 4, 2, 0.05, 41, seed)
		mixed = tiger.GaussianClusters(n, 4, 2, 0.05, 41, seed+1)
	case "diag":
		streets = tiger.DiagonalLine(n, 3, 0.3, seed)
		mixed = tiger.DiagonalLine(n, 3, 0.3, seed+1)
	default:
		return nil, nil, fmt.Errorf("unknown -dist %q (uniform | gauss | diag)", dist)
	}
	return streets, mixed, nil
}

func loadCSV(path string) ([]rtree.Item, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return mapio.Read(f)
}

// runPartition runs one partition join, prints its report, hands its
// record to intro (which exports it to obs.reg) and returns its Result.
func runPartition(out io.Writer, r, s []rtree.Item, workers, grid int, refine int64, obs *observability, rec *timeline.Recorder, intro *introspection) partjoin.Result {
	cfg := partjoin.Config{
		Workers:         workers,
		Grid:            grid,
		RefineThreshold: refine,
		Timeline:        rec,
	}
	if intro != nil {
		cfg.Progress = intro.progress
		intro.health.Begin()
	}
	t0 := time.Now()
	res := partjoin.Join(r, s, cfg)
	wall := time.Since(t0)
	fmt.Fprintf(out, "partition join with %d goroutines\n", res.Workers)
	fmt.Fprintf(out, "grid:         %dx%d (%d work units)\n", res.GX, res.GY, res.Partitions)
	if res.RefinedTiles > 0 {
		fmt.Fprintf(out, "split:        %d hot tiles -> %d units\n", res.RefinedTiles, res.Subtiles)
	}
	fmt.Fprintf(out, "candidates:   %d\n", len(res.Candidates))
	fmt.Fprintf(out, "duplicates:   %d suppressed\n", res.Duplicates)
	fmt.Fprintf(out, "comparisons:  %d\n", res.Comparisons)
	fmt.Fprintf(out, "wall time:    %v\n", wall.Round(time.Microsecond))
	fmt.Fprintf(out, "pairs/worker: %v\n", res.PerWorker)
	if obs.reg != nil {
		fmt.Fprintln(out)
		renderPartitionSummary(out, &res, intro)
	}
	if intro != nil {
		frec := flight.Record{
			WallNS: wall.Nanoseconds(),
			Engine: "partition",
			NR:     len(r), NS: len(s),
			Candidates: len(res.Candidates), Comparisons: res.Comparisons,
			Duplicates: res.Duplicates,
			GX:         res.GX, GY: res.GY, Partitions: res.Partitions,
			RefinedTiles: res.RefinedTiles, Subtiles: res.Subtiles,
			Reuse: res.Reuse, DeltaRects: res.DeltaRects,
			PhaseNS:     res.PhaseNS,
			WorkerPairs: toInt64s(res.PerWorker),
			TopTiles:    res.TopTiles,
			HeatW:       res.HeatW, HeatH: res.HeatH, Heat: res.Heat,
			Health: intro.health.End(wall.Nanoseconds(), res.Workers),
		}
		intro.record(out, obs.reg, &frec)
	}
	return res
}

// toInt64s widens a per-worker count slice for the flight record.
func toInt64s(in []int) []int64 {
	if in == nil {
		return nil
	}
	out := make([]int64, len(in))
	for i, v := range in {
		out[i] = int64(v)
	}
	return out
}

// renderPartitionSummary prints the curated view of one partition join's
// Result: the headline figures plus the per-worker pair distribution
// (min/mean/max and max/mean skew, the load-balance measure the paper
// tracks), and — when a plan was captured — the planner's decision and
// driving stats.
func renderPartitionSummary(out io.Writer, res *partjoin.Result, intro *introspection) {
	t := stats.NewTable("Partition engine metrics (partjoin.*)", "measure", "value")
	t.AddRow("filter kernel", geom.KernelName())
	if intro != nil && intro.planRec.Engine != "" {
		p := &intro.planRec
		t.AddRow("plan source", p.Source)
		t.AddRow("plan engine", p.Engine)
		t.AddRow("plan grid", fmt.Sprintf("%dx%d", p.Grid, p.Grid))
		t.AddRow("plan workers", p.Workers)
		if p.NR > 0 || p.NS > 0 {
			t.AddRow("plan skew", fmt.Sprintf("%.2f", p.Skew))
			t.AddRow("plan replication", fmt.Sprintf("%.2f", p.Rep))
			t.AddRow("plan selectivity", fmt.Sprintf("%.3g", p.Selectivity))
		}
	}
	t.AddRow("non-empty partitions", res.Partitions)
	t.AddRow("split tiles", res.RefinedTiles)
	t.AddRow("units of split tiles", res.Subtiles)
	t.AddRow("comparisons", res.Comparisons)
	t.AddRow("candidates", len(res.Candidates))
	t.AddRow("duplicates suppressed", res.Duplicates)
	pairs := make([]float64, len(res.PerWorker))
	for w, n := range res.PerWorker {
		pairs[w] = float64(n)
	}
	if sum := stats.Summarize(pairs); sum.N > 0 {
		t.AddRow("pairs/worker min/mean/max", fmt.Sprintf("%.0f / %.1f / %.0f", sum.Min, sum.Mean, sum.Max))
		t.AddRow("pairs/worker skew (max/mean)", fmt.Sprintf("%.2f", sum.Skew()))
	}
	t.Render(out)
}

// runNative is runPartition for the native R*-tree join.
func runNative(out io.Writer, r, s *rtree.Tree, workers int, obs *observability, rec *timeline.Recorder, intro *introspection) parnative.Result {
	cfg := parnative.Config{
		Workers:  workers,
		Timeline: rec,
	}
	if intro != nil {
		cfg.Progress = intro.progress
		intro.health.Begin()
	}
	t0 := time.Now()
	res := parnative.Join(r, s, cfg)
	wall := time.Since(t0)
	fmt.Fprintf(out, "native parallel join with %d goroutines\n", res.Workers)
	fmt.Fprintf(out, "tasks (m):    %d\n", res.Tasks)
	fmt.Fprintf(out, "candidates:   %d\n", len(res.Candidates))
	fmt.Fprintf(out, "wall time:    %v\n", wall.Round(time.Microsecond))
	fmt.Fprintf(out, "pairs/worker: %v\n", res.PerWorker)
	if intro != nil {
		frec := flight.Record{
			WallNS: wall.Nanoseconds(),
			Engine: "tree",
			NR:     r.Len(), NS: s.Len(),
			Candidates:    len(res.Candidates),
			Comparisons:   res.Comparisons,
			Tasks:         res.Tasks,
			PairsExpanded: res.PairsExpanded,
			PhaseNS:       res.PhaseNS,
			WorkerPairs:   toInt64s(res.PerWorker),
			Health:        intro.health.End(wall.Nanoseconds(), res.Workers),
		}
		intro.record(out, obs.reg, &frec)
	}
	return res
}
