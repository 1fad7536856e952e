// Command bench is the repository benchmark: five join workloads at paper
// scale run as a closed loop with one client, every op verified against the
// benchmark's own oracle. Timed ops run with tracing off; a separate traced
// pass gives the per-layer numbers. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"spjoin/internal/geom"
)

// heapLimit is the Go memory limit the benchmark runs under at scale 1,
// with GOGC off. A process whose whole live heap is one join's input would
// otherwise collect every few MB, several times inside one op, and op time
// would measure the pacer's luck: bigrect_oneshot read 42 to 105 ms from one
// binary and seed. The limit stands for the heap of the application a join
// runs in; what an op allocates is gated by alloc_mb_per_op.
const heapLimit = 2 << 30

// setupReps is how often a workload is set up; setup_s is the median.
const setupReps = 5

// config is one invocation's plan.
type config struct {
	seed        int64
	scale       float64
	workers     int
	only        []string
	round       time.Duration // length of one timed round per workload
	rounds      int           // timed rounds, interleaved over the workloads
	timed       bool          // run the timed rounds (end-to-end metrics)
	traced      bool          // run the traced pass (per-layer metrics)
	tracedLen   time.Duration // length of the traced pass per workload
	membufBytes int           // size of the memory-bandwidth reference array
}

// meta is recorded in every result file; -compare refuses files whose
// kernel, GOMAXPROCS or scale differ.
type meta struct {
	Seed        int64   `json:"seed"`
	Scale       float64 `json:"scale"`
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	CPUModel    string  `json:"cpu_model"`
	Kernel      string  `json:"kernel"`
	Commit      string  `json:"commit"`
	RoundS      float64 `json:"round_s"`
	Rounds      int     `json:"rounds"`
	LLCBytes    int     `json:"llc_bytes"`
	MembufBytes int     `json:"membw_array_bytes"`
}

// workloadResult is what one workload measured. PerRound holds each
// end-to-end metric's value per timed round (per set-up for setup_s); their
// spread is what -compare calls unresolved.
type workloadResult struct {
	Name      string               `json:"name"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]float64   `json:"metrics"`
	PerRound  map[string][]float64 `json:"per_round"`
}

type result struct {
	Meta      meta             `json:"meta"`
	Workloads []workloadResult `json:"workloads"`
	spans     map[string][]span
}

func selected(only []string) ([]*workload, error) {
	if len(only) == 0 {
		out := make([]*workload, len(workloads))
		for i := range workloads {
			out[i] = &workloads[i]
		}
		return out, nil
	}
	var out []*workload
	for _, name := range only {
		found := false
		for i := range workloads {
			if workloads[i].name == name {
				out = append(out, &workloads[i])
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
	}
	return out, nil
}

// run executes the plan: set-up, interleaved timed rounds, traced pass.
func run(cfg config) (*result, error) {
	ws, err := selected(cfg.only)
	if err != nil {
		return nil, err
	}
	res := &result{spans: map[string][]span{}}
	type state struct {
		in      *instance
		oracleT time.Duration
		rounds  []sampleSet
	}
	states := make([]*state, len(ws))
	res.Workloads = make([]workloadResult, len(ws))
	for i, w := range ws {
		st := &state{}
		var want [4]digest
		var setups []float64
		for rep := 0; rep < setupReps; rep++ {
			if st.in != nil {
				st.in.close()
			}
			in, setupT, oracleT := setUp(w, cfg.seed, cfg.scale, cfg.workers, &want)
			st.in = in
			st.oracleT += oracleT
			setups = append(setups, setupT.Seconds())
		}
		states[i] = st
		res.Workloads[i] = workloadResult{
			Name:     w.name,
			Metrics:  map[string]float64{"setup_s": median(setups)},
			PerRound: map[string][]float64{"setup_s": setups},
		}
	}

	if cfg.timed {
		// Interleaved rounds: a burst of host noise lands on every
		// workload's samples, not on all samples of one workload.
		for round := 0; round < cfg.rounds; round++ {
			for _, st := range states {
				var ss sampleSet
				runtime.GC()
				deadline := time.Now().Add(cfg.round)
				for len(ss.wallNS) == 0 || time.Now().Before(deadline) {
					st.in.measureOp(nil, &ss)
				}
				st.rounds = append(st.rounds, ss)
			}
		}
	}

	for i, st := range states {
		wr := &res.Workloads[i]
		nrects := len(st.in.r) + len(st.in.s)
		var pooled sampleSet
		for _, ss := range st.rounds {
			for name, v := range ss.endToEndMetrics(nrects) {
				wr.PerRound[name] = append(wr.PerRound[name], v)
			}
			pooled.add(ss)
		}
		if cfg.timed {
			for name, v := range pooled.endToEndMetrics(nrects) {
				wr.Metrics[name] = v
			}
			wr.Attempted += len(pooled.wallNS)
			wr.Failed += pooled.failed
		}
		if cfg.traced {
			tr := newTracer()
			m, untraced, attempted, failed := tracedPass(st.in, cfg.tracedLen, tr, cfg.membufBytes, &st.oracleT)
			for name, v := range m {
				wr.Metrics[name] = v
			}
			wr.Attempted += attempted
			wr.Failed += failed
			res.spans[wr.Name] = tr.spans
			if !cfg.timed {
				pooled = untraced
			}
			// bench.*: from the timed rounds when they ran, else from
			// the traced pass's untraced ops.
			ops := float64(len(pooled.wallNS))
			wr.Metrics["bench.join_ms_p90"] = quantile(pooled.wallNS, 0.9) / 1e6
			wr.Metrics["bench.ops"] = ops
			wr.Metrics["bench.gc_cycles_per_op"] = ratio(float64(pooled.gcCycles), ops)
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			wr.Metrics["bench.heap_sys_mb"] = float64(ms.HeapSys) / 1e6
			wr.Metrics["bench.oracle_s"] = st.oracleT.Seconds()
		}
		st.in.close()
	}
	return res, nil
}

// defs lists the metrics an invocation measures, in print order.
func defs(cfg config) []metricDef {
	var out []metricDef
	for _, d := range endToEnd {
		if cfg.timed || d.Name == "setup_s" { // set-up is measured either way
			out = append(out, d)
		}
	}
	if cfg.traced {
		out = append(out, perLayer...)
	}
	return out
}

// report prints every metric by name with its unit and better-direction.
func report(w *os.File, cfg config, res *result) {
	for _, wr := range res.Workloads {
		fmt.Fprintf(w, "\n%s  attempted=%d failed=%d fail_share=%g\n",
			wr.Name, wr.Attempted, wr.Failed, ratio(float64(wr.Failed), float64(wr.Attempted)))
		for _, d := range defs(cfg) {
			bound := ""
			if d.Bound > 0 {
				bound = fmt.Sprintf("  bound %g%%", 100*d.Bound)
			}
			fmt.Fprintf(w, "  %-28s %14.6g %-8s (%s is better)%s\n", d.Name, wr.Metrics[d.Name], d.Unit, d.Better, bound)
		}
	}
}

// driverLine is the one-line JSON object the benchmark driver reads: the
// end-to-end metrics of a timed run, or the per-layer metrics of a traced
// one.
func driverLine(cfg config, wr workloadResult) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	list := perLayer
	if cfg.timed {
		list = endToEnd
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{wr.Failed == 0, wr.Attempted, wr.Failed, map[string]value{}}
	for _, d := range list {
		out.Metrics[d.Name] = value{wr.Metrics[d.Name], d.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // only non-finite values can fail here, and ratio() prevents them
	}
	return string(line)
}

// llcBytes returns the size of the largest CPU cache Linux reports, or 0.
func llcBytes() int {
	best := 0
	for i := 0; i < 8; i++ {
		data, err := os.ReadFile(fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/size", i))
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(data))
		mult := 1
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if n, err := strconv.Atoi(s); err == nil {
			best = max(best, n*mult)
		}
	}
	return best
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision `go build` stamped into the binary, if any
// (`go run` and a checkout that is not a repository stamp none).
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

func main() {
	var (
		seed     = flag.Int64("seed", 42, "workload seed: the same seed gives the same inputs")
		scale    = flag.Float64("scale", 1.0, "input scale (1.0 = the paper's 131,443 x 127,312)")
		round    = flag.Duration("round", 8*time.Second, "length of one timed round per workload")
		rounds   = flag.Int("rounds", 3, "timed rounds, interleaved over the workloads")
		trace    = flag.String("trace", "", "0: timed rounds only; 1: traced pass only; a file name: both, and write the spans there; empty: both")
		only     = flag.String("only", "", "comma-separated workloads to run (default all)")
		out      = flag.String("out", "", "write the result file (the input of -compare) here")
		compare  = flag.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
		workload = flag.String("workload", "", "driver mode: run this one workload in one round and print the driver's JSON line last")
		seconds  = flag.Int("seconds", 0, "driver mode: length in seconds of the timed round (-trace 0) or the traced pass (-trace 1)")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: bench -compare a.json b.json")
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err.Error())
		}
		return
	}

	// Fix the collector's regime (see README.md, "The collector"): no
	// proportional trigger, collect when the heap nears a fixed limit.
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(int64(float64(heapLimit) * max(1, *scale)))

	// One client, Workers = GOMAXPROCS, never more threads than CPUs.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	llc := llcBytes()
	if llc == 0 {
		llc = 64 << 20 // stands in for a cache size Linux does not report
	}
	cfg := config{
		seed: *seed, scale: *scale, workers: runtime.GOMAXPROCS(0),
		round: *round, rounds: *rounds, tracedLen: 6 * time.Second,
		timed: *trace != "1", traced: *trace != "0",
		membufBytes: 4 * llc, // so the reference streams from memory

	}
	if *only != "" {
		cfg.only = strings.Split(*only, ",")
	}
	if *workload != "" {
		cfg.only = []string{*workload}
		cfg.rounds = 1
	}
	if *seconds > 0 {
		cfg.round = time.Duration(*seconds) * time.Second
		cfg.tracedLen = cfg.round
	}

	res, err := run(cfg)
	if err != nil {
		fatal(err.Error())
	}
	res.Meta = meta{
		Seed: cfg.seed, Scale: cfg.scale, NProc: runtime.NumCPU(), GOMAXPROCS: cfg.workers,
		GoVersion: runtime.Version(), CPUModel: cpuModel(), Kernel: geom.KernelName(), Commit: commit(),
		RoundS: cfg.round.Seconds(), Rounds: cfg.rounds, LLCBytes: llc, MembufBytes: cfg.membufBytes,
	}
	metaLine, _ := json.Marshal(res.Meta)
	fmt.Printf("spjoin bench %s\n", metaLine)
	report(os.Stdout, cfg, res)

	if *out != "" {
		data, err := json.MarshalIndent(res, "", " ")
		if err == nil {
			err = os.WriteFile(*out, data, 0o644)
		}
		if err != nil {
			fatal(err.Error())
		}
	}
	if cfg.traced && *trace != "" && *trace != "1" {
		data, err := json.Marshal(res.spans)
		if err == nil {
			err = os.WriteFile(*trace, data, 0o644)
		}
		if err != nil {
			fatal(err.Error())
		}
	}
	failed := 0
	for _, wr := range res.Workloads {
		failed += wr.Failed
	}
	if *workload != "" {
		fmt.Println(driverLine(cfg, res.Workloads[0]))
	}
	if failed > 0 {
		fatal(fmt.Sprintf("%d ops failed oracle verification", failed))
	}
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "bench:", msg)
	os.Exit(1)
}
