package spjoin

// Golden-metrics regression harness: the metrics Registry's view of the
// seed workload is captured byte-for-byte in testdata/golden_metrics.json.
// Any change to the simulator, the buffer manager, the join kernel or the
// metrics plumbing that shifts a counter fails this test; intentional
// changes regenerate the file with
//
//	go test -run TestGoldenMetrics -update .
//
// and the new snapshot is reviewed in the diff like any other code change.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"spjoin/internal/exp"
	"spjoin/internal/join"
	"spjoin/internal/metrics"
	"spjoin/internal/parjoin"
	"spjoin/internal/parnative"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_metrics.json")

// goldenScale/goldenSeed pin the workload; goldenProcs etc. the machine.
// These are the bench_test.go settings, so the figures below also appear in
// BENCH snapshots.
const (
	goldenScale       = 0.02
	goldenSeed        = 42
	goldenProcs       = 8
	goldenDisks       = 8
	goldenBufferFull  = 800 // full-scale pages; Workload.Pages scales them
	goldenTaskBudget  = 24  // native task-creation budget, constant across worker counts
	goldenWorkerSweep = "1/2/4/8"
)

// goldenVariant is one simulated run's registry figures.
type goldenVariant struct {
	Variant       string `json:"variant"`
	DiskAccesses  int64  `json:"disk_accesses"`
	DataDisk      int64  `json:"data_disk_accesses"`
	VirtualS      string `json:"virtual_s"`
	Candidates    int64  `json:"candidates"`
	PairsExpanded int64  `json:"pairs_expanded"`
	BufferMisses  int64  `json:"buffer_misses"`
	LocalHits     int64  `json:"local_hits"`
	RemoteHits    int64  `json:"remote_hits"`
}

// goldenMetrics is the committed snapshot layout. Struct fields (not maps)
// keep the JSON field order fixed, so encoding is deterministic.
type goldenMetrics struct {
	Scale                 float64         `json:"scale"`
	Seed                  int64           `json:"seed"`
	Procs                 int             `json:"procs"`
	Disks                 int             `json:"disks"`
	BufferPages           int             `json:"buffer_pages"`
	Comparisons           int64           `json:"comparisons"`
	ComparisonsNoRestrict int64           `json:"comparisons_no_restriction"`
	Variants              []goldenVariant `json:"variants"`
}

func goldenWorkload(tb testing.TB) *exp.Workload {
	tb.Helper()
	return exp.NewWorkload(goldenScale, goldenSeed)
}

// collectGolden reproduces every figure of the snapshot from the metrics
// Registry — deliberately not from the simulator's own Result fields, so
// the harness exercises the full instrumentation path.
func collectGolden(tb testing.TB, w *exp.Workload) goldenMetrics {
	tb.Helper()
	pages := w.Pages(goldenBufferFull, goldenProcs)
	g := goldenMetrics{
		Scale: goldenScale, Seed: goldenSeed,
		Procs: goldenProcs, Disks: goldenDisks, BufferPages: pages,
	}
	for _, v := range []string{"lsr", "gsrr", "gd"} {
		reg := metrics.NewRegistry()
		cfg := parjoin.DefaultConfig(goldenProcs, goldenDisks, pages).Variant(v)
		cfg.Metrics = reg
		parjoin.Run(w.R, w.S, cfg)
		snap := reg.Snapshot()
		g.Variants = append(g.Variants, goldenVariant{
			Variant:       v,
			DiskAccesses:  snap.Counters["sim.disk.reads.directory"] + snap.Counters["sim.disk.reads.data"],
			DataDisk:      snap.Counters["sim.disk.reads.data"],
			VirtualS:      fmt.Sprintf("%.3f", snap.Gauges["sim.response_s"]),
			Candidates:    snap.Counters["sim.join.candidates"],
			PairsExpanded: snap.Counters["sim.join.pairs_expanded"],
			BufferMisses:  snap.Counters["sim.buffer.misses"],
			LocalHits:     snap.Counters["sim.buffer.local_hits"],
			RemoteHits:    snap.Counters["sim.buffer.remote_hits"],
		})
	}
	g.Comparisons = sequentialComparisons(w, join.Options{})
	g.ComparisonsNoRestrict = sequentialComparisons(w, join.Options{DisableRestriction: true})
	return g
}

// sequentialComparisons counts the whole sequential join's rectangle
// comparisons through the Engine's OnComparisons hook.
func sequentialComparisons(w *exp.Workload, opts join.Options) int64 {
	root, ok := join.RootPair(w.R, w.S)
	if !ok {
		return 0
	}
	var n int64
	e := join.Engine{
		Src:           join.DirectSource{R: w.R, S: w.S},
		Opts:          opts,
		OnComparisons: func(c int) { n += int64(c) },
	}
	e.Run(root)
	return n
}

func goldenPath() string { return filepath.Join("testdata", "golden_metrics.json") }

func marshalGolden(tb testing.TB, g goldenMetrics) []byte {
	tb.Helper()
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		tb.Fatal(err)
	}
	return append(data, '\n')
}

// TestGoldenMetrics compares the Registry-reproduced snapshot against the
// committed golden file byte-for-byte.
func TestGoldenMetrics(t *testing.T) {
	w := goldenWorkload(t)
	got := marshalGolden(t, collectGolden(t, w))
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath()), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath(), got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath())
		return
	}
	want, err := os.ReadFile(goldenPath())
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("metrics snapshot diverged from %s (run with -update if intentional)\ngot:\n%s\nwant:\n%s",
			goldenPath(), got, want)
	}
}

// TestGoldenMetricsPinned spells out the headline seed figures in code, so
// a bad -update cannot silently shift them: per-variant disk accesses and
// virtual response times, and the sequential comparison counts with and
// without the search-space restriction.
func TestGoldenMetricsPinned(t *testing.T) {
	w := goldenWorkload(t)
	g := collectGolden(t, w)
	wantDisk := map[string]int64{"lsr": 576, "gsrr": 346, "gd": 334}
	wantVirt := map[string]string{"lsr": "4.465", "gsrr": "2.880", "gd": "2.691"}
	for _, v := range g.Variants {
		if v.DiskAccesses != wantDisk[v.Variant] {
			t.Errorf("%s: disk accesses %d, want %d", v.Variant, v.DiskAccesses, wantDisk[v.Variant])
		}
		if v.VirtualS != wantVirt[v.Variant] {
			t.Errorf("%s: virtual seconds %s, want %s", v.Variant, v.VirtualS, wantVirt[v.Variant])
		}
		if v.Candidates != 56 {
			t.Errorf("%s: candidates %d, want 56", v.Variant, v.Candidates)
		}
	}
	if g.Comparisons != 17443 {
		t.Errorf("sequential comparisons %d, want 17443", g.Comparisons)
	}
	if g.ComparisonsNoRestrict != 4597 {
		t.Errorf("unrestricted comparisons %d, want 4597", g.ComparisonsNoRestrict)
	}
}

// TestGoldenMetricsAcrossWorkers runs the native executor at worker counts
// 1/2/4/8 with a constant task-creation budget and asserts the Registry
// reports identical scheduling-independent figures at every count — the
// same pairs expanded, comparisons and candidates, with the candidate count
// matching the simulated golden figure. Work distribution may differ; the
// work itself must not.
func TestGoldenMetricsAcrossWorkers(t *testing.T) {
	w := goldenWorkload(t)
	type figures struct{ pairs, comparisons, candidates int64 }
	var base figures
	for i, workers := range []int{1, 2, 4, 8} {
		reg := metrics.NewRegistry()
		res := parnative.Join(w.R, w.S, parnative.Config{
			Workers:    workers,
			TaskFactor: goldenTaskBudget / workers,
			Metrics:    reg,
		})
		snap := reg.Snapshot()
		got := figures{
			pairs:       snap.Counters["native.join.pairs_expanded"],
			comparisons: snap.Counters["native.join.comparisons"],
			candidates:  snap.Counters["native.join.candidates"],
		}
		if got.candidates != int64(len(res.Candidates)) {
			t.Fatalf("workers=%d: registry candidates %d, result %d",
				workers, got.candidates, len(res.Candidates))
		}
		if got.candidates != 56 {
			t.Errorf("workers=%d: candidates %d, want the golden 56", workers, got.candidates)
		}
		if i == 0 {
			base = got
			continue
		}
		if got != base {
			t.Errorf("workers=%d: figures %+v differ from workers=1 baseline %+v (%s sweep must agree)",
				workers, got, base, goldenWorkerSweep)
		}
	}
}
