package exp

import (
	"bytes"
	"strings"
	"testing"

	"spjoin/internal/metrics"
	"spjoin/internal/runstore"
)

// testWorkload is small enough for fast experiment smoke runs.
func testWorkload(tb testing.TB) *Workload {
	tb.Helper()
	return NewWorkload(0.02, 42)
}

func TestAllExperimentsRender(t *testing.T) {
	w := testWorkload(t)
	for _, e := range All() {
		if e.Name == "fig9" || e.Name == "fig10" {
			continue // covered by TestFigure9And10Shared (slower)
		}
		var buf bytes.Buffer
		e.Run(w, &buf)
		if buf.Len() == 0 {
			t.Errorf("%s rendered nothing", e.Name)
		}
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("fig5"); !ok {
		t.Fatal("fig5 not found")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("bogus experiment found")
	}
	if len(All()) != 12 {
		t.Fatalf("expected 12 experiments, got %d", len(All()))
	}
}

func TestTable1Content(t *testing.T) {
	w := testWorkload(t)
	var buf bytes.Buffer
	Table1(w, &buf)
	out := buf.String()
	for _, want := range []string{"height", "data entries", "data pages", "directory pages", "m (number of tasks)"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable2Content(t *testing.T) {
	var buf bytes.Buffer
	Table2(testWorkload(t), &buf)
	for _, want := range []string{"own buffer", "other processor", "disk", "refinement"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("Table 2 missing %q", want)
		}
	}
}

func TestFigure9And10Shared(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure-9 sweep")
	}
	w := testWorkload(t)
	var buf9, buf10 bytes.Buffer
	Fig9(w, &buf9)
	if w.fig9 == nil {
		t.Fatal("figure-9 data not memoized")
	}
	memo := w.fig9
	Fig10(w, &buf10)
	if w.fig9 != memo {
		t.Fatal("Fig10 recomputed instead of reusing the Fig9 runs")
	}
	if buf9.Len() == 0 || buf10.Len() == 0 {
		t.Fatal("figures rendered nothing")
	}
}

func TestFig9ShapeProperties(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	w := NewWorkload(0.05, 42)
	d := w.figure9()
	last := len(d.procs) - 1
	// d=n: response time at n=24 much lower than at n=1.
	if sp := float64(d.response[2][0]) / float64(d.response[2][last]); sp < 6 {
		t.Errorf("d=n speed-up at n=24 only %.1f, want >= 6", sp)
	}
	// d=1 must be the slowest configuration at n=24.
	if d.response[0][last] < d.response[2][last] {
		t.Errorf("d=1 (%v) faster than d=n (%v) at n=24",
			d.response[0][last], d.response[2][last])
	}
	// d=1 plateau: from n=4 on, adding processors gains little.
	idx4 := indexOf(d.procs, 4)
	if idx4 < 0 {
		t.Fatal("n=4 not measured")
	}
	if float64(d.response[0][last]) < 0.5*float64(d.response[0][idx4]) {
		t.Errorf("d=1: t(24)=%v less than half of t(4)=%v — should plateau",
			d.response[0][last], d.response[0][idx4])
	}
}

func indexOf(xs []int, v int) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}

func TestWorkloadHelpers(t *testing.T) {
	w := testWorkload(t)
	if got := w.Pages(800, 8); got < 8 {
		t.Fatalf("pages = %d, must be >= procs", got)
	}
	if !strings.Contains(w.Describe(), "scale") {
		t.Fatal("Describe missing scale")
	}
}

func TestInsertedWorkloadMatchesBulk(t *testing.T) {
	bulk := NewWorkload(0.01, 42)
	ins := NewInsertedWorkload(0.01, 42)
	if bulk.R.Len() != ins.R.Len() || bulk.S.Len() != ins.S.Len() {
		t.Fatal("workload builders disagree on cardinality")
	}
	if err := ins.R.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	if err := ins.S.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestExtensionExperimentsRender(t *testing.T) {
	w := testWorkload(t)
	var buf bytes.Buffer
	ExpSN(w, &buf)
	if !strings.Contains(buf.String(), "SN t(n)") {
		t.Fatal("sn experiment rendered nothing useful")
	}
	buf.Reset()
	ExpEst(w, &buf)
	out := buf.String()
	if !strings.Contains(out, "Pearson") || !strings.Contains(out, "dynamic") {
		t.Fatalf("est experiment output incomplete:\n%s", out)
	}
}

// TestSkewExperiment pins the skew extension's own contracts: the cells
// record deterministic counters (two recordings are identical), split
// and unsplit cells agree on the candidate count for every
// distribution, and the rendered table carries the whole skew ladder.
func TestSkewExperiment(t *testing.T) {
	record := func() (string, string) {
		w := testWorkload(t)
		w.Rec = NewRecording(w.Seed, w.Scale, "test")
		var buf, store bytes.Buffer
		ExpSkew(w, &buf)
		if _, err := w.Rec.WriteStore(&store); err != nil {
			t.Fatal(err)
		}
		return buf.String(), store.String()
	}
	out, store1 := record()
	for _, want := range []string{"uniform", "gauss60", "gauss20", "gauss5", "split tiles"} {
		if !strings.Contains(out, want) {
			t.Errorf("skew table missing %q:\n%s", want, out)
		}
	}
	if _, store2 := record(); store1 != store2 {
		t.Error("skew recording is not run-to-run deterministic")
	}
	s, err := runstore.Read(strings.NewReader(store1))
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 8 {
		t.Fatalf("skew recorded %d cells, want 8", s.Len())
	}
	for _, rec := range s.Records {
		if rec.Engine != "partjoin" {
			t.Errorf("skew cell %v stamped engine %q, want partjoin", rec.Params, rec.Engine)
		}
	}
	for _, dist := range []string{"uniform", "gauss60", "gauss20", "gauss5"} {
		off, err1 := s.Metric("skew", map[string]string{"dist": dist, "refine": "off"}, "candidates")
		auto, err2 := s.Metric("skew", map[string]string{"dist": dist, "refine": "auto"}, "candidates")
		if err1 != nil || err2 != nil {
			t.Fatalf("missing skew cells for %s: %v %v", dist, err1, err2)
		}
		if off != auto {
			t.Errorf("%s: candidate counts diverge split vs unsplit: %v vs %v", dist, auto, off)
		}
	}
}

// TestMetricsObservationOnly asserts the two contracts of the metrics
// layer: an instrumented run reproduces the uninstrumented Result exactly
// (counting never advances virtual time), and the registry's counters agree
// with the simulator's own accounting.
func TestMetricsObservationOnly(t *testing.T) {
	w := testWorkload(t)
	for _, v := range []string{"lsr", "gsrr", "gd"} {
		plain := w.run(w.config(8, 8, 800).Variant(v))

		reg := metrics.NewRegistry()
		cfg := w.config(8, 8, 800).Variant(v)
		cfg.Metrics = reg
		res := w.run(cfg)

		if res.ResponseTime != plain.ResponseTime || res.DiskAccesses != plain.DiskAccesses ||
			res.Candidates != plain.Candidates || res.Buffer != plain.Buffer {
			t.Fatalf("%s: instrumented run diverged from plain run:\n%+v\nvs\n%+v", v, res, plain)
		}

		snap := reg.Snapshot()
		disk := snap.Counters["sim.disk.reads.directory"] + snap.Counters["sim.disk.reads.data"]
		if disk != res.DiskAccesses {
			t.Errorf("%s: registry disk reads %d, result %d", v, disk, res.DiskAccesses)
		}
		if got := snap.Counters["sim.buffer.misses"]; got != res.Buffer.Misses {
			t.Errorf("%s: registry buffer misses %d, result %d", v, got, res.Buffer.Misses)
		}
		if got := snap.Counters["sim.join.candidates"]; got != int64(res.Candidates) {
			t.Errorf("%s: registry candidates %d, result %d", v, got, res.Candidates)
		}
		if got := snap.Gauges["sim.response_s"]; got != res.ResponseTime.Seconds() {
			t.Errorf("%s: registry response %v, result %v", v, got, res.ResponseTime.Seconds())
		}
	}
}

func TestRecordingRejectsDuplicateCell(t *testing.T) {
	rc := NewRecording(1, 1, "test")
	params := map[string]string{"v": "gd"}
	rc.Add("fig5", params, map[string]float64{"disk": 1})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Add did not panic")
		}
	}()
	rc.Add("fig5", params, map[string]float64{"disk": 2})
}
