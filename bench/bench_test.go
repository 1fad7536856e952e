package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"sort"
	"testing"

	"spjoin/internal/join"
)

// smokeConfig runs every workload at scale 0.01 for one timed op and a
// minimal traced pass. Nothing here asserts on wall-clock values.
func smokeConfig() config {
	return config{seed: 7, scale: 0.01, workers: 2, round: 0, rounds: 1,
		timed: true, traced: true, tracedLen: 0, membufBytes: 1 << 20}
}

func TestSmokeAllWorkloads(t *testing.T) {
	cfg := smokeConfig()
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metricDef                  `json:"end_to_end"`
		PerLayer  []metricDef                  `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bm.EndToEnd, endToEnd) || !reflect.DeepEqual(bm.PerLayer, perLayer) {
		t.Error("BENCHMARK.json metric tables differ from metrics.go")
	}
	if len(bm.Workloads) != len(workloads) || len(res.Workloads) != len(workloads) {
		t.Fatalf("workloads: BENCHMARK.json %d, bench %d, run %d", len(bm.Workloads), len(workloads), len(res.Workloads))
	}
	for i, w := range workloads {
		if bm.Workloads[i].Name != w.name || bm.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, bench has %q", i, bm.Workloads[i].Name, w.name)
		}
		wr := res.Workloads[i]
		if wr.Name != w.name || wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("%s: result %q attempted=%d failed=%d", w.name, wr.Name, wr.Attempted, wr.Failed)
		}
		// The metrics measured are exactly the metrics declared.
		var got, want []string
		for name := range wr.Metrics {
			got = append(got, name)
		}
		for _, d := range defs(cfg) {
			want = append(want, d.Name)
		}
		sort.Strings(got)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: measured metrics %v, declared %v", w.name, got, want)
		}
		checkSpanTree(t, w, res.spans[w.name])
	}
}

// checkSpanTree asserts the structure the self-time arithmetic relies on:
// roots are "op" or "probe", every other span's parent is a root of the
// same op that encloses it, and a one-shot op's children are its layers.
func checkSpanTree(t *testing.T, w workload, spans []span) {
	t.Helper()
	ops := 0
	for i, s := range spans {
		if s.EndNS < s.StartNS {
			t.Fatalf("%s: span %d %s never closed", w.name, i, s.Name)
		}
		if s.Parent < 0 {
			if s.Name != "op" && s.Name != "probe" {
				t.Errorf("%s: root span %q", w.name, s.Name)
			}
			if s.Name == "op" {
				ops++
			}
			continue
		}
		p := spans[s.Parent]
		if s.Parent >= i || p.Parent != -1 || p.Op != s.Op || s.StartNS < p.StartNS || s.EndNS > p.EndNS {
			t.Errorf("%s: span %d %s is not inside its root %d %s", w.name, i, s.Name, s.Parent, p.Name)
		}
	}
	if ops == 0 {
		t.Errorf("%s: no traced op", w.name)
	}
	var children []string
	for _, s := range spans {
		if s.Op == 1 && s.Parent >= 0 {
			children = append(children, s.Name)
		}
	}
	want := map[opKind][]string{
		opPlanned: {"plan.Analyze", "plan.Decide", "partjoin.Join"},
		opTree:    {"parnative.Join"},
		opRejoin: {"partjoin.Joiner.Join/restored", "partjoin.Joiner.Join/clean", "partjoin.Joiner.Join/intile",
			"partjoin.Joiner.Join/recount", "partjoin.Joiner.Join/resort"},
	}[w.kind]
	if w.name == "bigrect_oneshot" {
		want = []string{"plan.Analyze", "plan.Decide", "rtree.BulkLoadSTRParallel", "parnative.Join"}
	}
	if !reflect.DeepEqual(children, want) {
		t.Errorf("%s: first op's child spans %v, want %v", w.name, children, want)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "op", StartNS: 0, EndNS: 10e6, Parent: -1, Op: 1},
		{Name: "plan.Analyze", StartNS: 1e6, EndNS: 3e6, Parent: 0, Op: 1},
		{Name: "partjoin.Join", StartNS: 3e6, EndNS: 9e6, Parent: 0, Op: 1},
	}
	if got := selfMS(spans); !reflect.DeepEqual(got, []float64{2, 2, 6}) {
		t.Errorf("self times %v, want [2 2 6]", got)
	}
	m := map[string]float64{}
	opSelf(spans, m)
	if m["op.plan_ms"] != 2 || m["op.partjoin_ms"] != 6 || m["op.self_ms"] != 2 || m["op.span_coverage_pct"] != 80 {
		t.Errorf("op layer split %v", m)
	}
}

// TestRejoinStates checks oracle equality in each of the four input states
// of a tiger_rejoin cycle, and that the states really differ.
func TestRejoinStates(t *testing.T) {
	var want [4]digest
	in, _, _ := setUp(&workloads[1], 7, 0.01, 2, &want)
	defer in.close()
	rj := in.rj
	for state := 0; state < 4; state++ {
		if state > 0 {
			m := rj.muts[state-1]
			if m.next == m.orig {
				t.Errorf("mutation %d changes nothing", state)
			}
			rj.r[m.idx].Rect = m.next
		}
		res := rj.j.Join(rj.r, rj.s, rj.cfg)
		if got := digestOf(res.Candidates); got != rj.want[state] || got != oracle(rj.r, rj.s) {
			t.Errorf("state %d: engine %v, stored oracle %v, fresh oracle %v", state, got, rj.want[state], oracle(rj.r, rj.s))
		}
	}
	rj.restore()
	if _, ok := rj.cycle(nil, nil); !ok {
		t.Error("cycle after restore failed verification")
	}
}

// TestCorruptionCaught corrupts a candidate list the three ways an engine
// can get a pair set wrong and expects the digest to differ each time.
func TestCorruptionCaught(t *testing.T) {
	var want [4]digest
	in, _, _ := setUp(&workloads[0], 7, 0.01, 2, &want)
	cands := plannedJoin(nil, in.r, in.s, 2)
	if digestOf(cands) != in.want[0] || len(cands) < 2 {
		t.Fatalf("clean list: %v, want %v", digestOf(cands), in.want[0])
	}
	dropped := cands[1:]
	duplicated := append(append([]join.Candidate(nil), cands...), cands[0])
	swapped := append([]join.Candidate(nil), cands...)
	for k := range swapped { // exchange partners between two pairs that share neither side
		if swapped[k].R != swapped[0].R && swapped[k].S != swapped[0].S {
			swapped[0].S, swapped[k].S = swapped[k].S, swapped[0].S
			break
		}
	}
	for name, bad := range map[string][]join.Candidate{"dropped": dropped, "duplicated": duplicated, "swapped": swapped} {
		if digestOf(bad) == in.want[0] {
			t.Errorf("%s pair not caught", name)
		}
	}
	// The same through the op: a wrong expectation fails the op.
	in.want[0].sum++
	if _, ok := in.op(nil); ok {
		t.Error("op passed verification against a wrong digest")
	}
}

func TestVerdict(t *testing.T) {
	d := metricDef{Name: "join_ms_p50", Better: "lower", Bound: 0.10}
	steady := []float64{100, 101, 99}
	for _, c := range []struct {
		a, b   float64
		ar, br []float64
		want   string
	}{
		{100, 105, steady, []float64{105, 104, 106}, "ok"},
		{100, 115, steady, []float64{115, 114, 116}, "worse"},
		{100, 115, steady, []float64{100, 115, 130}, "unresolved"},
		{100, 60, steady, []float64{50, 60, 70}, "ok"}, // wide, but every round better
	} {
		if got := verdict(d, c.a, c.b, c.ar, c.br); got != c.want {
			t.Errorf("verdict(%v -> %v) = %s, want %s", c.a, c.b, got, c.want)
		}
	}
	up := metricDef{Name: "rects_per_s", Better: "higher", Bound: 0.10}
	if got := verdict(up, 100, 85, steady, []float64{85, 86, 84}); got != "worse" {
		t.Errorf("higher-is-better drop = %s, want worse", got)
	}
}

func TestCompareRefusesMismatch(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, m meta) string {
		data, _ := json.Marshal(result{Meta: m})
		path := dir + "/" + name
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", meta{Kernel: "avx2", GOMAXPROCS: 2, Scale: 1})
	for _, m := range []meta{{Kernel: "purego", GOMAXPROCS: 2, Scale: 1}, {Kernel: "avx2", GOMAXPROCS: 4, Scale: 1}, {Kernel: "avx2", GOMAXPROCS: 2, Scale: 0.1}} {
		if err := compareFiles(io.Discard, a, write("b.json", m)); err == nil {
			t.Errorf("compared files that differ: %+v", m)
		}
	}
	if err := compareFiles(io.Discard, a, a); err != nil {
		t.Errorf("same file: %v", err)
	}
}
