package partjoin

import (
	"testing"

	"spjoin/internal/runtimeobs"
)

// checkProgressSettled pins the engine's progress contract after a join:
// the slot is closed, both axes are fully consumed (done == total on
// units and cost), and the unit count equals the work units the engine
// says it joined — a split tile counting once per unit, not once.
func checkProgressSettled(t *testing.T, p *runtimeobs.Progress, res Result, stage string, seq uint64) {
	t.Helper()
	st, ok := p.Status()
	if !ok {
		t.Fatalf("%s: progress slot never started", stage)
	}
	if st.Running {
		t.Fatalf("%s: slot still running after Join returned", stage)
	}
	if st.Seq != seq {
		t.Fatalf("%s: seq %d, want %d", stage, st.Seq, seq)
	}
	if st.UnitsDone != st.UnitsTotal {
		t.Fatalf("%s: units %d/%d not settled", stage, st.UnitsDone, st.UnitsTotal)
	}
	if st.CostDone != st.CostTotal {
		t.Fatalf("%s: cost %d/%d not settled", stage, st.CostDone, st.CostTotal)
	}
	if st.UnitsDone != int64(res.Partitions) {
		t.Fatalf("%s: %d units reported done, engine joined %d partitions",
			stage, st.UnitsDone, res.Partitions)
	}
	if res.Partitions > 0 && st.CostDone <= 0 {
		t.Fatalf("%s: no cost recorded across %d partitions", stage, res.Partitions)
	}
	if st.Frac != 1 || st.ETANS != 0 {
		t.Fatalf("%s: settled slot reports frac=%v eta=%d", stage, st.Frac, st.ETANS)
	}
}

// TestPartitionJoinProgress drives the engine — a cold build (with split
// tiles, so units outnumber tiles), a clean fast-path rejoin, and a rebuild
// with the split disabled — against one reusable progress slot and pins the
// settled accounting.
func TestPartitionJoinProgress(t *testing.T) {
	r, s := clusteredItems(1200, 0.02, 7)
	live := runtimeobs.NewLive()
	prog := live.NewProgress("partition")
	var j Joiner
	defer j.Close()

	seq := uint64(0)
	run := func(stage string, cfg Config) Result {
		t.Helper()
		cfg.Progress = prog
		res := j.Join(r, s, cfg)
		seq++
		checkProgressSettled(t, prog, res, stage, seq)
		return res
	}

	cold := run("cold", Config{Workers: 4, RefineThreshold: 1})
	if cold.RefinedTiles == 0 || cold.Subtiles <= cold.RefinedTiles {
		t.Fatalf("cold run split %d tiles into %d units; the split units are untested",
			cold.RefinedTiles, cold.Subtiles)
	}
	run("clean-rejoin", Config{Workers: 4, RefineThreshold: 1})
	run("unrefined", Config{Workers: 2, RefineThreshold: RefineDisabled})

	// In-flight visibility: the registry shows nothing once all joins are
	// done, and an empty-input join never opens a window.
	if got := live.Snapshot(); len(got) != 0 {
		t.Fatalf("idle registry snapshot: %+v", got)
	}
	before, _ := prog.Status()
	res := j.Join(nil, s, Config{Workers: 2, Progress: prog})
	if res.Candidates != nil {
		t.Fatal("empty join returned candidates")
	}
	after, _ := prog.Status()
	if after.Seq != before.Seq {
		t.Fatal("empty-input join opened a progress window")
	}
}

// TestPartitionJoinProgressNil pins that a join without a slot behaves
// identically (the nil-check hot path).
func TestPartitionJoinProgressNil(t *testing.T) {
	r, s := clusteredItems(1500, 0.05, 9)
	var withP, without Joiner
	defer withP.Close()
	defer without.Close()
	prog := runtimeobs.NewProgress("partition")
	a, _ := sortedPairs(&withP, r, s, Config{Workers: 3, Progress: prog})
	b, _ := sortedPairs(&without, r, s, Config{Workers: 3})
	if len(a) != len(b) {
		t.Fatalf("progress changed the result: %d vs %d pairs", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pair %d differs with progress attached", i)
		}
	}
}
