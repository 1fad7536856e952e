package parnative

import (
	"testing"

	"spjoin/internal/runtimeobs"
)

// TestJoinProgress pins the tree executor's progress contract on both
// entry points: every unit run is one unit done, the leaf pairs a paged
// worker expands grow the total, and at the drain done == total == the sum
// of PerWorker.
func TestJoinProgress(t *testing.T) {
	r, s := testTrees(t)
	for _, e := range engines(t, r, s, 16) {
		t.Run(e.name, func(t *testing.T) { joinProgress(t, e) })
	}
}

func joinProgress(t *testing.T, e engine) {
	live := runtimeobs.NewLive()
	prog := live.NewProgress("native")

	for seq, workers := range []int{1, 4} {
		res := e.run(t, Config{Workers: workers, Progress: prog})
		st, ok := prog.Status()
		if !ok || st.Running {
			t.Fatalf("w=%d: slot not settled: %+v ok=%v", workers, st, ok)
		}
		if st.Seq != uint64(seq+1) {
			t.Fatalf("w=%d: seq %d, want %d", workers, st.Seq, seq+1)
		}
		if st.UnitsDone != st.UnitsTotal || st.CostDone != st.CostTotal {
			t.Fatalf("w=%d: not settled: %+v", workers, st)
		}
		expanded := int64(0)
		for _, n := range res.PerWorker {
			expanded += int64(n)
		}
		if st.UnitsDone != expanded {
			t.Fatalf("w=%d: progress saw %d units, workers expanded %d",
				workers, st.UnitsDone, expanded)
		}
		if st.UnitsDone < int64(res.Tasks) {
			t.Fatalf("w=%d: %d units < %d initial tasks", workers, st.UnitsDone, res.Tasks)
		}
		if st.Frac != 1 || st.ETANS != 0 {
			t.Fatalf("w=%d: settled slot reports frac=%v eta=%d", workers, st.Frac, st.ETANS)
		}
	}
	if got := live.Snapshot(); len(got) != 0 {
		t.Fatalf("idle registry snapshot: %+v", got)
	}
}

// TestJoinProgressObservationOnly pins that attaching a slot does not
// change the result (compared sorted).
func TestJoinProgressObservationOnly(t *testing.T) {
	r, s := testTrees(t)
	plain := Join(r, s, Config{Workers: 4})
	prog := runtimeobs.NewProgress("native")
	observed := Join(r, s, Config{Workers: 4, Progress: prog})
	sorted(plain.Candidates)
	sorted(observed.Candidates)
	if len(plain.Candidates) != len(observed.Candidates) {
		t.Fatalf("progress changed the result: %d vs %d pairs",
			len(plain.Candidates), len(observed.Candidates))
	}
	for i := range plain.Candidates {
		if plain.Candidates[i] != observed.Candidates[i] {
			t.Fatalf("pair %d differs with progress attached", i)
		}
	}
}
