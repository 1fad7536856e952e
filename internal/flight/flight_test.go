package flight

import (
	"encoding/json"
	"testing"
	"time"

	"spjoin/internal/partjoin"
	"spjoin/internal/timeline"
)

func sampleRecord(i int) Record {
	rec := Record{
		Start:  time.Unix(1700000000+int64(i), 0).UTC(),
		WallNS: int64(1e6 * (i + 1)),
		Engine: "partition",
		Plan: Plan{
			Source: "auto", Engine: "partition",
			Grid: 24, Workers: 4,
			NR: 1000 * (i + 1), NS: 2000, Skew: 5.5, Rep: 1.2, Selectivity: 1e-4,
		},
		NR: 1000 * (i + 1), NS: 2000,
		Candidates: 300 + i, Duplicates: 10,
		GX: 24, GY: 24, Partitions: 100 + i,
		WorkerPairs: []int64{80, 90, 70, int64(60 + i)},
		TopTiles:    []partjoin.TileCost{{TX: 3, TY: 4, Refined: true, Cost: int64(500 + i)}},
		HeatW:       2, HeatH: 2,
		Heat: []int64{1, 2, 3, int64(4 + i)},
	}
	rec.PhaseNS[timeline.PhaseSweep] = int64(8e5)
	rec.PhaseNS[timeline.PhasePrep] = int64(1e5)
	return rec
}

func TestRecorderRing(t *testing.T) {
	r := NewRecorder(3)
	if _, ok := r.Last(); ok {
		t.Fatalf("Last on empty recorder returned ok")
	}
	if got := r.Snapshot(); len(got) != 0 {
		t.Fatalf("Snapshot on empty recorder: %d records", len(got))
	}
	for i := 0; i < 5; i++ {
		rec := sampleRecord(i)
		if seq := r.Add(&rec); seq != uint64(i+1) {
			t.Fatalf("Add %d: seq=%d", i, seq)
		}
	}
	if r.Len() != 3 || r.Total() != 5 {
		t.Fatalf("Len=%d Total=%d, want 3/5", r.Len(), r.Total())
	}
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("Snapshot: %d records", len(snap))
	}
	// Oldest first: records 3, 4, 5 survive the wraparound.
	for i, rec := range snap {
		if rec.Seq != uint64(i+3) {
			t.Errorf("snap[%d].Seq=%d, want %d", i, rec.Seq, i+3)
		}
		if rec.Candidates != 300+int(rec.Seq)-1 {
			t.Errorf("seq %d: candidates=%d", rec.Seq, rec.Candidates)
		}
	}
	last, ok := r.Last()
	if !ok || last.Seq != 5 {
		t.Fatalf("Last: ok=%v seq=%d", ok, last.Seq)
	}
	// Deep copies: mutating the snapshot must not touch the ring.
	snap[2].Heat[0] = -99
	last2, _ := r.Last()
	if last2.Heat[0] == -99 {
		t.Fatalf("Snapshot aliases the ring's heat buffer")
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	rec := sampleRecord(0)
	if seq := r.Add(&rec); seq != 0 {
		t.Fatalf("nil Add: seq=%d", seq)
	}
	if r.Len() != 0 || r.Total() != 0 {
		t.Fatalf("nil Len/Total non-zero")
	}
	if _, ok := r.Last(); ok {
		t.Fatalf("nil Last returned ok")
	}
	if r.Snapshot() != nil {
		t.Fatalf("nil Snapshot non-nil")
	}
	Observe(nil, &rec) // must not panic
}

// A warm recorder reuses its slot buffers: after one full lap with
// same-shaped records, Add allocates nothing.
func TestRecorderAddZeroAllocWarm(t *testing.T) {
	r := NewRecorder(4)
	rec := sampleRecord(1)
	for i := 0; i < 8; i++ {
		r.Add(&rec)
	}
	allocs := testing.AllocsPerRun(100, func() { r.Add(&rec) })
	if allocs != 0 {
		t.Fatalf("warm Add allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestRecordJSONRoundTrip(t *testing.T) {
	rec := sampleRecord(2)
	rec.Seq = 7
	buf, err := json.Marshal(&rec)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Record
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Seq != 7 || back.Engine != "partition" || back.Plan.Grid != 24 ||
		back.PhaseNS[timeline.PhaseSweep] != rec.PhaseNS[timeline.PhaseSweep] ||
		len(back.Heat) != 4 || back.TopTiles[0].Cost != rec.TopTiles[0].Cost {
		t.Fatalf("round trip mismatch: %+v", back)
	}
}

func TestWorkersFallback(t *testing.T) {
	rec := sampleRecord(0)
	if rec.Workers() != 4 {
		t.Fatalf("Workers from pairs: %d", rec.Workers())
	}
	rec.WorkerPairs = nil
	if rec.Workers() != rec.Plan.Workers {
		t.Fatalf("Workers fallback: %d", rec.Workers())
	}
}
