package spjoin

// Golden-timeline regression harness: the span profiler's view of the seed
// workload — span counts, SHA-256 span-stream digests and the critical-path
// attribution line — is captured in testdata/golden_timeline.json at 1, 2
// and 4 processors. Any change to the simulator, the span call sites or the
// recorder that shifts a single span boundary fails this test; intentional
// changes regenerate the file with
//
//	go test -run TestGoldenTimeline -update .
//
// (sharing the -update flag with the golden-metrics harness).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"spjoin/internal/metrics"
	"spjoin/internal/parjoin"
	"spjoin/internal/timeline"
)

// goldenTimelineProcs are the machine sizes the digests are pinned at.
var goldenTimelineProcs = []int{1, 2, 4}

type goldenTimelineEntry struct {
	Procs        int    `json:"procs"`
	BufferPages  int    `json:"buffer_pages"`
	Spans        int    `json:"spans"`
	ResponseS    string `json:"response_s"`
	Digest       string `json:"digest"`
	CriticalPath string `json:"critical_path"`
}

type goldenTimeline struct {
	Scale   float64               `json:"scale"`
	Seed    int64                 `json:"seed"`
	Disks   int                   `json:"disks"`
	Entries []goldenTimelineEntry `json:"entries"`
}

// timelineRun executes the gd seed join at the given processor count with a
// recorder attached and returns the recorder plus the run's Result.
func timelineRun(tb testing.TB, procs int) (*timeline.Recorder, parjoin.Result) {
	tb.Helper()
	w := goldenWorkload(tb)
	pages := w.Pages(goldenBufferFull, procs)
	rec := timeline.NewRecorder(procs, goldenDisks)
	cfg := parjoin.DefaultConfig(procs, goldenDisks, pages).Variant("gd")
	cfg.Timeline = rec
	return rec, parjoin.Run(w.R, w.S, cfg)
}

func collectGoldenTimeline(tb testing.TB) goldenTimeline {
	tb.Helper()
	g := goldenTimeline{Scale: goldenScale, Seed: goldenSeed, Disks: goldenDisks}
	for _, procs := range goldenTimelineProcs {
		rec, res := timelineRun(tb, procs)
		rep := timeline.Analyze(rec, res.ResponseTime)
		g.Entries = append(g.Entries, goldenTimelineEntry{
			Procs:        procs,
			BufferPages:  goldenWorkload(tb).Pages(goldenBufferFull, procs),
			Spans:        rec.SpanCount(),
			ResponseS:    fmt.Sprintf("%.3f", res.ResponseTime.Seconds()),
			Digest:       rec.Digest(),
			CriticalPath: rep.AttributionLine(),
		})
	}
	return g
}

func goldenTimelinePath() string { return filepath.Join("testdata", "golden_timeline.json") }

// TestGoldenTimeline compares the recorded seed timelines against the
// committed digests byte-for-byte.
func TestGoldenTimeline(t *testing.T) {
	g := collectGoldenTimeline(t)
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got := append(data, '\n')
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenTimelinePath()), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenTimelinePath(), got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenTimelinePath())
		return
	}
	want, err := os.ReadFile(goldenTimelinePath())
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("timeline digests diverged from %s (run with -update if intentional)\ngot:\n%s\nwant:\n%s",
			goldenTimelinePath(), got, want)
	}
}

// TestTimelineObservationOnly extends the metrics observation-only contract
// to the span profiler: a profiled run reproduces the unprofiled Result bit
// for bit for every buffer variant, and two profiled runs record identical
// span streams.
func TestTimelineObservationOnly(t *testing.T) {
	w := goldenWorkload(t)
	pages := w.Pages(goldenBufferFull, goldenProcs)
	for _, v := range []string{"lsr", "gsrr", "gd"} {
		plain := parjoin.Run(w.R, w.S, parjoin.DefaultConfig(goldenProcs, goldenDisks, pages).Variant(v))

		rec := timeline.NewRecorder(goldenProcs, goldenDisks)
		cfg := parjoin.DefaultConfig(goldenProcs, goldenDisks, pages).Variant(v)
		cfg.Timeline = rec
		res := parjoin.Run(w.R, w.S, cfg)

		if res.ResponseTime != plain.ResponseTime || res.DiskAccesses != plain.DiskAccesses ||
			res.Candidates != plain.Candidates || res.Buffer != plain.Buffer ||
			res.Reassignments != plain.Reassignments {
			t.Fatalf("%s: profiled run diverged from plain run:\n%+v\nvs\n%+v", v, res, plain)
		}

		rec2 := timeline.NewRecorder(goldenProcs, goldenDisks)
		cfg2 := parjoin.DefaultConfig(goldenProcs, goldenDisks, pages).Variant(v)
		cfg2.Timeline = rec2
		parjoin.Run(w.R, w.S, cfg2)
		if rec.Digest() != rec2.Digest() {
			t.Fatalf("%s: two profiled runs recorded different span streams", v)
		}
		if rec.SpanCount() == 0 {
			t.Fatalf("%s: profiled run recorded no spans", v)
		}
	}
}

// TestTimelineCarriesSimEvents pins the timeline as the simulator's one
// per-event stream: each occurrence the paper totals (node-pair expansions,
// physical reads, task reassignments, idle waits, remote buffer hits) is
// recorded as exactly one span, so counting spans reproduces the Result and
// the registry.
func TestTimelineCarriesSimEvents(t *testing.T) {
	w := goldenWorkload(t)
	pages := w.Pages(goldenBufferFull, goldenProcs)
	for _, v := range []string{"lsr", "gsrr", "gd"} {
		rec := timeline.NewRecorder(goldenProcs, goldenDisks)
		reg := metrics.NewRegistry()
		cfg := parjoin.DefaultConfig(goldenProcs, goldenDisks, pages).Variant(v)
		cfg.Timeline = rec
		cfg.Metrics = reg
		res := parjoin.Run(w.R, w.S, cfg)
		snap := reg.Snapshot()

		var kinds [timeline.NumKinds]int64
		var reassigns int64
		for _, tracks := range [][]timeline.Track{rec.Procs(), rec.Disks()} {
			for _, tr := range tracks {
				for _, sp := range tr.Spans {
					kinds[sp.Kind]++
					if sp.Kind == timeline.KindReassign && sp.Args.A >= 0 {
						reassigns++
					}
				}
			}
		}
		for _, c := range []struct {
			what      string
			spans     int64
			reference int64
		}{
			{"cpu-sweep spans vs sim.join.pairs_expanded", kinds[timeline.KindCPUSweep], snap.Counters["sim.join.pairs_expanded"]},
			{"disk-service spans vs DiskAccesses", kinds[timeline.KindDiskService], res.DiskAccesses},
			{"reassign spans (A >= 0) vs Reassignments", reassigns, int64(res.Reassignments)},
			{"queue-idle spans vs sim.idle.spans", kinds[timeline.KindQueueIdle], snap.Counters["sim.idle.spans"]},
			{"remote-buffer spans vs Buffer.RemoteHits", kinds[timeline.KindRemoteBuffer], res.Buffer.RemoteHits},
		} {
			if c.spans != c.reference {
				t.Errorf("%s: %s: %d != %d", v, c.what, c.spans, c.reference)
			}
		}
		if kinds[timeline.KindCPUSweep] == 0 || kinds[timeline.KindDiskService] == 0 {
			t.Fatalf("%s: no cpu-sweep or disk-service spans recorded", v)
		}
	}
}

// TestTimelineExportAndAttribution checks, at every pinned processor count,
// that the Perfetto export passes the trace-event validator and that the
// critical-path attribution sums to the run's response time.
func TestTimelineExportAndAttribution(t *testing.T) {
	for _, procs := range goldenTimelineProcs {
		rec, res := timelineRun(t, procs)

		var buf bytes.Buffer
		if err := rec.WritePerfetto(&buf); err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if err := timeline.ValidateTraceEvents(buf.Bytes()); err != nil {
			t.Fatalf("procs=%d: exported trace invalid: %v", procs, err)
		}

		rep := timeline.Analyze(rec, res.ResponseTime)
		sum, response := float64(rep.AttributionSum()), float64(res.ResponseTime)
		if math.Abs(sum-response) > 1e-6*math.Max(1, response) {
			t.Errorf("procs=%d: attribution sums to %v, response is %v", procs, sum, response)
		}
		if rep.MaxMeanRatio < 1 && procs > 1 {
			t.Errorf("procs=%d: max/mean load ratio %v < 1", procs, rep.MaxMeanRatio)
		}
	}
}
