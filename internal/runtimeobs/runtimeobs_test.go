package runtimeobs

import (
	"runtime/metrics"
	"strings"
	"testing"
)

// TestSamplerWindow pins the basic contract: a bracketed window samples,
// the attribution tiles the wall clock exactly, and the raw deltas are
// non-negative (every sampled series is cumulative).
func TestSamplerWindow(t *testing.T) {
	s := NewSampler()
	s.Begin()
	// Churn some allocation so the window has something to observe.
	sink := make([][]byte, 0, 256)
	for i := 0; i < 256; i++ {
		sink = append(sink, make([]byte, 4096))
	}
	_ = sink
	h := s.End(1_000_000, 4)
	if !h.Sampled {
		t.Fatal("window not sampled")
	}
	if h.WallNS != 1_000_000 || h.Workers != 4 {
		t.Fatalf("window identity wrong: %+v", h)
	}
	if got := h.WorkNS + h.GCNS + h.SchedNS + h.ContentionNS; got != h.WallNS {
		t.Fatalf("attribution does not tile the wall: %d != %d (%+v)", got, h.WallNS, h)
	}
	for name, v := range map[string]int64{
		"gc_pause":    h.GCPauseNS,
		"sched_delay": h.SchedDelayNS,
		"mutex_wait":  h.MutexWaitNS,
		"gc_cpu":      h.GCCPUNS,
		"alloc":       h.AllocBytes,
		"gc_cycles":   h.GCCycles,
	} {
		if v < 0 {
			t.Fatalf("%s delta negative: %d", name, v)
		}
	}
	// The alloc series is assembled from per-P caches and can lag a little;
	// require most of the churn to show, not a byte-exact match.
	if h.AllocBytes < 256*4096/2 {
		t.Fatalf("alloc delta %d missed the window's %d bytes", h.AllocBytes, 256*4096)
	}
	if h.GoroutinesStart <= 0 || h.GoroutinesEnd <= 0 {
		t.Fatalf("goroutine counts absent: %+v", h)
	}
}

// TestSamplerNilAndUnbegun pins the no-op paths: a nil sampler and an End
// without Begin both return an unsampled zero Health.
func TestSamplerNilAndUnbegun(t *testing.T) {
	var nilS *Sampler
	nilS.Begin() // must not panic
	if h := nilS.End(5, 1); h.Sampled || h != (Health{}) {
		t.Fatalf("nil sampler returned %+v", h)
	}
	s := NewSampler()
	if h := s.End(5, 1); h.Sampled {
		t.Fatalf("End without Begin sampled: %+v", h)
	}
	s.Begin()
	s.End(5, 1)
	if h := s.End(5, 1); h.Sampled {
		t.Fatalf("second End reused a consumed Begin: %+v", h)
	}
}

// TestSamplerZeroAlloc pins the steady-state contract: after the warm-up
// in NewSampler, a Begin/End window allocates nothing.
func TestSamplerZeroAlloc(t *testing.T) {
	s := NewSampler()
	s.Begin()
	s.End(1000, 2)
	allocs := testing.AllocsPerRun(50, func() {
		s.Begin()
		s.End(1000, 2)
	})
	if allocs != 0 {
		t.Fatalf("sampler window allocates %.1f/op, want 0", allocs)
	}
}

// TestHistTotalNS pins the histogram reduction on fabricated buckets,
// including the ±Inf edge buckets runtime histograms carry.
func TestHistTotalNS(t *testing.T) {
	// metrics.Sample with a histogram can only come from metrics.Read, so
	// reduce a real one and check plausibility instead of exact values.
	samples := []metrics.Sample{{Name: gcPausesName}}
	metrics.Read(samples)
	if samples[0].Value.Kind() != metrics.KindFloat64Histogram {
		t.Skip("toolchain lacks " + gcPausesName)
	}
	total := histTotalNS(&samples[0])
	if total < 0 {
		t.Fatalf("negative histogram total %d", total)
	}
	// A second read must be monotonically non-decreasing (cumulative series).
	metrics.Read(samples)
	if again := histTotalNS(&samples[0]); again < total {
		t.Fatalf("histogram total went backwards: %d then %d", total, again)
	}
}

// TestAttributeClamps pins the attribution math on fabricated deltas: each
// interference class is clamped to the remaining wall and work is the
// residue, so pathological deltas can never attribute more than the wall.
func TestAttributeClamps(t *testing.T) {
	h := Health{Sampled: true, WallNS: 1000, Workers: 2,
		GCPauseNS: 400, SchedDelayNS: 600, MutexWaitNS: 200}
	h.Attribute()
	// gc 400, sched 600/2=300, contention 200/2=100, work 200.
	if h.GCNS != 400 || h.SchedNS != 300 || h.ContentionNS != 100 || h.WorkNS != 200 {
		t.Fatalf("attribution wrong: %+v", h)
	}

	over := Health{Sampled: true, WallNS: 1000, Workers: 1,
		GCPauseNS: 5000, SchedDelayNS: 5000, MutexWaitNS: 5000}
	over.Attribute()
	if over.GCNS != 1000 || over.SchedNS != 0 || over.ContentionNS != 0 || over.WorkNS != 0 {
		t.Fatalf("clamping failed: %+v", over)
	}
	if got := over.GCNS + over.SchedNS + over.ContentionNS + over.WorkNS; got != over.WallNS {
		t.Fatalf("clamped attribution does not tile: %d", got)
	}
}

// TestAnomalies pins the threshold flags and their zero-alloc counter.
func TestAnomalies(t *testing.T) {
	clean := Health{Sampled: true, WallNS: 1_000_000, Workers: 4,
		GoroutinesStart: 10, GoroutinesEnd: 10}
	clean.Attribute()
	if n := clean.AnomalyCount(); n != 0 {
		t.Fatalf("clean window counts %d anomalies", n)
	}
	if a := clean.Anomalies(); len(a) != 0 {
		t.Fatalf("clean window reports %v", a)
	}

	hot := Health{Sampled: true, WallNS: 1_000_000, Workers: 1,
		GCPauseNS:       100_000, // 10% > 5%
		SchedDelayNS:    150_000, // 15% > 10%
		MutexWaitNS:     80_000,  // 8% > 5%
		GoroutinesStart: 10, GoroutinesEnd: 40}
	hot.Attribute()
	if n := hot.AnomalyCount(); n != 4 {
		t.Fatalf("hot window counts %d anomalies, want 4: %v", n, hot.Anomalies())
	}
	got := strings.Join(hot.Anomalies(), "; ")
	for _, want := range []string{
		"gc-pause share 10.0% > 5.0%",
		"sched-delay share 15.0% > 10.0%",
		"contention share 8.0% > 5.0%",
		"goroutines grew",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("anomalies missing %q: %s", want, got)
		}
	}
}

// TestShares pins the share computation.
func TestShares(t *testing.T) {
	h := Health{Sampled: true, WallNS: 1000, Workers: 1, GCPauseNS: 250}
	h.Attribute()
	work, gc, sched, cont := h.Shares()
	if work != 0.75 || gc != 0.25 || sched != 0 || cont != 0 {
		t.Fatalf("shares wrong: %v %v %v %v", work, gc, sched, cont)
	}
	var zero Health
	if w, g, s, c := zero.Shares(); w != 0 || g != 0 || s != 0 || c != 0 {
		t.Fatal("zero-wall shares must be zero")
	}
}
