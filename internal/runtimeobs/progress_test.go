package runtimeobs

import (
	"sync"
	"testing"
)

// TestProgressLifecycle pins the counter and ETA math across one window.
func TestProgressLifecycle(t *testing.T) {
	p := NewProgress("partition")
	if _, ok := p.Status(); ok {
		t.Fatal("never-started slot reported a status")
	}
	p.Start()
	p.SetTotal(4, 100)
	st, ok := p.Status()
	if !ok || !st.Running || st.Engine != "partition" || st.Seq != 1 {
		t.Fatalf("bad started status: %+v ok=%v", st, ok)
	}
	if st.ETANS != -1 || st.Frac != 0 {
		t.Fatalf("empty window should have unknown ETA: %+v", st)
	}

	p.UnitDone(60)
	p.UnitDone(15)
	st, _ = p.Status()
	if st.UnitsDone != 2 || st.UnitsTotal != 4 || st.CostDone != 75 || st.CostTotal != 100 {
		t.Fatalf("counters wrong: %+v", st)
	}
	if st.Frac != 0.75 {
		t.Fatalf("frac %v, want 0.75", st.Frac)
	}
	if st.ETANS < 0 {
		t.Fatalf("pending window must estimate an ETA: %+v", st)
	}
	// elapsed * remaining/done = elapsed/3; pin the ratio loosely.
	if st.ETANS > st.ElapsedNS {
		t.Fatalf("ETA %d exceeds elapsed %d at 75%% done", st.ETANS, st.ElapsedNS)
	}

	// A unit found to be empty retracts itself and its cost from the
	// schedule; the remaining unit finishes the window with done == total
	// on both axes.
	p.AddTotal(-1, -20)
	p.UnitDone(5)
	p.Finish()
	st, _ = p.Status()
	if st.Running {
		t.Fatal("finished slot still running")
	}
	if st.UnitsDone != 3 || st.UnitsTotal != 3 || st.CostDone != 80 || st.CostTotal != 80 {
		t.Fatalf("final accounting wrong: %+v", st)
	}
	if st.Frac != 1 || st.ETANS != 0 {
		t.Fatalf("complete window must report frac=1 eta=0: %+v", st)
	}
}

// TestProgressReuse pins that Start resets a slot for the next join and
// bumps the sequence number so pollers can tell windows apart.
func TestProgressReuse(t *testing.T) {
	p := NewProgress("native")
	p.Start()
	p.SetTotal(10, 10)
	for i := 0; i < 10; i++ {
		p.UnitDone(1)
	}
	p.Finish()
	p.Start()
	st, ok := p.Status()
	if !ok || st.Seq != 2 || !st.Running {
		t.Fatalf("reused slot wrong: %+v", st)
	}
	if st.UnitsDone != 0 || st.UnitsTotal != 0 || st.CostDone != 0 || st.CostTotal != 0 {
		t.Fatalf("Start did not reset counters: %+v", st)
	}
}

// TestProgressNil pins that every method ignores a nil receiver.
func TestProgressNil(t *testing.T) {
	var p *Progress
	p.Start()
	p.SetTotal(1, 1)
	p.AddTotal(1, 1)
	p.UnitDone(1)
	p.Finish()
	if _, ok := p.Status(); ok {
		t.Fatal("nil slot reported a status")
	}
}

// TestProgressZeroAlloc pins the hot path: UnitDone never allocates, and a
// full Start/SetTotal/Finish window on a reused slot doesn't either.
func TestProgressZeroAlloc(t *testing.T) {
	p := NewProgress("partition")
	p.Start()
	p.SetTotal(1, 1)
	p.UnitDone(1)
	p.Finish()
	if a := testing.AllocsPerRun(100, func() { p.UnitDone(1) }); a != 0 {
		t.Fatalf("UnitDone allocates %.1f/op", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		p.Start()
		p.SetTotal(8, 80)
		p.UnitDone(10)
		p.Finish()
	}); a != 0 {
		t.Fatalf("progress window allocates %.1f/op", a)
	}
}

// TestLiveSnapshot pins the registry contract: only running slots appear,
// in registration order, and a nil registry hands out nil slots.
func TestLiveSnapshot(t *testing.T) {
	l := NewLive()
	a := l.NewProgress("partition")
	b := l.NewProgress("native")
	if got := l.Snapshot(); len(got) != 0 {
		t.Fatalf("idle registry snapshot %v", got)
	}
	a.Start()
	a.SetTotal(2, 2)
	b.Start()
	if got := l.Snapshot(); len(got) != 2 ||
		got[0].Engine != "partition" || got[1].Engine != "native" {
		t.Fatalf("snapshot wrong: %+v", got)
	}
	b.Finish()
	if got := l.Snapshot(); len(got) != 1 || got[0].Engine != "partition" {
		t.Fatalf("finished slot still visible: %+v", got)
	}
	a.Finish()
	if got := l.Snapshot(); len(got) != 0 {
		t.Fatalf("all-finished snapshot %v", got)
	}

	var nilLive *Live
	if p := nilLive.NewProgress("x"); p != nil {
		t.Fatal("nil registry handed out a real slot")
	}
	if got := nilLive.Snapshot(); got != nil {
		t.Fatalf("nil registry snapshot %v", got)
	}
}

// TestProgressConcurrent hammers one slot from publisher and poller
// goroutines; run under -race this pins the locking discipline.
func TestProgressConcurrent(t *testing.T) {
	l := NewLive()
	p := l.NewProgress("partition")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			l.Snapshot()
			p.Status()
		}
	}()
	for j := 0; j < 20; j++ {
		p.Start()
		p.SetTotal(100, 1000)
		var pub sync.WaitGroup
		for w := 0; w < 4; w++ {
			pub.Add(1)
			go func() {
				defer pub.Done()
				for i := 0; i < 25; i++ {
					p.UnitDone(10)
				}
			}()
		}
		pub.Wait()
		if st, _ := p.Status(); st.UnitsDone != 100 || st.CostDone != 1000 {
			t.Fatalf("lost updates: %+v", st)
		}
		p.Finish()
	}
	close(stop)
	wg.Wait()
}
