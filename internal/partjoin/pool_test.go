package partjoin

import (
	"sync/atomic"
	"testing"
)

// markTask records which workers ran and sums per-worker contributions.
type markTask struct {
	ran   []atomic.Int64
	total atomic.Int64
}

func (t *markTask) RunWorker(w int) {
	t.ran[w].Add(1)
	t.total.Add(int64(w + 1))
}

func TestPoolRunsEveryWorkerEachPhase(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		p := NewPool(workers)
		task := &markTask{ran: make([]atomic.Int64, workers)}
		const phases = 50
		for i := 0; i < phases; i++ {
			p.Run(task)
		}
		p.Close()
		for w := 0; w < workers; w++ {
			if got := task.ran[w].Load(); got != phases {
				t.Fatalf("workers=%d: worker %d ran %d phases, want %d",
					workers, w, got, phases)
			}
		}
		want := int64(phases * workers * (workers + 1) / 2)
		if got := task.total.Load(); got != want {
			t.Fatalf("workers=%d: total %d, want %d", workers, got, want)
		}
	}
}

// TestPoolPhaseIsBarrier pins that Run does not return before every worker
// finished: each phase reads the counter value the previous phase left.
type barrierTask struct {
	t       *testing.T
	counter atomic.Int64
	start   int64
}

func (b *barrierTask) RunWorker(w int) {
	if got := b.counter.Load(); got < b.start {
		b.t.Errorf("phase started before previous phase completed: %d < %d", got, b.start)
	}
	b.counter.Add(1)
}

func TestPoolPhaseIsBarrier(t *testing.T) {
	const workers = 4
	p := NewPool(workers)
	defer p.Close()
	task := &barrierTask{t: t}
	for i := 0; i < 100; i++ {
		task.start = int64(i * workers)
		p.Run(task)
		if got := task.counter.Load(); got != int64((i+1)*workers) {
			t.Fatalf("after phase %d: counter %d, want %d", i, got, (i+1)*workers)
		}
	}
}

func TestPoolRunAllocs(t *testing.T) {
	for _, workers := range []int{1, 3} {
		p := NewPool(workers)
		task := &markTask{ran: make([]atomic.Int64, workers)}
		p.Run(task) // warm up
		allocs := testing.AllocsPerRun(100, func() { p.Run(task) })
		p.Close()
		if allocs != 0 {
			t.Errorf("workers=%d: Run allocated %.1f objects per phase, want 0", workers, allocs)
		}
	}
}
