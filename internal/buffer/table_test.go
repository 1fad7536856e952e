package buffer

// Table-driven traces against hand-computed expectations: LRU eviction
// order, pin/unpin edge cases, and the local-vs-global hit accounting of
// §3.2 — each trace is small enough to verify on paper, and each case
// cross-checks the new metrics counters against the managers' own Stats.

import (
	"testing"

	"spjoin/internal/metrics"
	"spjoin/internal/sim"
	"spjoin/internal/storage"
)

// lruOp is one step of an LRU trace.
type lruOp struct {
	op        string // "insert", "touch", "pin", "unpin", "drop"
	page      int
	wantEvict int  // page expected to be evicted by an insert; -1 for none
	wantOK    bool // expected return of touch/drop/pin
}

func ins(page, wantEvict int) lruOp { return lruOp{op: "insert", page: page, wantEvict: wantEvict} }

func TestLRUTraceTable(t *testing.T) {
	cases := []struct {
		name     string
		capacity int
		ops      []lruOp
		wantKeys []int // expected MRU→LRU order after the trace
	}{
		{
			name:     "fill then evict in FIFO order without touches",
			capacity: 3,
			ops:      []lruOp{ins(1, -1), ins(2, -1), ins(3, -1), ins(4, 1), ins(5, 2)},
			wantKeys: []int{5, 4, 3},
		},
		{
			name:     "touch promotes and changes the victim",
			capacity: 3,
			ops: []lruOp{
				ins(1, -1), ins(2, -1), ins(3, -1),
				{op: "touch", page: 1, wantOK: true},
				ins(4, 2), // 2 is now LRU, not 1
			},
			wantKeys: []int{4, 1, 3},
		},
		{
			name:     "reinserting a resident page only promotes it",
			capacity: 2,
			ops:      []lruOp{ins(1, -1), ins(2, -1), ins(1, -1), ins(3, 2)},
			wantKeys: []int{3, 1},
		},
		{
			name:     "touch of absent page is a clean miss",
			capacity: 2,
			ops: []lruOp{
				ins(1, -1),
				{op: "touch", page: 9, wantOK: false},
				ins(2, -1), ins(3, 1),
			},
			wantKeys: []int{3, 2},
		},
		{
			name:     "pinned page survives eviction pressure",
			capacity: 3,
			ops: []lruOp{
				ins(1, -1), ins(2, -1), ins(3, -1),
				{op: "pin", page: 1, wantOK: true},
				ins(4, 2), // 1 is LRU but pinned: 2 goes instead
				ins(5, 3),
				{op: "unpin", page: 1},
				ins(6, 1), // unpinned again: now 1 is evictable
			},
			wantKeys: []int{6, 5, 4},
		},
		{
			name:     "drop frees a slot regardless of position",
			capacity: 2,
			ops: []lruOp{
				ins(1, -1), ins(2, -1),
				{op: "drop", page: 2, wantOK: true},
				{op: "drop", page: 9, wantOK: false},
				ins(3, -1), // no eviction: drop made room
			},
			wantKeys: []int{3, 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewLRU(tc.capacity)
			for i, op := range tc.ops {
				switch op.op {
				case "insert":
					evicted, didEvict := b.Insert(key(0, op.page))
					if op.wantEvict < 0 && didEvict {
						t.Fatalf("op %d: insert %d evicted %v, want none", i, op.page, evicted)
					}
					if op.wantEvict >= 0 && (!didEvict || evicted != key(0, op.wantEvict)) {
						t.Fatalf("op %d: insert %d evicted %v/%v, want page %d",
							i, op.page, evicted, didEvict, op.wantEvict)
					}
				case "touch":
					if got := b.Touch(key(0, op.page)); got != op.wantOK {
						t.Fatalf("op %d: touch %d = %v, want %v", i, op.page, got, op.wantOK)
					}
				case "pin":
					if got := b.Pin(key(0, op.page)); got != op.wantOK {
						t.Fatalf("op %d: pin %d = %v, want %v", i, op.page, got, op.wantOK)
					}
				case "unpin":
					b.Unpin(key(0, op.page))
				case "drop":
					if got := b.Drop(key(0, op.page)); got != op.wantOK {
						t.Fatalf("op %d: drop %d = %v, want %v", i, op.page, got, op.wantOK)
					}
				}
			}
			keys := b.Keys()
			if len(keys) != len(tc.wantKeys) {
				t.Fatalf("final keys %v, want pages %v", keys, tc.wantKeys)
			}
			for i, want := range tc.wantKeys {
				if keys[i] != key(0, want) {
					t.Fatalf("final keys %v, want pages %v", keys, tc.wantKeys)
				}
			}
			if b.Len() != len(tc.wantKeys) {
				t.Fatalf("Len() = %d, want %d", b.Len(), len(tc.wantKeys))
			}
		})
	}
}

func TestLRUPinEdgeCases(t *testing.T) {
	t.Run("pin of absent page reports false", func(t *testing.T) {
		b := NewLRU(2)
		if b.Pin(key(0, 1)) {
			t.Fatal("pin of absent page succeeded")
		}
	})
	t.Run("unpin of unpinned page panics", func(t *testing.T) {
		b := NewLRU(2)
		b.Insert(key(0, 1))
		defer func() {
			if recover() == nil {
				t.Fatal("no panic")
			}
		}()
		b.Unpin(key(0, 1))
	})
	t.Run("unpin of absent page panics", func(t *testing.T) {
		b := NewLRU(2)
		defer func() {
			if recover() == nil {
				t.Fatal("no panic")
			}
		}()
		b.Unpin(key(0, 7))
	})
	t.Run("pins are counted, not boolean", func(t *testing.T) {
		b := NewLRU(2)
		b.Insert(key(0, 1))
		b.Pin(key(0, 1))
		b.Pin(key(0, 1))
		b.Unpin(key(0, 1))
		// Still pinned once: filling the buffer must evict page 2, not 1.
		b.Insert(key(0, 2))
		if evicted, didEvict := b.Insert(key(0, 3)); !didEvict || evicted != key(0, 2) {
			t.Fatalf("evicted %v/%v, want page 2 (page 1 still pinned)", evicted, didEvict)
		}
		b.Unpin(key(0, 1))
		if evicted, didEvict := b.Insert(key(0, 4)); !didEvict || evicted != key(0, 1) {
			t.Fatalf("evicted %v/%v, want page 1 after final unpin", evicted, didEvict)
		}
	})
	t.Run("insert into fully pinned buffer panics", func(t *testing.T) {
		b := NewLRU(2)
		b.Insert(key(0, 1))
		b.Insert(key(0, 2))
		b.Pin(key(0, 1))
		b.Pin(key(0, 2))
		defer func() {
			if recover() == nil {
				t.Fatal("no panic")
			}
		}()
		b.Insert(key(0, 3))
	})
}

// fetchStep is one page request of an accounting trace: processor proc
// requests page at a strictly later virtual time than every prior step
// (sequenced by per-step delays, so classification is deterministic).
type fetchStep struct {
	proc int
	page int
	want Class
}

// TestHitAccountingTable replays the same single-tree fetch trace against
// both buffer organizations and checks every step's classification, the
// final Stats, the eviction count, and that the metrics counters agree
// with all of them. Expectations are hand-computed LRU traces.
func TestHitAccountingTable(t *testing.T) {
	cases := []struct {
		name        string
		procs       int
		perProcCap  int
		steps       []fetchStep
		wantLocal   Stats // expected LocalBuffers stats
		wantGlobal  Stats // expected GlobalBuffer stats
		evictLocal  int64 // expected evictions, LocalBuffers
		evictGlobal int64 // expected evictions, GlobalBuffer
	}{
		{
			name:  "shared page: local buffers read twice, global once",
			procs: 2, perProcCap: 2,
			steps: []fetchStep{
				{proc: 0, page: 1, want: Miss},
				{proc: 1, page: 1, want: Miss}, // global: RemoteHit
				{proc: 0, page: 1, want: LocalHit},
				{proc: 1, page: 1, want: LocalHit}, // global: RemoteHit (owner 0)
			},
			wantLocal:  Stats{LocalHits: 2, Misses: 2},
			wantGlobal: Stats{LocalHits: 1, RemoteHits: 2, Misses: 1},
		},
		{
			name:  "eviction churn in one processor",
			procs: 1, perProcCap: 2,
			steps: []fetchStep{
				{proc: 0, page: 1, want: Miss},
				{proc: 0, page: 2, want: Miss},
				{proc: 0, page: 3, want: Miss}, // evicts 1
				{proc: 0, page: 1, want: Miss}, // evicts 2
				{proc: 0, page: 3, want: LocalHit},
			},
			wantLocal:   Stats{LocalHits: 1, Misses: 4},
			wantGlobal:  Stats{LocalHits: 1, Misses: 4},
			evictLocal:  2,
			evictGlobal: 2,
		},
		{
			name:  "global buffer aggregates capacity across partitions",
			procs: 2, perProcCap: 1,
			steps: []fetchStep{
				{proc: 0, page: 1, want: Miss},
				{proc: 1, page: 2, want: Miss},
				// Local: proc 0 re-reads page 2 from disk, evicting page 1
				// from its one-page buffer — and then re-reads 1, evicting 2.
				// Global: page 2 lives in proc 1's partition (remote hit, no
				// copy), so page 1 stays resident and step 4 is a local hit.
				{proc: 0, page: 2, want: Miss}, // global: RemoteHit
				{proc: 0, page: 1, want: Miss}, // global: LocalHit
				{proc: 1, page: 2, want: LocalHit},
			},
			wantLocal:   Stats{LocalHits: 1, Misses: 4},
			wantGlobal:  Stats{LocalHits: 2, RemoteHits: 1, Misses: 2},
			evictLocal:  2, // proc 0: page 1 evicted by 2, then 2 by 1
			evictGlobal: 0, // remote hits never copy, nothing overflows
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, global := range []bool{false, true} {
				name := "local"
				if global {
					name = "global"
				}
				k := sim.NewKernel()
				disk := storage.NewDiskArray(2, storage.DefaultDiskParams())
				var mgr Manager
				if global {
					mgr = NewGlobalBuffer(tc.procs, tc.perProcCap, disk, DefaultCostParams())
				} else {
					mgr = NewLocalBuffers(tc.procs, tc.perProcCap, disk, DefaultCostParams())
				}
				reg := metrics.NewRegistry()
				mgr.Instrument(NewMetrics(reg, "buf"))

				got := make([]Class, len(tc.steps))
				// One proc drives the whole trace sequentially in virtual
				// time so the steps are strictly ordered.
				k.Spawn("driver", func(p *sim.Proc) {
					for i, st := range tc.steps {
						got[i] = mgr.Fetch(p, st.proc, key(0, st.page), storage.DirectoryPage)
						p.Hold(50)
					}
				})
				k.Run()

				want := tc.wantLocal
				wantEvict := tc.evictLocal
				if global {
					want = tc.wantGlobal
					wantEvict = tc.evictGlobal
				}
				stats := mgr.Stats()
				if stats != want {
					t.Fatalf("%s: stats %+v, want %+v (classes %v)", name, stats, want, got)
				}
				if !global {
					for i, st := range tc.steps {
						if got[i] != st.want {
							t.Fatalf("local: step %d (proc %d page %d) = %v, want %v",
								i, st.proc, st.page, got[i], st.want)
						}
					}
				}

				snap := reg.Snapshot()
				if snap.Counters["buf.local_hits"] != stats.LocalHits ||
					snap.Counters["buf.remote_hits"] != stats.RemoteHits ||
					snap.Counters["buf.misses"] != stats.Misses {
					t.Fatalf("%s: metrics %v disagree with stats %+v", name, snap.Counters, stats)
				}
				if snap.Counters["buf.evictions"] != wantEvict {
					t.Fatalf("%s: evictions %d, want %d", name, snap.Counters["buf.evictions"], wantEvict)
				}
			}
		})
	}
}
