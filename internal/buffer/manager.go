package buffer

import (
	"fmt"

	"spjoin/internal/sim"
	"spjoin/internal/storage"
	"spjoin/internal/timeline"
)

// Class categorizes one page access by where it was satisfied.
type Class uint8

const (
	// LocalHit means the page was resident in the requesting processor's
	// own buffer (or partition of the global buffer).
	LocalHit Class = iota
	// RemoteHit means the page was resident in another processor's
	// partition of the global buffer and was read over the interconnect.
	RemoteHit
	// Miss means the page had to be read from disk.
	Miss
)

func (c Class) String() string {
	switch c {
	case LocalHit:
		return "local-hit"
	case RemoteHit:
		return "remote-hit"
	case Miss:
		return "miss"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// CostParams are the virtual-time costs of buffer accesses, derived from the
// paper's Table 2: accessing the own buffer is about 10 times faster than
// accessing the main memory of another processor. The Lock cost models the
// synchronization needed by the shared page directory of the global buffer.
type CostParams struct {
	LocalHit  sim.Time // read a page from the own buffer
	RemoteHit sim.Time // read a page from another processor's memory
	Lock      sim.Time // one acquire/release of the directory lock
}

// DefaultCostParams returns the costs used by the experiments: 0.1 ms for a
// local page (4 KB at 40 MB/s), 1.0 ms for a remote page (the paper's
// "factor of about 10"), 0.02 ms per directory lock operation.
func DefaultCostParams() CostParams {
	return CostParams{LocalHit: 0.1, RemoteHit: 1.0, Lock: 0.02}
}

// Stats counts accesses by class.
type Stats struct {
	LocalHits  int64
	RemoteHits int64
	Misses     int64
}

// Accesses returns the total number of page requests.
func (s Stats) Accesses() int64 { return s.LocalHits + s.RemoteHits + s.Misses }

// HitRate returns the fraction of requests served without disk I/O.
func (s Stats) HitRate() float64 {
	total := s.Accesses()
	if total == 0 {
		return 0
	}
	return float64(s.LocalHits+s.RemoteHits) / float64(total)
}

// Manager is a buffer organization: it satisfies page requests from
// simulated processors, charging virtual time for buffer, interconnect and
// disk work.
type Manager interface {
	// Fetch makes the page usable by processor proc (0-based processor
	// index) and returns how the request was satisfied.
	Fetch(p *sim.Proc, proc int, key PageKey, kind storage.PageKind) Class
	// Stats returns the access counters so far.
	Stats() Stats
	// Instrument attaches optional observability (nil detaches). It must
	// not change the manager's timing or replacement behavior.
	Instrument(m *Metrics)
}

// LocalBuffers is the organization of §3.1: every processor has a private
// LRU buffer and no knowledge of its peers' buffers, so the same page may be
// resident (and read from disk) many times.
type LocalBuffers struct {
	disk  *storage.DiskArray
	costs CostParams
	bufs  []*LRU
	stats Stats
	met   *Metrics
}

// NewLocalBuffers creates n private buffers of perProcCapacity pages each.
func NewLocalBuffers(n, perProcCapacity int, disk *storage.DiskArray, costs CostParams) *LocalBuffers {
	if n < 1 {
		panic("buffer: need at least one processor")
	}
	l := &LocalBuffers{disk: disk, costs: costs, bufs: make([]*LRU, n)}
	for i := range l.bufs {
		l.bufs[i] = NewLRU(perProcCapacity)
	}
	return l
}

// Fetch implements Manager.
func (l *LocalBuffers) Fetch(p *sim.Proc, proc int, key PageKey, kind storage.PageKind) Class {
	buf := l.bufs[proc]
	if buf.Touch(key) {
		l.stats.LocalHits++
		l.met.access(LocalHit)
		p.BeginSpan(timeline.KindLocalBuffer, sim.SpanArgs{A: int64(key.Page), B: int64(key.Tree)})
		p.Hold(l.costs.LocalHit)
		p.EndSpan()
		return LocalHit
	}
	l.stats.Misses++
	l.met.access(Miss)
	l.disk.Read(p, key.Page, kind)
	if _, didEvict := buf.Insert(key); didEvict {
		l.met.evict()
	}
	return Miss
}

// Stats implements Manager.
func (l *LocalBuffers) Stats() Stats { return l.stats }

// Instrument implements Manager.
func (l *LocalBuffers) Instrument(m *Metrics) { l.met = m }

// Resident reports whether proc's buffer holds key (test support).
func (l *LocalBuffers) Resident(proc int, key PageKey) bool {
	return l.bufs[proc].Contains(key)
}

// GlobalBuffer is the organization of §3.2: the union of the per-processor
// buffers forms one logical buffer. A shared directory maps each resident
// page to the processor whose memory holds it, so a page is resident at most
// once. Reading a page from another processor's memory costs the remote
// access time; the directory itself costs a lock per operation. Concurrent
// misses on the same page coalesce: the second requester waits for the
// in-flight disk read instead of issuing its own.
type GlobalBuffer struct {
	disk    *storage.DiskArray
	costs   CostParams
	parts   []*LRU          // partition per processor
	dir     map[PageKey]int // resident page -> owning processor
	pending map[PageKey]*sim.Cond
	stats   Stats
	met     *Metrics
}

// NewGlobalBuffer creates a global buffer over n partitions of
// perProcCapacity pages each (total capacity n*perProcCapacity).
func NewGlobalBuffer(n, perProcCapacity int, disk *storage.DiskArray, costs CostParams) *GlobalBuffer {
	if n < 1 {
		panic("buffer: need at least one processor")
	}
	g := &GlobalBuffer{
		disk:    disk,
		costs:   costs,
		parts:   make([]*LRU, n),
		dir:     make(map[PageKey]int),
		pending: make(map[PageKey]*sim.Cond),
	}
	for i := range g.parts {
		g.parts[i] = NewLRU(perProcCapacity)
	}
	return g
}

// Fetch implements Manager.
func (g *GlobalBuffer) Fetch(p *sim.Proc, proc int, key PageKey, kind storage.PageKind) Class {
	for {
		start := p.Now()
		p.Hold(g.costs.Lock) // directory lookup under lock
		if owner, ok := g.dir[key]; ok {
			g.parts[owner].Touch(key)
			if owner == proc {
				g.stats.LocalHits++
				g.met.access(LocalHit)
				p.Hold(g.costs.LocalHit)
				p.Span(start, timeline.KindLocalBuffer, sim.SpanArgs{A: int64(key.Page), B: int64(key.Tree)})
				return LocalHit
			}
			g.stats.RemoteHits++
			g.met.access(RemoteHit)
			p.Hold(g.costs.RemoteHit)
			p.Span(start, timeline.KindRemoteBuffer, sim.SpanArgs{A: int64(key.Page), B: int64(key.Tree), C: int64(owner)})
			return RemoteHit
		}
		if cond, ok := g.pending[key]; ok {
			// Another processor is reading this page right now; wait for it
			// and re-check (the page will normally be resident then).
			cond.Wait(p)
			// No disk of our own: the wait was for the in-flight read.
			isData := int64(0)
			if kind == storage.DataPage {
				isData = 1
			}
			p.Span(start, timeline.KindDiskWait, sim.SpanArgs{A: int64(key.Page), B: isData, C: -1})
			continue
		}
		// We are the reader of record for this page.
		cond := &sim.Cond{}
		g.pending[key] = cond
		g.stats.Misses++
		g.met.access(Miss)
		// The lock sliver before the read shows up as a (tiny) buffer span;
		// the read itself is tagged by the storage layer.
		p.Span(start, timeline.KindLocalBuffer, sim.SpanArgs{A: int64(key.Page), B: int64(key.Tree)})
		g.disk.Read(p, key.Page, kind)
		if _, didEvict := g.insertAsOwner(proc, key); didEvict {
			g.met.evict()
		}
		delete(g.pending, key)
		cond.Broadcast()
		return Miss
	}
}

// insertAsOwner places key in proc's partition, maintaining the directory.
func (g *GlobalBuffer) insertAsOwner(proc int, key PageKey) (PageKey, bool) {
	evicted, didEvict := g.parts[proc].Insert(key)
	if didEvict {
		delete(g.dir, evicted)
	}
	g.dir[key] = proc
	return evicted, didEvict
}

// Stats implements Manager.
func (g *GlobalBuffer) Stats() Stats { return g.stats }

// Instrument implements Manager.
func (g *GlobalBuffer) Instrument(m *Metrics) { g.met = m }

// Owner returns which processor's memory holds key, or -1 (test support).
func (g *GlobalBuffer) Owner(key PageKey) int {
	if owner, ok := g.dir[key]; ok {
		return owner
	}
	return -1
}

// ResidentPages returns the total number of resident pages across all
// partitions.
func (g *GlobalBuffer) ResidentPages() int { return len(g.dir) }
