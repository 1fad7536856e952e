package buffer

import (
	"spjoin/internal/sim"
	"spjoin/internal/storage"
	"spjoin/internal/timeline"
)

// SharedNothing models the architecture of the paper's §5 future work: no
// shared (virtual) memory — every disk is attached to exactly one home
// processor, and a page can only be read from disk by its home. Other
// processors obtain copies by page shipping over the interconnect, and may
// cache shipped copies in their private buffers (so, unlike the global
// buffer, a page can be resident many times).
//
// Cost model: an own-buffer hit costs LocalHit; a copy shipped from the
// home's buffer costs Ship (one message round trip plus the transfer —
// more than the SVM remote access); a cold page costs the home disk read
// plus Ship when the requester is not the home.
type SharedNothing struct {
	disk  *storage.DiskArray
	costs CostParams
	ship  sim.Time
	bufs  []*LRU
	stats Stats
	met   *Metrics
}

// DefaultShipCost is the page-shipping cost used by the experiments:
// heavier than the 1 ms SVM remote access because shared-nothing needs an
// explicit request/response message pair around the transfer.
const DefaultShipCost sim.Time = 1.5

// NewSharedNothing creates the shared-nothing buffer layer: n private
// buffers of perProcCapacity pages. Page homes derive from the disk
// placement (disk i belongs to processor i mod n).
func NewSharedNothing(n, perProcCapacity int, disk *storage.DiskArray, costs CostParams, ship sim.Time) *SharedNothing {
	if n < 1 {
		panic("buffer: need at least one processor")
	}
	s := &SharedNothing{disk: disk, costs: costs, ship: ship, bufs: make([]*LRU, n)}
	for i := range s.bufs {
		s.bufs[i] = NewLRU(perProcCapacity)
	}
	return s
}

// Home returns the processor owning key's disk.
func (s *SharedNothing) Home(key PageKey) int {
	return s.disk.DiskFor(key.Page) % len(s.bufs)
}

// Fetch implements Manager.
func (s *SharedNothing) Fetch(p *sim.Proc, proc int, key PageKey, kind storage.PageKind) Class {
	if s.bufs[proc].Touch(key) {
		s.stats.LocalHits++
		s.met.access(LocalHit)
		p.BeginSpan(timeline.KindLocalBuffer, sim.SpanArgs{A: int64(key.Page), B: int64(key.Tree)})
		p.Hold(s.costs.LocalHit)
		p.EndSpan()
		return LocalHit
	}
	home := s.Home(key)
	if home == proc {
		// Own disk: plain read into the own buffer.
		s.stats.Misses++
		s.met.access(Miss)
		s.disk.Read(p, key.Page, kind)
		s.insert(proc, key)
		return Miss
	}
	if s.bufs[home].Touch(key) {
		// The home still caches the page: ship a copy.
		s.stats.RemoteHits++
		s.met.access(RemoteHit)
		p.BeginSpan(timeline.KindRemoteBuffer, sim.SpanArgs{A: int64(key.Page), B: int64(key.Tree), C: int64(home)})
		p.Hold(s.ship)
		p.EndSpan()
		s.insert(proc, key)
		return RemoteHit
	}
	// Cold: the home must read its disk, then ship. The requester spends
	// the disk time (waiting for the home's response) plus the shipping.
	s.stats.Misses++
	s.met.access(Miss)
	s.disk.Read(p, key.Page, kind)
	p.BeginSpan(timeline.KindRemoteBuffer, sim.SpanArgs{A: int64(key.Page), B: int64(key.Tree), C: int64(home)})
	p.Hold(s.ship)
	p.EndSpan()
	s.insert(home, key)
	s.insert(proc, key)
	return Miss
}

// insert places key in owner's buffer, recording any eviction.
func (s *SharedNothing) insert(owner int, key PageKey) {
	if _, didEvict := s.bufs[owner].Insert(key); didEvict {
		s.met.evict()
	}
}

// Stats implements Manager.
func (s *SharedNothing) Stats() Stats { return s.stats }

// Instrument implements Manager.
func (s *SharedNothing) Instrument(m *Metrics) { s.met = m }

// Resident reports whether proc's buffer caches key (test support).
func (s *SharedNothing) Resident(proc int, key PageKey) bool {
	return s.bufs[proc].Contains(key)
}
