// Package storage models the secondary-storage layer of the paper's test
// environment (§4.2): R*-tree pages live on a simulated disk array, each page
// is mapped to a disk by its page number modulo the number of disks, and a
// read costs a fixed seek + latency + transfer time. Data (leaf) pages are
// clustered with the exact geometry of their entries, so reading a data page
// also reads its cluster and costs more.
package storage

import (
	"fmt"

	"spjoin/internal/metrics"
	"spjoin/internal/sim"
	"spjoin/internal/timeline"
)

// PageID identifies one page of an R*-tree file. IDs are assigned densely in
// creation order, which is exactly what the paper's modulo placement keys on.
type PageID int32

// InvalidPage is the zero-ish sentinel for "no page".
const InvalidPage PageID = -1

// PageKind distinguishes directory pages from data (leaf) pages; the two
// kinds have different read costs because data pages drag in their geometry
// cluster.
type PageKind uint8

const (
	// DirectoryPage is an internal R*-tree node.
	DirectoryPage PageKind = iota
	// DataPage is a leaf node; its read includes the clustered exact
	// geometry (one-to-one relationship per [BK 94]).
	DataPage
)

func (k PageKind) String() string {
	switch k {
	case DirectoryPage:
		return "directory"
	case DataPage:
		return "data"
	default:
		return fmt.Sprintf("PageKind(%d)", uint8(k))
	}
}

// DiskParams are the timing constants of §4.2. The defaults reproduce the
// paper: 9 ms average seek, 6 ms average latency, 1 ms transfer per 4 KB page
// (16 ms per page read) and 37.5 ms for a data page including its average
// 26 KB geometry cluster.
type DiskParams struct {
	PageRead sim.Time // directory page read (seek+latency+transfer)
	DataRead sim.Time // data page read including the geometry cluster
}

// DefaultDiskParams returns the constants used throughout the paper's
// evaluation.
func DefaultDiskParams() DiskParams {
	return DiskParams{PageRead: 16, DataRead: 37.5}
}

// DiskArray simulates d independent disks. Page p is stored on disk
// p mod d; each disk serves requests first-come-first-served, so concurrent
// requests to the same disk queue up — this is the "synchronization at the
// disks" that caps speed-up when d < n (Figure 9).
type DiskArray struct {
	params DiskParams
	disks  []*sim.Resource

	accesses     int64 // total page reads
	dataAccesses int64 // of which data pages

	// Optional observability (see Instrument); the counters are nil-safe.
	cDir, cData *metrics.Counter
}

// NewDiskArray creates an array of d disks (d >= 1) with the given timing
// parameters.
func NewDiskArray(d int, params DiskParams) *DiskArray {
	if d < 1 {
		panic(fmt.Sprintf("storage: disk array needs at least 1 disk, got %d", d))
	}
	a := &DiskArray{params: params, disks: make([]*sim.Resource, d)}
	for i := range a.disks {
		a.disks[i] = sim.NewResource(fmt.Sprintf("disk%d", i))
	}
	return a
}

// Disks returns the number of disks.
func (a *DiskArray) Disks() int { return len(a.disks) }

// Instrument attaches observability: dir/data count page reads by kind.
// The existing Accesses/DataAccesses counters keep working independently.
func (a *DiskArray) Instrument(dir, data *metrics.Counter) {
	a.cDir, a.cData = dir, data
}

// DiskFor returns the disk index holding page id (modulo placement, §4.2).
func (a *DiskArray) DiskFor(id PageID) int { return int(id) % len(a.disks) }

// Read performs one page read on behalf of simulated processor p, queueing
// at the owning disk and advancing virtual time by the service (and any
// queueing) delay. It returns the total time spent.
func (a *DiskArray) Read(p *sim.Proc, id PageID, kind PageKind) sim.Time {
	if id < 0 {
		panic(fmt.Sprintf("storage: read of invalid page %d", id))
	}
	a.accesses++
	service := a.params.PageRead
	isData := int64(0)
	if kind == DataPage {
		service = a.params.DataRead
		a.dataAccesses++
		a.cData.Inc()
		isData = 1
	} else {
		a.cDir.Inc()
	}
	diskIdx := a.DiskFor(id)
	p.BeginSpan(timeline.KindDiskWait, sim.SpanArgs{A: int64(id), B: isData, C: int64(diskIdx)})
	total := a.disks[diskIdx].Use(p, service)
	// Use ends exactly when the service interval does, so [Now-service, Now]
	// is this read's slot on the disk track (queueing excluded).
	p.ResourceSpan(diskIdx, p.Now()-service, p.Now(), timeline.KindDiskService,
		sim.SpanArgs{A: int64(id), B: isData, C: int64(p.ID())})
	p.EndSpan()
	return total
}

// Accesses returns the total number of page reads so far; this is the
// "number of disk accesses" metric of Figures 5, 7, 8 and 10.
func (a *DiskArray) Accesses() int64 { return a.accesses }

// DataAccesses returns how many of the reads were data pages.
func (a *DiskArray) DataAccesses() int64 { return a.dataAccesses }

// BusyTime returns the summed service time across all disks.
func (a *DiskArray) BusyTime() sim.Time {
	var total sim.Time
	for _, d := range a.disks {
		total += d.Busy
	}
	return total
}

// MaxQueueLen returns the longest current queue across disks (diagnostic).
func (a *DiskArray) MaxQueueLen() int {
	max := 0
	for _, d := range a.disks {
		if l := d.QueueLen(); l > max {
			max = l
		}
	}
	return max
}

// ResetCounters zeroes the access counters (keeps queues/busy state, which
// must be idle between runs anyway).
func (a *DiskArray) ResetCounters() {
	a.accesses = 0
	a.dataAccesses = 0
}
