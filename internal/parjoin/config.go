// Package parjoin implements the paper's parallel spatial join (§3) on the
// simulated shared-virtual-memory machine: task creation from the roots of
// the two R*-trees, the three task-assignment strategies (static range,
// static round-robin, dynamic), both buffer organizations (local LRU
// buffers, global SVM buffer), and load balancing through task reassignment
// with configurable victim selection. Every run happens in virtual time on
// the deterministic kernel of package sim, so disk accesses, per-processor
// run times, response time and speed-up are exactly reproducible.
package parjoin

import (
	"fmt"

	"spjoin/internal/buffer"
	"spjoin/internal/join"
	"spjoin/internal/metrics"
	"spjoin/internal/refine"
	"spjoin/internal/sim"
	"spjoin/internal/storage"
	"spjoin/internal/timeline"
)

// Assignment selects how tasks reach the processors (§3.1, §3.3).
type Assignment uint8

const (
	// StaticRange gives each processor a contiguous block of tasks in local
	// plane-sweep order ("static range assignment"; the paper pairs it with
	// local buffers: variant lsr).
	StaticRange Assignment = iota
	// StaticRoundRobin deals tasks round-robin in plane-sweep order so that
	// spatially adjacent tasks run on different processors at the same time
	// (variant gsrr with a global buffer).
	StaticRoundRobin
	// Dynamic keeps all tasks in a shared queue; processors take the next
	// task when idle (variant gd).
	Dynamic
	// StaticEstimated balances statically by estimated task cost (LPT bin
	// packing over the estimator of package estimate) — the §3.4
	// alternative the paper dismisses, kept for the comparison experiment.
	StaticEstimated
)

func (a Assignment) String() string {
	switch a {
	case StaticRange:
		return "static-range"
	case StaticRoundRobin:
		return "static-round-robin"
	case Dynamic:
		return "dynamic"
	case StaticEstimated:
		return "static-estimated"
	default:
		return fmt.Sprintf("Assignment(%d)", uint8(a))
	}
}

// BufferOrg selects the buffer organization (§3.2).
type BufferOrg uint8

const (
	// LocalOrg gives every processor a private LRU buffer.
	LocalOrg BufferOrg = iota
	// GlobalOrg forms one logical buffer over all processors' memories.
	GlobalOrg
	// SharedNothingOrg removes the shared memory entirely (§5 future work):
	// each disk belongs to one processor and remote pages are shipped as
	// copies over the interconnect.
	SharedNothingOrg
)

func (b BufferOrg) String() string {
	switch b {
	case LocalOrg:
		return "local"
	case GlobalOrg:
		return "global"
	case SharedNothingOrg:
		return "shared-nothing"
	default:
		return fmt.Sprintf("BufferOrg(%d)", uint8(b))
	}
}

// Reassign selects the task-reassignment (load balancing) mode of §3.4.
type Reassign uint8

const (
	// ReassignNone disables load balancing: a processor that runs out of
	// work stays idle.
	ReassignNone Reassign = iota
	// ReassignRoot lets idle processors take over unstarted tasks (pairs of
	// subtrees on the root level) from a loaded processor.
	ReassignRoot
	// ReassignAll additionally allows splitting work at every directory
	// level: any pending subtree pair may move.
	ReassignAll
)

func (r Reassign) String() string {
	switch r {
	case ReassignNone:
		return "none"
	case ReassignRoot:
		return "root-level"
	case ReassignAll:
		return "all-levels"
	default:
		return fmt.Sprintf("Reassign(%d)", uint8(r))
	}
}

// Victim selects which processor an idle processor helps (§3.4).
type Victim uint8

const (
	// MostLoaded picks the processor with the highest reported work load
	// (hl, ns): the highest level with non-processed subtree pairs, count
	// of pairs there (test series a).
	MostLoaded Victim = iota
	// RandomVictim picks an arbitrary eligible processor, following
	// Shatdal/Naughton (test series b).
	RandomVictim
)

func (v Victim) String() string {
	switch v {
	case MostLoaded:
		return "most-loaded"
	case RandomVictim:
		return "random"
	default:
		return fmt.Sprintf("Victim(%d)", uint8(v))
	}
}

// CPUParams are the virtual-time costs of CPU work.
type CPUParams struct {
	// PerComparison is charged per rectangle intersection test during node
	// expansion (plane sweep / nested loops / restriction).
	PerComparison sim.Time
	// TaskQueueOp is charged per shared-task-queue operation (dynamic
	// assignment only).
	TaskQueueOp sim.Time
	// ReassignOverhead is charged to the idle processor per successful
	// task reassignment (the paper reports at most 100 ms total).
	ReassignOverhead sim.Time
}

// DefaultCPUParams returns the calibration used by the experiments:
// 2 µs per rectangle test, 0.1 ms per task-queue access, 1 ms per
// reassignment.
func DefaultCPUParams() CPUParams {
	return CPUParams{PerComparison: 0.002, TaskQueueOp: 0.1, ReassignOverhead: 1}
}

// Config describes one parallel join run.
type Config struct {
	// Procs is the number of simulated processors n (paper: 1..24).
	Procs int
	// Disks is the number of disks d of the simulated array.
	Disks int
	// BufferPages is the TOTAL LRU capacity over all processors, in R*-tree
	// pages; each processor's share is BufferPages/Procs (at least 1).
	BufferPages int
	// Buffer selects local or global buffer organization.
	Buffer BufferOrg
	// Assign selects the task assignment strategy.
	Assign Assignment
	// Reassign selects the load-balancing mode.
	Reassign Reassign
	// Victim selects the processor-to-help policy.
	Victim Victim
	// MinSteal is the minimum number of pending pairs a victim must have
	// before its work load is split (the "minimum size worth dividing").
	MinSteal int
	// TaskFactor controls task creation: tasks are created from the deepest
	// level at which at least TaskFactor*Procs pairs exist (the paper
	// requires m >> n and descends a level otherwise).
	TaskFactor int
	// PathBuffer enables the per-processor R*-tree path buffers of §2.2.
	PathBuffer bool
	// Seed drives the RandomVictim policy.
	Seed int64

	CPU         CPUParams
	Disk        storage.DiskParams
	BufferCosts buffer.CostParams
	Refine      refine.CostModel
	Join        join.Options

	// ShipCost is the page-shipping cost of the shared-nothing
	// organization (ignored otherwise; 0 uses buffer.DefaultShipCost).
	ShipCost sim.Time

	// CollectCandidates stores every filter result in Result.Candidates
	// (test support; large at full scale).
	CollectCandidates bool

	// Metrics, when set, receives every counter of the run under the
	// "sim." prefix (disk reads by kind and by tree level, buffer access
	// classes, join kernel counters, reassignments, per-processor pairs, a
	// queue-depth histogram, and finish-time gauges). Counting never
	// advances virtual time, so an instrumented run reproduces the
	// uninstrumented Result exactly — the golden-metrics harness pins this.
	Metrics *metrics.Registry

	// Timeline, when set, records a span per simulated interval (cpu-sweep,
	// disk-wait, buffer accesses, idle waits, reassignments) keyed to
	// virtual time — the input of the Perfetto exporter and the
	// critical-path analyzer. Like Metrics it is observation-only:
	// recording never advances the clock, so a profiled run reproduces the
	// unprofiled Result bit for bit. Size it with
	// timeline.NewRecorder(Procs, Disks).
	Timeline *timeline.Recorder
}

// DefaultConfig returns the paper's best variant (gd with reassignment on
// all levels) with the default cost calibration: n processors, d disks and
// the given total buffer size.
func DefaultConfig(procs, disks, bufferPages int) Config {
	return Config{
		Procs:       procs,
		Disks:       disks,
		BufferPages: bufferPages,
		Buffer:      GlobalOrg,
		Assign:      Dynamic,
		Reassign:    ReassignAll,
		Victim:      MostLoaded,
		MinSteal:    2,
		TaskFactor:  3,
		PathBuffer:  true,
		CPU:         DefaultCPUParams(),
		Disk:        storage.DefaultDiskParams(),
		BufferCosts: buffer.DefaultCostParams(),
		Refine:      refine.DefaultCostModel(),
	}
}

// Variant returns cfg restyled as one of the paper's three named variants:
// "lsr" (local buffers, static range), "gsrr" (global buffer, static
// round-robin) or "gd" (global buffer, dynamic assignment).
func (c Config) Variant(name string) Config {
	switch name {
	case "lsr":
		c.Buffer, c.Assign = LocalOrg, StaticRange
	case "gsrr":
		c.Buffer, c.Assign = GlobalOrg, StaticRoundRobin
	case "gd":
		c.Buffer, c.Assign = GlobalOrg, Dynamic
	default:
		panic("parjoin: unknown variant " + name)
	}
	return c
}

// validate panics on unusable configurations (programmer error).
func (c Config) validate() {
	if c.Procs < 1 {
		panic(fmt.Sprintf("parjoin: Procs = %d, need >= 1", c.Procs))
	}
	if c.Disks < 1 {
		panic(fmt.Sprintf("parjoin: Disks = %d, need >= 1", c.Disks))
	}
	if c.BufferPages < c.Procs {
		panic(fmt.Sprintf("parjoin: BufferPages = %d < Procs = %d (each processor needs at least one page)",
			c.BufferPages, c.Procs))
	}
	if c.MinSteal < 1 {
		panic(fmt.Sprintf("parjoin: MinSteal = %d, need >= 1", c.MinSteal))
	}
	if c.TaskFactor < 1 {
		panic(fmt.Sprintf("parjoin: TaskFactor = %d, need >= 1", c.TaskFactor))
	}
}
