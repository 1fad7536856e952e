// Package timeline is the span profiler of the join pipeline: a recorder of
// per-processor (and per-disk) time intervals keyed to the deterministic
// virtual clock of package sim, a Perfetto/Chrome trace-event exporter, and
// a critical-path / load-balance analyzer over the recorded spans.
//
// Where package metrics answers "how many" (counters, histograms), this
// package answers "when, where, and on whose critical path": every interval
// a simulated processor spends is tagged as one of the span kinds below, so
// the paper's per-processor run-time figures (Figs. 7-12) become an
// inspectable Gantt chart.
//
// Design contract, matching the metrics layer:
//
//   - Zero cost when off. Call sites emit through sim.Proc span hooks,
//     which are one nil-check branch without an installed tracer. No event
//     struct is built, nothing allocates.
//   - Observation only. Recording never advances virtual time, so a
//     profiled simulation reproduces the unprofiled Result bit for bit.
//   - Single-writer tracks. Each processor's span list is appended only
//     while that processor runs (the sim kernel is single-threaded; the
//     native executor gives each worker its own track), so recording needs
//     no locks.
//   - Deterministic output. Spans are exported in track order; two runs of
//     the same workload produce byte-identical traces and equal digests —
//     the golden-timeline harness pins this.
package timeline

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strconv"

	"spjoin/internal/sim"
)

// The canonical span kinds. Processor tracks use the first seven; disk
// tracks carry KindDiskService intervals (the service time, excluding
// queueing, of one physical read).
const (
	// KindCPUSweep is node-pair expansion CPU time (the plane-sweep /
	// nested-loop comparisons). Args: A=R page, B=S page, C=max level,
	// D=comparisons.
	KindCPUSweep sim.SpanKind = iota
	// KindDiskWait is time waiting for a physical page read, including
	// queueing at the disk. Args: A=page, B=1 for a data page, C=disk
	// index (-1 when waiting on another processor's in-flight read).
	KindDiskWait
	// KindLocalBuffer is a page access served from the processor's own
	// buffer (including directory-lock time). Args: A=page, B=tree.
	KindLocalBuffer
	// KindRemoteBuffer is a page access served from another processor's
	// memory (SVM remote read or shared-nothing page shipping).
	// Args: A=page, B=tree, C=owner/home processor.
	KindRemoteBuffer
	// KindQueueIdle is time spent idle, waiting for reassignable work.
	// Args: A=the processor whose new work ended the wait (-1 for the
	// final "join complete" broadcast).
	KindQueueIdle
	// KindReassign is work-acquisition overhead: a §3.3 task reassignment
	// (args: A=victim, B=pairs moved, C=hl, D=ns — the victim's work
	// report) or a shared-task-queue take (A=-1, B=1).
	KindReassign
	// KindRefineWait is the waiting period modeling the exact geometry
	// test of the refinement step. Args: A=candidates refined.
	KindRefineWait
	// KindDiskService is one disk's service interval for a physical read
	// (disk tracks only). Args: A=page, B=1 for a data page, C=reader.
	KindDiskService

	// KindPhase is one worker's share of a wall-clock engine phase
	// (partition's mirror/sort/scatter/refine/sweep phases, the
	// native tree executor's prepare/taskgen). Wall recorders only — the
	// simulator never emits it, which keeps the run store's flattened
	// metric set (NumSimKinds) stable. Args: A=phase id (Phase*).
	KindPhase

	// NumKinds bounds the kind enumeration (analyzer array sizing).
	NumKinds
)

// NumSimKinds bounds the kinds the deterministic simulator emits (the
// original eight). The experiment run store flattens exactly these into
// "timeline.<kind>_ms" metrics, so appending wall-only kinds after
// KindDiskService does not change any recorded cell.
const NumSimKinds = KindPhase

// KindNames maps span kinds to their display/export names.
var KindNames = [NumKinds]string{
	"cpu-sweep",
	"disk-wait",
	"local-buffer",
	"remote-buffer",
	"queue-idle",
	"reassign",
	"refine-wait",
	"disk-service",
	"phase",
}

// KindName returns the display name of k ("?" for unknown kinds).
func KindName(k sim.SpanKind) string {
	if int(k) < len(KindNames) {
		return KindNames[k]
	}
	return "?"
}

// The canonical phases of a wall-clock join execution, shared by the
// engines' Result.PhaseNS arrays, the KindPhase span arg and the flight
// recorder's EXPLAIN waterfall. The partition engine uses all of them; the
// native tree executor maps its pipeline onto the subset that applies
// (prep = sweep-cache build, partition = task creation).
const (
	// PhasePrep is input synchronization: partjoin's SoA mirroring and
	// mirror-check/verify passes, parnative's PrepareSweep.
	PhasePrep = iota
	// PhaseSort is the global sweep-order sort (cold or mutated inputs).
	PhaseSort
	// PhasePartition is work decomposition: the counting-sort count and
	// scatter passes, or tree task creation.
	PhasePartition
	// PhaseRefine is the work-unit schedule build: listing the tiles,
	// cutting the hot ones into units and ordering the schedule.
	PhaseRefine
	// PhaseSweep is the parallel join itself (tile sweeps / node-pair
	// expansion).
	PhaseSweep
	// PhaseMerge is result assembly: the gather of the workers' candidate
	// buffers into the exact-size result, timed on the owner goroutine.
	PhaseMerge

	// NumPhases bounds the phase enumeration (PhaseNS array sizing).
	NumPhases
)

// PhaseNames maps wall-join phases to their display/export names.
var PhaseNames = [NumPhases]string{
	"prep", "sort", "partition", "refine", "sweep", "merge",
}

// PhaseName returns the display name of phase p ("?" when out of range).
func PhaseName(p int) string {
	if p >= 0 && p < len(PhaseNames) {
		return PhaseNames[p]
	}
	return "?"
}

// Span is one recorded interval. Times are the recorder's clock —
// virtual milliseconds in the simulator, wall milliseconds since join
// start in the native executor.
type Span struct {
	Kind       sim.SpanKind
	Start, End sim.Time
	Args       sim.SpanArgs
}

// Duration returns End-Start.
func (s Span) Duration() sim.Time { return s.End - s.Start }

// Flow is a causal edge between tracks: work recorded on track From at
// time At arrived at the owning (destination) track at time ToAt. Flows
// link a reassigned task's old and new owner in the Perfetto export.
type Flow struct {
	From     int
	At, ToAt sim.Time
}

// Track is one timeline row: a processor or a disk. Spans are appended in
// start order by a single writer; Flows are edges terminating here.
type Track struct {
	Name  string
	Spans []Span
	Flows []Flow
	open  []int32 // stack of open span indices (BeginSpan/EndSpan nesting)
}

// Recorder accumulates the spans of one run. Create with NewRecorder (sim,
// virtual time) or NewWallRecorder (native executor, wall time); a nil
// *Recorder must never be installed as a sim.Tracer — drivers guard with
// `if rec != nil` before SetTracer.
type Recorder struct {
	unit  string // "virtual" or "wall"
	procs []Track
	disks []Track
}

// NewRecorder returns a virtual-time recorder with one track per simulated
// processor and one per disk.
func NewRecorder(procs, disks int) *Recorder {
	r := &Recorder{unit: "virtual", procs: make([]Track, procs), disks: make([]Track, disks)}
	for i := range r.procs {
		r.procs[i].Name = fmt.Sprintf("P%d", i)
	}
	for i := range r.disks {
		r.disks[i].Name = fmt.Sprintf("disk%d", i)
	}
	return r
}

// NewWallRecorder returns a wall-clock recorder with one track per native
// worker (no disk tracks — the native executor joins in-memory trees).
func NewWallRecorder(workers int) *Recorder {
	r := &Recorder{unit: "wall", procs: make([]Track, workers)}
	for i := range r.procs {
		r.procs[i].Name = fmt.Sprintf("W%d", i)
	}
	return r
}

// Unit returns the clock the spans are keyed to: "virtual" or "wall".
func (r *Recorder) Unit() string { return r.unit }

// Procs returns the processor/worker tracks.
func (r *Recorder) Procs() []Track { return r.procs }

// Disks returns the disk tracks.
func (r *Recorder) Disks() []Track { return r.disks }

// SpanCount returns the total number of recorded spans across all tracks.
func (r *Recorder) SpanCount() int {
	n := 0
	for i := range r.procs {
		n += len(r.procs[i].Spans)
	}
	for i := range r.disks {
		n += len(r.disks[i].Spans)
	}
	return n
}

// BeginSpan implements sim.Tracer.
func (r *Recorder) BeginSpan(proc int, at sim.Time, kind sim.SpanKind, args sim.SpanArgs) {
	t := &r.procs[proc]
	t.open = append(t.open, int32(len(t.Spans)))
	t.Spans = append(t.Spans, Span{Kind: kind, Start: at, End: at, Args: args})
}

// EndSpan implements sim.Tracer.
func (r *Recorder) EndSpan(proc int, at sim.Time, args sim.SpanArgs, setArgs bool) {
	t := &r.procs[proc]
	n := len(t.open)
	if n == 0 {
		panic(fmt.Sprintf("timeline: EndSpan on %s without open span", t.Name))
	}
	s := &t.Spans[t.open[n-1]]
	t.open = t.open[:n-1]
	s.End = at
	if setArgs {
		s.Args = args
	}
}

// ProcSpan implements sim.Tracer.
func (r *Recorder) ProcSpan(proc int, start, end sim.Time, kind sim.SpanKind, args sim.SpanArgs) {
	t := &r.procs[proc]
	t.Spans = append(t.Spans, Span{Kind: kind, Start: start, End: end, Args: args})
}

// ResourceSpan implements sim.Tracer.
func (r *Recorder) ResourceSpan(res int, start, end sim.Time, kind sim.SpanKind, args sim.SpanArgs) {
	t := &r.disks[res]
	t.Spans = append(t.Spans, Span{Kind: kind, Start: start, End: end, Args: args})
}

// AddFlow records a causal edge: work left track from at time at and
// arrived at track to (at the same instant in the simulator). The edge is
// stored on the destination track, so concurrent native thieves each write
// only their own track.
func (r *Recorder) AddFlow(to, from int, at sim.Time) {
	r.procs[to].Flows = append(r.procs[to].Flows, Flow{From: from, At: at, ToAt: at})
}

// Complete records a finished span on track proc — the native executor's
// entry point, where workers stamp wall-clock times themselves.
func (r *Recorder) Complete(proc int, start, end sim.Time, kind sim.SpanKind, args sim.SpanArgs) {
	r.ProcSpan(proc, start, end, kind, args)
}

// CloseOpen force-closes any dangling BeginSpan at time at (defensive;
// a well-formed run leaves no span open).
func (r *Recorder) CloseOpen(at sim.Time) {
	for i := range r.procs {
		t := &r.procs[i]
		for _, idx := range t.open {
			t.Spans[idx].End = at
		}
		t.open = t.open[:0]
	}
}

// MaxEnd returns the latest span end across all tracks (the wall "response
// time" of a native run; equals the simulated response time for a
// simulated run's busy spans).
func (r *Recorder) MaxEnd() sim.Time {
	var max sim.Time
	for _, tracks := range [][]Track{r.procs, r.disks} {
		for i := range tracks {
			for _, s := range tracks[i].Spans {
				if s.End > max {
					max = s.End
				}
			}
		}
	}
	return max
}

// KindTotals returns the summed span duration per kind across all
// processor and disk tracks. The run store flattens these into
// "timeline.<kind>_ms" metrics, so a run-store diff localizes a
// regression to the span kind (disk-wait, cpu-sweep, ...) that grew.
func (r *Recorder) KindTotals() [NumKinds]sim.Time {
	var totals [NumKinds]sim.Time
	for _, tracks := range [][]Track{r.procs, r.disks} {
		for i := range tracks {
			for _, s := range tracks[i].Spans {
				if int(s.Kind) < len(totals) {
					totals[s.Kind] += s.Duration()
				}
			}
		}
	}
	return totals
}

// Digest returns a SHA-256 hex digest over the canonical serialization of
// every span and flow. Two identical runs of the deterministic simulator
// produce equal digests; the golden-timeline test pins the seed workload's.
func (r *Recorder) Digest() string {
	h := sha256.New()
	var buf []byte
	appendTime := func(t sim.Time) {
		buf = strconv.AppendFloat(buf, float64(t), 'g', -1, 64)
		buf = append(buf, '|')
	}
	appendInt := func(v int64) {
		buf = strconv.AppendInt(buf, v, 10)
		buf = append(buf, '|')
	}
	for _, tracks := range [][]Track{r.procs, r.disks} {
		for i := range tracks {
			t := &tracks[i]
			buf = append(buf[:0], t.Name...)
			buf = append(buf, '\n')
			h.Write(buf)
			for _, s := range t.Spans {
				buf = buf[:0]
				appendInt(int64(s.Kind))
				appendTime(s.Start)
				appendTime(s.End)
				appendInt(s.Args.A)
				appendInt(s.Args.B)
				appendInt(s.Args.C)
				appendInt(s.Args.D)
				buf = append(buf, '\n')
				h.Write(buf)
			}
			for _, f := range t.Flows {
				buf = append(buf[:0], 'f', '|')
				appendInt(int64(f.From))
				appendTime(f.At)
				appendTime(f.ToAt)
				buf = append(buf, '\n')
				h.Write(buf)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// writeString is a small io helper that funnels the exporter's errors.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) write(b []byte) {
	if e.err == nil {
		_, e.err = e.w.Write(b)
	}
}
