package parjoin

import (
	"math/rand"

	"spjoin/internal/buffer"
	"spjoin/internal/estimate"
	"spjoin/internal/join"
	"spjoin/internal/rtree"
	"spjoin/internal/sim"
	"spjoin/internal/storage"
	"spjoin/internal/timeline"
)

// Run executes one parallel spatial join of trees r and s under cfg and
// returns all measures of the paper's evaluation. The run is completely
// deterministic in (r, s, cfg).
func Run(r, s *rtree.Tree, cfg Config) Result {
	cfg.validate()

	tasks, taskLevel, _ := CreateTasks(r, s, cfg.Join, cfg.TaskFactor*cfg.Procs)

	st := &runState{
		cfg:       cfg,
		trees:     [2]*rtree.Tree{r, s},
		kernel:    sim.NewKernel(),
		taskLevel: taskLevel,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		lastWaker: -1,
	}
	if cfg.Timeline != nil {
		st.rec = cfg.Timeline
		st.kernel.SetTracer(st.rec)
	}
	st.disk = storage.NewDiskArray(cfg.Disks, cfg.Disk)
	perProc := cfg.BufferPages / cfg.Procs
	if perProc < 1 {
		perProc = 1
	}
	switch cfg.Buffer {
	case LocalOrg:
		st.mgr = buffer.NewLocalBuffers(cfg.Procs, perProc, st.disk, cfg.BufferCosts)
	case GlobalOrg:
		st.mgr = buffer.NewGlobalBuffer(cfg.Procs, perProc, st.disk, cfg.BufferCosts)
	case SharedNothingOrg:
		ship := cfg.ShipCost
		if ship <= 0 {
			ship = buffer.DefaultShipCost
		}
		st.mgr = buffer.NewSharedNothing(cfg.Procs, perProc, st.disk, cfg.BufferCosts, ship)
	}

	// Task assignment (phase 2, sequential).
	height := maxInt(r.Height(), s.Height())
	if cfg.Metrics != nil {
		st.met = newSimMetrics(st, cfg.Procs, height)
	}
	st.procs = make([]*procState, cfg.Procs)
	var initial [][]join.NodePair
	switch cfg.Assign {
	case StaticRange:
		initial = join.SplitRange(tasks, cfg.Procs)
	case StaticRoundRobin:
		initial = splitRoundRobin(tasks, cfg.Procs)
	case Dynamic:
		st.queue = tasks
		initial = make([][]join.NodePair, cfg.Procs)
	case StaticEstimated:
		initial = estimate.AssignLPT(tasks, estimate.Costs(r, s, tasks), cfg.Procs)
	}
	for i := 0; i < cfg.Procs; i++ {
		ps := newProcState(i, height)
		// Load the initial work load bottom-up so the top of the stack pops
		// in plane-sweep order.
		for j := len(initial[i]) - 1; j >= 0; j-- {
			ps.pending = append(ps.pending, initial[i][j])
		}
		st.procs[i] = ps
	}

	// Phase 3: parallel task execution.
	for i := 0; i < cfg.Procs; i++ {
		ps := st.procs[i]
		st.kernel.Spawn("proc", func(p *sim.Proc) { st.procLoop(ps, p) })
	}
	st.kernel.Run()

	return st.buildResult(tasks)
}

// runState is the shared (virtual) memory of one run.
type runState struct {
	cfg       Config
	trees     [2]*rtree.Tree
	kernel    *sim.Kernel
	disk      *storage.DiskArray
	mgr       buffer.Manager
	procs     []*procState
	taskLevel int
	rng       *rand.Rand
	met       *simMetrics        // nil unless Config.Metrics is set
	rec       *timeline.Recorder // nil unless Config.Timeline is set

	queue     []join.NodePair // dynamic task queue (drained via queueHead)
	queueHead int

	// lastWaker is the processor whose new pending work triggered the most
	// recent waitCond.Broadcast (-1 for the final "join complete"
	// broadcast) — recorded as the queue-idle span's blocking edge for the
	// critical-path analyzer.
	lastWaker int

	idleCount      int
	waitCond       sim.Cond
	done           bool
	reassignments  int
	pathBufferHits int64
}

// procState is the private state of one simulated processor.
type procState struct {
	id int
	// pending is the work-load deque: the top (end) is popped next, the
	// bottom (front) holds the unstarted, highest-level pairs that task
	// reassignment may take.
	pending []join.NodePair
	// pathBuf[side][level] is the page of the last accessed node per level
	// (the R*-tree path buffer of §2.2).
	pathBuf [2][]storage.PageID
	stats   ProcStats
	cands   []join.Candidate // only with CollectCandidates

	// scratch holds the expansion kernel's reusable buffers.
	scratch join.Scratch
}

func newProcState(id, height int) *procState {
	ps := &procState{id: id}
	for side := 0; side < 2; side++ {
		ps.pathBuf[side] = make([]storage.PageID, height)
		for l := range ps.pathBuf[side] {
			ps.pathBuf[side][l] = storage.InvalidPage
		}
	}
	return ps
}

// procLoop is the body of one simulated processor.
func (st *runState) procLoop(ps *procState, p *sim.Proc) {
	for {
		item, ok := st.nextWork(ps, p)
		if !ok {
			return
		}
		start := p.Now()
		st.process(ps, p, item)
		ps.stats.Busy += p.Now() - start
	}
}

// nextWork returns the next pair for ps to process, waiting for reassignable
// work if necessary. It returns false when the whole join is complete.
func (st *runState) nextWork(ps *procState, p *sim.Proc) (join.NodePair, bool) {
	for {
		if n := len(ps.pending); n > 0 {
			item := ps.pending[n-1]
			ps.pending = ps.pending[:n-1]
			return item, true
		}
		if st.cfg.Assign == Dynamic && st.queueHead < len(st.queue) {
			item := st.queue[st.queueHead]
			st.queueHead++
			ps.stats.Tasks++
			start := p.Now()
			p.BeginSpan(timeline.KindReassign, sim.SpanArgs{A: -1, B: 1})
			p.Hold(st.cfg.CPU.TaskQueueOp + st.cfg.BufferCosts.Lock)
			p.EndSpan()
			ps.stats.Busy += p.Now() - start
			return item, true
		}
		if st.cfg.Reassign != ReassignNone && st.trySteal(ps, p) {
			continue
		}
		// Out of work: remember when; this stands unless work arrives later.
		ps.stats.Finish = p.Now()
		st.idleCount++
		if st.idleCount == st.cfg.Procs {
			st.done = true
			st.lastWaker = -1
			st.waitCond.Broadcast()
			return join.NodePair{}, false
		}
		idleStart := p.Now()
		p.BeginSpan(timeline.KindQueueIdle, sim.SpanArgs{A: -1})
		st.waitCond.Wait(p)
		p.EndSpanArgs(sim.SpanArgs{A: int64(st.lastWaker)})
		st.met.idled(p.Now() - idleStart)
		if st.done {
			return join.NodePair{}, false
		}
		st.idleCount--
	}
}

// process joins one pair of nodes: fetch both pages, expand, charge CPU,
// refine candidates, push child pairs.
func (st *runState) process(ps *procState, p *sim.Proc, item join.NodePair) {
	depth := len(ps.pending)
	nr := st.fetch(ps, p, join.SideR, item.RPage, item.RLevel)
	ns := st.fetch(ps, p, join.SideS, item.SPage, item.SLevel)

	newCands, children, comparisons := ps.scratch.Expand(nr, ns, st.cfg.Join)
	st.met.pairExpanded(ps.id, len(newCands), comparisons, depth)
	p.BeginSpan(timeline.KindCPUSweep, sim.SpanArgs{
		A: int64(item.RPage), B: int64(item.SPage),
		C: int64(item.MaxLevel()), D: int64(comparisons),
	})
	p.Hold(sim.Time(comparisons) * st.cfg.CPU.PerComparison)
	p.EndSpan()

	// The refinement of a candidate is executed by the processor that found
	// it (§3); the exact test is modeled by the calibrated waiting period,
	// which depends on the pair's MBRs — read from the two leaves at the
	// positions the kernel recorded beside each candidate.
	if len(newCands) > 0 {
		p.BeginSpan(timeline.KindRefineWait, sim.SpanArgs{A: int64(len(newCands))})
		leaves := ps.scratch.LeafPairs()
		for k, c := range newCands {
			lp := leaves[k]
			p.Hold(st.cfg.Refine.CostFor(nr.Entries[lp.R].Rect, ns.Entries[lp.S].Rect))
			ps.stats.Candidates++
			if st.cfg.CollectCandidates {
				ps.cands = append(ps.cands, c)
			}
		}
		p.EndSpan()
	}

	if len(children) > 0 {
		// Push in reverse so pops continue in plane-sweep order.
		for i := len(children) - 1; i >= 0; i-- {
			ps.pending = append(ps.pending, children[i])
		}
		// New pending work may satisfy idle processors waiting to help.
		if st.cfg.Reassign != ReassignNone && st.waitCond.WaiterCount() > 0 {
			st.lastWaker = ps.id
			st.waitCond.Broadcast()
		}
	}
}

// fetch brings one node in, going through the path buffer first and then
// the buffer manager (which may go to disk).
func (st *runState) fetch(ps *procState, p *sim.Proc, side buffer.TreeID, page storage.PageID, level int) *rtree.Node {
	if st.cfg.PathBuffer && ps.pathBuf[side][level] == page {
		st.pathBufferHits++
		return st.trees[side].Node(page)
	}
	kind := storage.DirectoryPage
	if level == 0 {
		kind = storage.DataPage
	}
	if st.mgr.Fetch(p, ps.id, buffer.PageKey{Tree: side, Page: page}, kind) == buffer.Miss {
		st.met.diskMiss(level)
	}
	if st.cfg.PathBuffer {
		ps.pathBuf[side][level] = page
	}
	return st.trees[side].Node(page)
}

// stealable reports whether a pending item may be reassigned under the
// configured mode: on the root level only whole unstarted tasks move; on
// all levels every pending subtree pair may move — including pairs of data
// pages, which are the entries of the lowest directory level and the only
// pending work a dynamically assigned processor ever holds.
func (st *runState) stealable(item join.NodePair) bool {
	switch st.cfg.Reassign {
	case ReassignRoot:
		return item.MaxLevel() == st.taskLevel
	case ReassignAll:
		return true
	default:
		return false
	}
}

// workReport computes the (hl, ns) pair a processor reports for victim
// selection: the highest level with stealable pending pairs, and how many
// pairs sit there. ok is false when nothing is stealable.
func (st *runState) workReport(ps *procState) (hl, ns int, ok bool) {
	hl = -1
	for _, item := range ps.pending {
		if !st.stealable(item) {
			continue
		}
		l := item.MaxLevel()
		if l > hl {
			hl, ns = l, 1
		} else if l == hl {
			ns++
		}
	}
	return hl, ns, hl >= 0
}

// trySteal performs one task reassignment: pick a victim, move half of its
// stealable work load (bottom-most pairs first) to ps. Reports whether work
// was transferred.
func (st *runState) trySteal(ps *procState, p *sim.Proc) bool {
	st.met.attempt()
	victim := st.pickVictim(ps)
	if victim == nil {
		return false
	}
	// The victim's (hl, ns) work report goes on the reassign span, so the
	// trace shows what made this victim the one worth helping.
	var hl, ns int
	if st.rec != nil {
		hl, ns, _ = st.workReport(victim)
	}
	moved := st.splitWorkload(victim)
	if len(moved) == 0 {
		return false
	}
	st.reassignments++
	st.met.reassigned(len(moved))
	ps.stats.Stolen += len(moved)
	victim.stats.StolenFrom += len(moved)

	start := p.Now()
	p.BeginSpan(timeline.KindReassign, sim.SpanArgs{
		A: int64(victim.id), B: int64(len(moved)), C: int64(hl), D: int64(ns),
	})
	p.Hold(st.cfg.CPU.ReassignOverhead + st.cfg.BufferCosts.Lock)
	p.EndSpan()
	if st.rec != nil {
		// Flow event: the moved pairs' old owner -> their new owner.
		st.rec.AddFlow(ps.id, victim.id, p.Now())
	}
	ps.stats.Busy += p.Now() - start

	// The moved pairs are in plane-sweep order; push reversed so the thief
	// pops them in order.
	for i := len(moved) - 1; i >= 0; i-- {
		ps.pending = append(ps.pending, moved[i])
	}
	// The thief's new work load is itself reassignable: let other idle
	// processors re-check.
	if st.waitCond.WaiterCount() > 0 {
		st.lastWaker = ps.id
		st.waitCond.Broadcast()
	}
	return true
}

// pickVictim selects the processor to help, or nil. Only processors whose
// stealable pending count reaches MinSteal are eligible ("minimum size of
// the work load which is worth to be divided").
func (st *runState) pickVictim(ps *procState) *procState {
	type cand struct {
		ps     *procState
		hl, ns int
	}
	var cands []cand
	for _, other := range st.procs {
		if other == ps {
			continue
		}
		hl, ns, ok := st.workReport(other)
		if !ok {
			continue
		}
		if st.stealableCount(other) < st.cfg.MinSteal {
			continue
		}
		cands = append(cands, cand{other, hl, ns})
	}
	if len(cands) == 0 {
		return nil
	}
	if st.cfg.Victim == RandomVictim {
		return cands[st.rng.Intn(len(cands))].ps
	}
	best := cands[0]
	for _, c := range cands[1:] {
		if c.hl > best.hl || (c.hl == best.hl && c.ns > best.ns) {
			best = c
		}
	}
	return best.ps
}

func (st *runState) stealableCount(ps *procState) int {
	n := 0
	for _, item := range ps.pending {
		if st.stealable(item) {
			n++
		}
	}
	return n
}

// splitWorkload removes half of the victim's stealable pairs — the
// bottom-most ones, i.e. the least imminent, highest-level work — and
// returns them in their original (plane-sweep) order.
func (st *runState) splitWorkload(victim *procState) []join.NodePair {
	var eligible []int
	for i, item := range victim.pending {
		if st.stealable(item) {
			eligible = append(eligible, i)
		}
	}
	if len(eligible) < st.cfg.MinSteal {
		return nil
	}
	take := len(eligible) / 2
	if take < 1 {
		take = 1
	}
	takeIdx := eligible[:take]
	moved := make([]join.NodePair, 0, take)
	// The bottom of the stack holds the pairs farthest from execution; they
	// are stored bottom-first, so the selected indices ascend. Collect the
	// stolen pairs in stack-bottom order, which is reverse plane-sweep
	// order (the stack was loaded reversed), then flip to sweep order.
	for _, i := range takeIdx {
		moved = append(moved, victim.pending[i])
	}
	// Remove stolen items from the victim, preserving the rest's order.
	kept := victim.pending[:0]
	j := 0
	for i, item := range victim.pending {
		if j < len(takeIdx) && i == takeIdx[j] {
			j++
			continue
		}
		kept = append(kept, item)
	}
	victim.pending = kept
	// moved currently runs bottom→up the stack = reverse sweep order.
	for a, b := 0, len(moved)-1; a < b; a, b = a+1, b-1 {
		moved[a], moved[b] = moved[b], moved[a]
	}
	return moved
}

// buildResult assembles the Result after the kernel has drained.
func (st *runState) buildResult(tasks []join.NodePair) Result {
	res := Result{
		TasksCreated:     len(tasks),
		TaskLevel:        st.taskLevel,
		Reassignments:    st.reassignments,
		DiskAccesses:     st.disk.Accesses(),
		DataDiskAccesses: st.disk.DataAccesses(),
		Buffer:           st.mgr.Stats(),
		PathBufferHits:   st.pathBufferHits,
		PerProc:          make([]ProcStats, len(st.procs)),
	}
	var sumFinish sim.Time
	for i, ps := range st.procs {
		res.PerProc[i] = ps.stats
		res.Candidates += ps.stats.Candidates
		res.TotalWork += ps.stats.Busy
		sumFinish += ps.stats.Finish
		if ps.stats.Finish > res.ResponseTime {
			res.ResponseTime = ps.stats.Finish
		}
		if i == 0 || ps.stats.Finish < res.FirstFinish {
			res.FirstFinish = ps.stats.Finish
		}
		if st.cfg.CollectCandidates {
			res.CandidateList = append(res.CandidateList, ps.cands...)
		}
	}
	res.AvgFinish = sumFinish / sim.Time(len(st.procs))
	st.met.finish(&res)
	return res
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
