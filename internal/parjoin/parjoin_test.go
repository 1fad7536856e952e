package parjoin

import (
	"math/rand"

	"reflect"
	"spjoin/internal/buffer"
	"spjoin/internal/refine"
	"spjoin/internal/storage"
	"testing"

	"spjoin/internal/join"
	"spjoin/internal/rtree"
	"spjoin/internal/tiger"
)

// testTrees builds a small but structurally deep pair of trees from the
// synthetic maps (low fanout => height 4-5, so all reassignment levels are
// exercised).
func testTrees(tb testing.TB) (*rtree.Tree, *rtree.Tree) {
	tb.Helper()
	streets, mixed := tiger.Maps(0.02, 42)
	params := rtree.Params{MaxDirEntries: 10, MaxDataEntries: 10, MinFillFrac: 0.4, ReinsertFrac: 0.3}
	r := rtree.BulkLoadSTR(params, streets, 0.8)
	s := rtree.BulkLoadSTR(params, mixed, 0.8)
	return r, s
}

type pairKey struct{ r, s rtree.EntryID }

func candSet(cands []join.Candidate) map[pairKey]bool {
	out := make(map[pairKey]bool, len(cands))
	for _, c := range cands {
		out[pairKey{c.R, c.S}] = true
	}
	return out
}

func TestAllVariantsMatchSequential(t *testing.T) {
	r, s := testTrees(t)
	want := candSet(join.Sequential(r, s, join.Options{}))
	if len(want) == 0 {
		t.Fatal("test workload produced no candidates")
	}
	variants := []string{"lsr", "gsrr", "gd"}
	reassigns := []Reassign{ReassignNone, ReassignRoot, ReassignAll}
	for _, v := range variants {
		for _, ra := range reassigns {
			cfg := DefaultConfig(8, 8, 400).Variant(v)
			cfg.Reassign = ra
			cfg.CollectCandidates = true
			res := Run(r, s, cfg)
			got := candSet(res.CandidateList)
			if len(got) != len(want) {
				t.Fatalf("%s/%v: %d candidates, want %d", v, ra, len(got), len(want))
			}
			for k := range want {
				if !got[k] {
					t.Fatalf("%s/%v: missing candidate %v", v, ra, k)
				}
			}
			if res.Candidates != len(res.CandidateList) {
				t.Fatalf("%s/%v: Candidates=%d, list=%d", v, ra, res.Candidates, len(res.CandidateList))
			}
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	r, s := testTrees(t)
	for _, v := range []string{"lsr", "gsrr", "gd"} {
		cfg := DefaultConfig(8, 8, 400).Variant(v)
		a := Run(r, s, cfg)
		b := Run(r, s, cfg)
		a.CandidateList, b.CandidateList = nil, nil
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: two runs differ:\n%+v\n%+v", v, a, b)
		}
	}
}

func TestSingleProcessorWorks(t *testing.T) {
	r, s := testTrees(t)
	want := len(join.Sequential(r, s, join.Options{}))
	for _, v := range []string{"lsr", "gsrr", "gd"} {
		cfg := DefaultConfig(1, 1, 100).Variant(v)
		res := Run(r, s, cfg)
		if res.Candidates != want {
			t.Fatalf("%s: candidates = %d, want %d", v, res.Candidates, want)
		}
		if res.ResponseTime <= 0 {
			t.Fatalf("%s: response time %v", v, res.ResponseTime)
		}
		if len(res.PerProc) != 1 {
			t.Fatalf("%s: PerProc len %d", v, len(res.PerProc))
		}
	}
}

func TestMoreProcessorsFaster(t *testing.T) {
	r, s := testTrees(t)
	cfg1 := DefaultConfig(1, 1, 100)
	cfg8 := DefaultConfig(8, 8, 800)
	t1 := Run(r, s, cfg1).ResponseTime
	t8 := Run(r, s, cfg8).ResponseTime
	if t8 >= t1 {
		t.Fatalf("8 procs (%v) not faster than 1 (%v)", t8, t1)
	}
	// The workload is parallel enough that 8 processors with 8 disks should
	// be at least 3x faster.
	if float64(t1)/float64(t8) < 3 {
		t.Errorf("speed-up only %.2f, want >= 3", float64(t1)/float64(t8))
	}
}

func TestSingleDiskBottleneck(t *testing.T) {
	r, s := testTrees(t)
	t4 := Run(r, s, DefaultConfig(4, 1, 400)).ResponseTime
	t16 := Run(r, s, DefaultConfig(16, 1, 400)).ResponseTime
	// Figure 9's d=1 plateau: quadrupling processors on one disk gains
	// little. Allow up to 40% improvement before failing.
	if float64(t16) < 0.6*float64(t4) {
		t.Errorf("single disk: t(16)=%v much faster than t(4)=%v — disk should bottleneck", t16, t4)
	}
}

func TestGlobalBufferFewerDiskAccesses(t *testing.T) {
	r, s := testTrees(t)
	local := Run(r, s, DefaultConfig(8, 8, 400).Variant("lsr"))
	global := Run(r, s, DefaultConfig(8, 8, 400).Variant("gd"))
	if global.DiskAccesses >= local.DiskAccesses {
		t.Errorf("global buffer disk accesses %d >= local %d",
			global.DiskAccesses, local.DiskAccesses)
	}
}

func TestLargerBufferFewerDiskAccesses(t *testing.T) {
	r, s := testTrees(t)
	small := Run(r, s, DefaultConfig(8, 8, 80))
	large := Run(r, s, DefaultConfig(8, 8, 1600))
	if large.DiskAccesses > small.DiskAccesses {
		t.Errorf("larger buffer increased disk accesses: %d vs %d",
			large.DiskAccesses, small.DiskAccesses)
	}
}

func TestReassignmentBalancesLSR(t *testing.T) {
	r, s := testTrees(t)
	base := DefaultConfig(8, 8, 400).Variant("lsr")
	base.Reassign = ReassignNone
	none := Run(r, s, base)
	base.Reassign = ReassignAll
	all := Run(r, s, base)
	if all.Reassignments == 0 {
		t.Fatal("no reassignments happened under ReassignAll")
	}
	// Load balancing must shrink the idle window of the first finisher
	// relative to the last.
	spreadNone := float64(none.ResponseTime - none.FirstFinish)
	spreadAll := float64(all.ResponseTime - all.FirstFinish)
	if spreadAll >= spreadNone {
		t.Errorf("reassignment did not reduce finish spread: %v -> %v",
			spreadNone, spreadAll)
	}
	if all.ResponseTime >= none.ResponseTime {
		t.Errorf("reassignment did not reduce response time: %v -> %v",
			none.ResponseTime, all.ResponseTime)
	}
}

func TestDynamicRootReassignEqualsNone(t *testing.T) {
	// §4.4: with dynamic task assignment, a reassignment on the root level
	// is a no-op because tasks are requested one by one.
	r, s := testTrees(t)
	cfg := DefaultConfig(8, 8, 400).Variant("gd")
	cfg.Reassign = ReassignNone
	none := Run(r, s, cfg)
	cfg.Reassign = ReassignRoot
	root := Run(r, s, cfg)
	if root.Reassignments != 0 {
		t.Fatalf("gd/root performed %d reassignments, want 0", root.Reassignments)
	}
	if none.ResponseTime != root.ResponseTime || none.DiskAccesses != root.DiskAccesses {
		t.Errorf("gd none vs root differ: rt %v vs %v, disk %d vs %d",
			none.ResponseTime, root.ResponseTime, none.DiskAccesses, root.DiskAccesses)
	}
}

func TestVictimPoliciesBothWork(t *testing.T) {
	r, s := testTrees(t)
	want := Run(r, s, DefaultConfig(4, 4, 200)).Candidates
	for _, v := range []Victim{MostLoaded, RandomVictim} {
		cfg := DefaultConfig(4, 4, 200).Variant("lsr")
		cfg.Reassign = ReassignAll
		cfg.Victim = v
		cfg.Seed = 7
		res := Run(r, s, cfg)
		if res.Candidates != want {
			t.Fatalf("victim %v: candidates = %d, want %d", v, res.Candidates, want)
		}
	}
}

func TestTotalWorkAccounting(t *testing.T) {
	r, s := testTrees(t)
	res := Run(r, s, DefaultConfig(8, 8, 400))
	if res.TotalWork <= 0 {
		t.Fatal("TotalWork not accounted")
	}
	for i, p := range res.PerProc {
		if p.Busy > p.Finish {
			t.Errorf("proc %d: busy %v > finish %v", i, p.Busy, p.Finish)
		}
	}
	if res.FirstFinish > res.AvgFinish || res.AvgFinish > res.ResponseTime {
		t.Errorf("finish ordering violated: %v <= %v <= %v",
			res.FirstFinish, res.AvgFinish, res.ResponseTime)
	}
}

func TestPathBufferReducesBufferTraffic(t *testing.T) {
	r, s := testTrees(t)
	with := DefaultConfig(8, 8, 400)
	without := with
	without.PathBuffer = false
	a := Run(r, s, with)
	b := Run(r, s, without)
	if a.PathBufferHits == 0 {
		t.Fatal("path buffer never hit")
	}
	if b.PathBufferHits != 0 {
		t.Fatal("path buffer hits counted while disabled")
	}
	if a.Buffer.Accesses() >= b.Buffer.Accesses() {
		t.Errorf("path buffer did not reduce buffer traffic: %d vs %d",
			a.Buffer.Accesses(), b.Buffer.Accesses())
	}
}

func TestCreateTasksEnoughTasks(t *testing.T) {
	r, s := testTrees(t)
	tasks, level, comparisons := CreateTasks(r, s, join.Options{}, 24)
	if len(tasks) < 24 {
		// Acceptable only if tasks bottomed out at leaf level.
		if level != 0 {
			t.Fatalf("only %d tasks at level %d, want >= 24 or level 0", len(tasks), level)
		}
	}
	if comparisons <= 0 {
		t.Error("no comparisons counted during creation")
	}
	for _, task := range tasks {
		if task.MaxLevel() > level {
			t.Fatalf("task %+v above reported level %d", task, level)
		}
	}
}

func TestCreateTasksEmptyTrees(t *testing.T) {
	params := rtree.Params{MaxDirEntries: 10, MaxDataEntries: 10, MinFillFrac: 0.4, ReinsertFrac: 0.3}
	empty := rtree.New(params)
	tasks, _, _ := CreateTasks(empty, empty, join.Options{}, 8)
	if tasks != nil {
		t.Fatalf("empty trees produced %d tasks", len(tasks))
	}
	res := Run(empty, empty, DefaultConfig(4, 4, 100))
	if res.Candidates != 0 || res.TasksCreated != 0 {
		t.Fatalf("empty join: %+v", res)
	}
}

func TestSplitRange(t *testing.T) {
	tasks := make([]join.NodePair, 11)
	for i := range tasks {
		tasks[i].RLevel = i // marker
	}
	blocks := join.SplitRange(tasks, 3)
	// 11 = 4+4+3.
	if len(blocks[0]) != 4 || len(blocks[1]) != 4 || len(blocks[2]) != 3 {
		t.Fatalf("block sizes %d/%d/%d, want 4/4/3",
			len(blocks[0]), len(blocks[1]), len(blocks[2]))
	}
	if blocks[0][0].RLevel != 0 || blocks[1][0].RLevel != 4 || blocks[2][0].RLevel != 8 {
		t.Fatal("blocks are not contiguous in order")
	}
}

func TestSplitRoundRobin(t *testing.T) {
	tasks := make([]join.NodePair, 7)
	for i := range tasks {
		tasks[i].RLevel = i
	}
	blocks := splitRoundRobin(tasks, 3)
	if len(blocks[0]) != 3 || len(blocks[1]) != 2 || len(blocks[2]) != 2 {
		t.Fatalf("block sizes %d/%d/%d", len(blocks[0]), len(blocks[1]), len(blocks[2]))
	}
	want0 := []int{0, 3, 6}
	for i, task := range blocks[0] {
		if task.RLevel != want0[i] {
			t.Fatalf("round robin block 0: %v", blocks[0])
		}
	}
}

func TestConfigValidation(t *testing.T) {
	r, s := testTrees(t)
	bad := []Config{
		{Procs: 0, Disks: 1, BufferPages: 10, MinSteal: 1, TaskFactor: 1},
		{Procs: 1, Disks: 0, BufferPages: 10, MinSteal: 1, TaskFactor: 1},
		{Procs: 4, Disks: 1, BufferPages: 2, MinSteal: 1, TaskFactor: 1},
		{Procs: 1, Disks: 1, BufferPages: 10, MinSteal: 0, TaskFactor: 1},
		{Procs: 1, Disks: 1, BufferPages: 10, MinSteal: 1, TaskFactor: 0},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d did not panic", i)
				}
			}()
			Run(r, s, cfg)
		}()
	}
}

func TestVariantNames(t *testing.T) {
	cfg := DefaultConfig(2, 2, 10)
	if v := cfg.Variant("lsr"); v.Buffer != LocalOrg || v.Assign != StaticRange {
		t.Error("lsr wrong")
	}
	if v := cfg.Variant("gsrr"); v.Buffer != GlobalOrg || v.Assign != StaticRoundRobin {
		t.Error("gsrr wrong")
	}
	if v := cfg.Variant("gd"); v.Buffer != GlobalOrg || v.Assign != Dynamic {
		t.Error("gd wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown variant did not panic")
		}
	}()
	cfg.Variant("bogus")
}

func TestEnumStrings(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{StaticRange.String(), "static-range"},
		{StaticRoundRobin.String(), "static-round-robin"},
		{Dynamic.String(), "dynamic"},
		{LocalOrg.String(), "local"},
		{GlobalOrg.String(), "global"},
		{ReassignNone.String(), "none"},
		{ReassignRoot.String(), "root-level"},
		{ReassignAll.String(), "all-levels"},
		{MostLoaded.String(), "most-loaded"},
		{RandomVictim.String(), "random"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("String() = %q, want %q", c.got, c.want)
		}
	}
	if Assignment(9).String() == "" || BufferOrg(9).String() == "" ||
		Reassign(9).String() == "" || Victim(9).String() == "" {
		t.Error("unknown enum values must still format")
	}
}

func TestSpeedupHelper(t *testing.T) {
	res := Result{ResponseTime: 50}
	if got := res.Speedup(100); got != 2 {
		t.Fatalf("Speedup = %g, want 2", got)
	}
	if (Result{}).Speedup(100) != 0 {
		t.Fatal("zero response time must yield 0 speedup")
	}
}

func TestSharedNothingOrgCorrectAndComparable(t *testing.T) {
	r, s := testTrees(t)
	svm := DefaultConfig(8, 8, 400)
	sn := svm
	sn.Buffer = SharedNothingOrg
	resSVM := Run(r, s, svm)
	resSN := Run(r, s, sn)
	if resSN.Candidates != resSVM.Candidates {
		t.Fatalf("shared-nothing candidates %d != SVM %d", resSN.Candidates, resSVM.Candidates)
	}
	if resSN.ResponseTime <= 0 {
		t.Fatal("no virtual time elapsed")
	}
	// The paper's §5 conjecture: comparable performance. Allow a 2x band.
	ratio := float64(resSN.ResponseTime) / float64(resSVM.ResponseTime)
	if ratio > 2 || ratio < 0.5 {
		t.Errorf("shared-nothing/SVM response ratio %.2f outside [0.5, 2]", ratio)
	}
	if SharedNothingOrg.String() != "shared-nothing" {
		t.Error("BufferOrg string missing")
	}
}

func TestQuickRandomConfigsMatchSequential(t *testing.T) {
	// Property: EVERY parallel configuration computes exactly the
	// sequential candidate set. Sample the configuration space.
	r, s := testTrees(t)
	want := len(join.Sequential(r, s, join.Options{}))
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 25; trial++ {
		procs := 1 + rng.Intn(12)
		cfg := Config{
			Procs:       procs,
			Disks:       1 + rng.Intn(12),
			BufferPages: procs * (1 + rng.Intn(60)),
			Buffer:      BufferOrg(rng.Intn(3)),
			Assign:      Assignment(rng.Intn(3)),
			Reassign:    Reassign(rng.Intn(3)),
			Victim:      Victim(rng.Intn(2)),
			MinSteal:    1 + rng.Intn(8),
			TaskFactor:  1 + rng.Intn(6),
			PathBuffer:  rng.Intn(2) == 0,
			Seed:        rng.Int63(),
			CPU:         DefaultCPUParams(),
			Disk:        storage.DefaultDiskParams(),
			BufferCosts: buffer.DefaultCostParams(),
			Refine:      refine.DefaultCostModel(),
		}
		res := Run(r, s, cfg)
		if res.Candidates != want {
			t.Fatalf("trial %d (%+v): %d candidates, want %d", trial, cfg, res.Candidates, want)
		}
		if res.ResponseTime <= 0 || res.TotalWork < res.ResponseTime-1e9 {
			t.Fatalf("trial %d: incoherent times %v / %v", trial, res.ResponseTime, res.TotalWork)
		}
	}
}

func TestResultTaskMetadata(t *testing.T) {
	r, s := testTrees(t)
	res := Run(r, s, DefaultConfig(8, 8, 400))
	if res.TasksCreated < 8 {
		t.Fatalf("TasksCreated = %d, want >= procs", res.TasksCreated)
	}
	// With dynamic assignment every task is taken from the queue; the
	// per-processor Tasks counters must sum to m.
	total := 0
	for _, p := range res.PerProc {
		total += p.Tasks
	}
	if total != res.TasksCreated {
		t.Fatalf("per-proc task takes sum to %d, want %d", total, res.TasksCreated)
	}
}

func TestStolenAccounting(t *testing.T) {
	r, s := testTrees(t)
	cfg := DefaultConfig(8, 8, 400).Variant("lsr")
	cfg.Reassign = ReassignAll
	res := Run(r, s, cfg)
	if res.Reassignments == 0 {
		t.Skip("no reassignments in this draw")
	}
	stolen, stolenFrom := 0, 0
	for _, p := range res.PerProc {
		stolen += p.Stolen
		stolenFrom += p.StolenFrom
	}
	if stolen != stolenFrom {
		t.Fatalf("stolen %d != stolen-from %d", stolen, stolenFrom)
	}
	if stolen == 0 {
		t.Fatal("reassignments recorded but no pairs moved")
	}
}
