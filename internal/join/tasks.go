package join

// CreateTasks performs the paper's sequential task-creation phase (§3.1)
// against any node source: starting from the root pair, node pairs are
// expanded level by level — always in local plane-sweep order — until at
// least minTasks pairs of subtrees exist or only pairs at or below the floor
// level remain. A pair is at or below the floor when its MaxLevel is: floor
// 0 (the simulator's) divides down to leaf pairs, floor 1 (the native join's,
// which joins level-1 pairs as blocks) stops above them.
//
// The returned level is the maximum subtree level among the tasks (the
// "root level" for reassignment purposes); comparisons counts the rectangle
// tests spent.
func CreateTasks(src Source, root NodePair, opts Options, minTasks, floor int) (tasks []NodePair, level int, comparisons int) {
	var sc Scratch
	tasks = []NodePair{root}
	for len(tasks) < minTasks {
		next := make([]NodePair, 0, 4*len(tasks))
		expandedAny := false
		for _, p := range tasks {
			if p.MaxLevel() <= floor {
				next = append(next, p) // not divided further
				continue
			}
			expandedAny = true
			nr := src.Node(SideR, p.RPage, p.RLevel)
			ns := src.Node(SideS, p.SPage, p.SLevel)
			cands, children, comp := sc.Expand(nr, ns, opts)
			if len(cands) > 0 {
				panic("join: candidate emitted during task creation")
			}
			comparisons += comp
			next = append(next, children...)
		}
		tasks = next
		if !expandedAny {
			break
		}
	}
	for _, t := range tasks {
		if l := t.MaxLevel(); l > level {
			level = l
		}
	}
	return tasks, level, comparisons
}

// SplitRange partitions tasks into n contiguous blocks in plane-sweep order:
// the first (len mod n) processors receive ⌈m/n⌉ tasks, the others ⌊m/n⌋
// (§3.1, static range assignment). The blocks alias tasks.
func SplitRange[T any](tasks []T, n int) [][]T {
	out := make([][]T, n)
	m := len(tasks)
	base := m / n
	extra := m % n
	pos := 0
	for i := 0; i < n; i++ {
		size := base
		if i < extra {
			size++
		}
		out[i] = tasks[pos : pos+size]
		pos += size
	}
	return out
}
