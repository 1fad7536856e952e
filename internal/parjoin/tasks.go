package parjoin

import (
	"spjoin/internal/join"
	"spjoin/internal/rtree"
)

// CreateTasks performs the sequential task-creation phase (§3.1): starting
// from the pair of roots, the trees are expanded level by level — always in
// local plane-sweep order — until at least minTasks pairs of subtrees exist
// or only leaf pairs remain. With realistic trees a single expansion
// suffices and the tasks are the m intersecting pairs of root entries.
//
// The returned level is the maximum subtree level among the tasks (the
// "root level" for reassignment purposes), and comparisons counts the
// rectangle tests spent (the paper treats this initialization as negligible,
// and so does the executor: the cost is reported but not charged).
func CreateTasks(r, s *rtree.Tree, opts join.Options, minTasks int) (tasks []join.NodePair, level int, comparisons int) {
	root, ok := join.RootPair(r, s)
	if !ok {
		return nil, 0, 0
	}
	return join.CreateTasks(join.DirectSource{R: r, S: s}, root, opts, minTasks, 0)
}

// splitRoundRobin deals tasks to processors round-robin in plane-sweep
// order (§3.3, static round-robin assignment).
func splitRoundRobin(tasks []join.NodePair, n int) [][]join.NodePair {
	out := make([][]join.NodePair, n)
	for i, t := range tasks {
		out[i%n] = append(out[i%n], t)
	}
	return out
}
