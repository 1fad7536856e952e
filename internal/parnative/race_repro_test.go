package parnative

import (
	"testing"

	"spjoin/internal/join"
)

// Stress the end of the cursor: many workers, tiny tasks, repeated runs,
// comparing candidate counts against sequential — a unit claimed twice or
// never, or a worker stopping before the cursor passes the end, shows as a
// wrong count.
func TestStressPrematureTermination(t *testing.T) {
	r, s := testTrees(t)
	want := len(join.Sequential(r, s, join.Options{}))
	for i := 0; i < 3000; i++ {
		res := Join(r, s, Config{Workers: 16, TaskFactor: 1})
		if len(res.Candidates) != want {
			t.Fatalf("iteration %d: %d candidates, want %d (premature termination)", i, len(res.Candidates), want)
		}
	}
}
