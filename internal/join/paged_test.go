package join

import (
	"fmt"
	"path/filepath"
	"testing"

	"spjoin/internal/pagefile"
	"spjoin/internal/rtree"
	"spjoin/internal/tiger"
)

func pagedTrees(t *testing.T, frames int) (*rtree.PagedTree, *rtree.PagedTree, *rtree.Tree, *rtree.Tree) {
	t.Helper()
	streets, mixed := tiger.Maps(0.01, 42)
	r := rtree.BulkLoadSTR(smallParams(), streets, 0.8)
	s := rtree.BulkLoadSTR(smallParams(), mixed, 0.8)
	dir := t.TempDir()
	save := func(tree *rtree.Tree, name string) *rtree.PagedTree {
		pf, err := pagefile.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { pf.Close() })
		if err := tree.SaveToPageFile(pf); err != nil {
			t.Fatal(err)
		}
		pt, err := rtree.OpenPagedTree(pf, frames)
		if err != nil {
			t.Fatal(err)
		}
		return pt
	}
	return save(r, "r.spjf"), save(s, "s.spjf"), r, s
}

// TestPagedSourceRejectsWrongLevel pins the paged source's level check: a
// node read at the level its parent pair expects is served, and one whose
// decoded level differs is an error — the check that keeps a corrupt child
// pointer from looping the traversal.
func TestPagedSourceRejectsWrongLevel(t *testing.T) {
	pr, ps, r, _ := pagedTrees(t, 8)
	root, ok, err := PagedRootPair(pr, ps)
	if err != nil || !ok {
		t.Fatalf("PagedRootPair = %v, %v", ok, err)
	}
	if root.RLevel != r.Height()-1 || root.RLevel == 0 {
		t.Fatalf("root level %d for a tree of height %d — test premise broken", root.RLevel, r.Height())
	}

	src, check := NewPagedSource(pr, ps)
	if n := src.Node(SideR, root.RPage, root.RLevel); len(n.Entries) == 0 || check() != nil {
		t.Fatalf("root at its own level: %d entries, err %v", len(n.Entries), check())
	}
	n := src.Node(SideR, root.RPage, root.RLevel-1)
	err = check()
	want := fmt.Sprintf("page %d is level %d, parent expects %d", root.RPage, root.RLevel, root.RLevel-1)
	if err == nil || err.Error() != want {
		t.Fatalf("root read one level down: err %v, want %q", err, want)
	}
	if len(n.Entries) != 0 || n.Level != root.RLevel-1 {
		t.Fatalf("failed read returned %d entries at level %d, want an empty node at %d",
			len(n.Entries), n.Level, root.RLevel-1)
	}
}
