package rtree

import (
	"bytes"
	"reflect"
	"testing"

	"spjoin/internal/geom"
)

func roundTrip(t *testing.T, tree *Tree) *Tree {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tree.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	got, err := ReadTree(&buf)
	if err != nil {
		t.Fatalf("ReadTree: %v", err)
	}
	return got
}

func assertTreesEqual(t *testing.T, a, b *Tree) {
	t.Helper()
	if a.Len() != b.Len() || a.Height() != b.Height() || a.Root() != b.Root() {
		t.Fatalf("shape mismatch: len %d/%d height %d/%d root %d/%d",
			a.Len(), b.Len(), a.Height(), b.Height(), a.Root(), b.Root())
	}
	if a.Params() != b.Params() {
		t.Fatalf("params mismatch: %+v vs %+v", a.Params(), b.Params())
	}
	if len(a.nodes) != len(b.nodes) {
		t.Fatalf("page counts differ: %d vs %d", len(a.nodes), len(b.nodes))
	}
	// Sweep caches and blocks are derived data built at different times
	// (the loaders build them eagerly, dynamic trees lazily); materialize
	// both sides so DeepEqual compares their contents instead of nil vs.
	// built.
	for _, tr := range []*Tree{a, b} {
		tr.PrepareSweep()
		tr.PrepareBlocks()
	}
	for i := range a.nodes {
		na, nb := a.nodes[i], b.nodes[i]
		if (na == nil) != (nb == nil) {
			t.Fatalf("page %d presence differs", i)
		}
		if na == nil {
			continue
		}
		if !reflect.DeepEqual(*na, *nb) {
			t.Fatalf("page %d differs:\n%+v\n%+v", i, *na, *nb)
		}
	}
}

func TestEncodeRoundTripInserted(t *testing.T) {
	tree, _ := buildRandom(t, smallParams(), 500, 21)
	assertTreesEqual(t, tree, roundTrip(t, tree))
}

func TestEncodeRoundTripSTR(t *testing.T) {
	tree := BulkLoadSTR(DefaultParams(), randomItems(3000, 22), 0.73)
	assertTreesEqual(t, tree, roundTrip(t, tree))
}

func TestEncodeRoundTripEmpty(t *testing.T) {
	tree := New(smallParams())
	assertTreesEqual(t, tree, roundTrip(t, tree))
}

func TestEncodeRoundTripWithFreedPages(t *testing.T) {
	// Deletion frees pages; the encoding must preserve page numbering with
	// holes so disk placement survives.
	tree, items := buildRandom(t, smallParams(), 300, 23)
	for i := 0; i < 200; i++ {
		if !tree.Delete(items[i].ID, items[i].Rect) {
			t.Fatalf("delete %d failed", i)
		}
	}
	got := roundTrip(t, tree)
	assertTreesEqual(t, tree, got)
	// Mutations must keep working on the decoded tree.
	got.Insert(9999, geom.NewRect(1, 1, 2, 2))
	if err := got.CheckIntegrity(); err != nil {
		t.Fatalf("decoded tree broken after insert: %v", err)
	}
}

func TestDecodedTreeSearches(t *testing.T) {
	tree, items := buildRandom(t, smallParams(), 400, 24)
	got := roundTrip(t, tree)
	for _, it := range items[:50] {
		found := false
		got.Search(it.Rect, func(id EntryID, r geom.Rect) bool {
			if id == it.ID && r == it.Rect {
				found = true
				return false
			}
			return true
		})
		if !found {
			t.Fatalf("decoded tree lost entry %d", it.ID)
		}
	}
}

func TestReadTreeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("BOGUS---------------"),
		[]byte("RST1"), // truncated header
	}
	for i, data := range cases {
		if _, err := ReadTree(bytes.NewReader(data)); err == nil {
			t.Errorf("case %d: ReadTree accepted garbage", i)
		}
	}
}

func TestReadTreeRejectsTruncatedBody(t *testing.T) {
	tree, _ := buildRandom(t, smallParams(), 100, 25)
	var buf bytes.Buffer
	if _, err := tree.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{len(data) / 4, len(data) / 2, len(data) - 3} {
		if _, err := ReadTree(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("ReadTree accepted truncation at %d", cut)
		}
	}
}

func TestReadTreeRejectsCorruptedStructure(t *testing.T) {
	tree, _ := buildRandom(t, smallParams(), 100, 26)
	var buf bytes.Buffer
	if _, err := tree.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip bytes in the body; either decoding fails or the integrity check
	// rejects the tree — silent acceptance of a broken structure would be
	// the bug. Some flips only touch rectangle bits and survive both (the
	// tree stays structurally valid), so count rejections.
	rejected := 0
	for off := 40; off < len(data)-8 && off < 400; off += 17 {
		corrupt := append([]byte(nil), data...)
		corrupt[off] ^= 0xFF
		if _, err := ReadTree(bytes.NewReader(corrupt)); err != nil {
			rejected++
		}
	}
	if rejected == 0 {
		t.Error("no corruption was ever detected")
	}
}

func BenchmarkEncode(b *testing.B) {
	tree := BulkLoadSTR(DefaultParams(), randomItems(10000, 1), 0.73)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		tree.WriteTo(&buf)
	}
}

func BenchmarkDecode(b *testing.B) {
	tree := BulkLoadSTR(DefaultParams(), randomItems(10000, 1), 0.73)
	var buf bytes.Buffer
	tree.WriteTo(&buf)
	data := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadTree(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
