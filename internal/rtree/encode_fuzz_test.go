package rtree

// Fuzz harness for the binary tree serialization: any tree the fuzzer can
// build — dynamic inserts with splits and reinsertions, bulk loads,
// deletions leaving free pages — must survive WriteTo/ReadTree with its
// structure, its page numbering and its sweep-cache views intact.

import (
	"bytes"
	"encoding/binary"
	"testing"

	"spjoin/internal/geom"
)

// fuzzItems derives a deterministic item list from raw fuzz bytes: eight
// bytes per item, decoded as small integer coordinates so every rectangle
// is finite and well-formed (the encoder's job is structure, not NaN
// handling — CheckIntegrity rejects malformed rects independently).
func fuzzItems(data []byte) []Item {
	var items []Item
	for i := 0; i+8 <= len(data) && len(items) < 600; i += 8 {
		x := float64(int16(binary.LittleEndian.Uint16(data[i:])))
		y := float64(int16(binary.LittleEndian.Uint16(data[i+2:])))
		w := float64(data[i+4]%64) + 1
		h := float64(data[i+5]%64) + 1
		items = append(items, Item{
			ID:   EntryID(len(items) + 1),
			Rect: geom.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h},
		})
	}
	return items
}

func FuzzEncodeDecode(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(0))
	f.Add(bytes.Repeat([]byte{9, 30, 200, 14, 7, 250, 0, 1}, 40), uint8(1))
	f.Add(bytes.Repeat([]byte{0xff, 0x7f, 0, 0x80, 63, 63, 1, 2}, 120), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, mode uint8) {
		items := fuzzItems(data)

		var tree *Tree
		switch mode % 3 {
		case 0: // dynamic build: exercises splits and reinsertions
			tree = New(DefaultParams())
			for _, it := range items {
				tree.Insert(it.ID, it.Rect)
			}
		case 1: // bulk load (STR packing, different page layout)
			tree = BulkLoadSTR(DefaultParams(), items, 0.73)
		default: // dynamic build, then delete a third: free pages, holes
			tree = New(DefaultParams())
			for _, it := range items {
				tree.Insert(it.ID, it.Rect)
			}
			for i, it := range items {
				if i%3 == 0 {
					tree.Delete(it.ID, it.Rect)
				}
			}
		}
		if err := tree.CheckIntegrity(); err != nil {
			t.Fatalf("built tree invalid before encoding: %v", err)
		}

		var buf bytes.Buffer
		if _, err := tree.WriteTo(&buf); err != nil {
			t.Fatalf("encode: %v", err)
		}
		decoded, err := ReadTree(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if err := decoded.CheckIntegrity(); err != nil {
			t.Fatalf("decoded tree invalid: %v", err)
		}

		if decoded.Len() != tree.Len() || decoded.Root() != tree.Root() ||
			len(decoded.nodes) != len(tree.nodes) {
			t.Fatalf("shape changed: len %d->%d root %d->%d pages %d->%d",
				tree.Len(), decoded.Len(), tree.Root(), decoded.Root(),
				len(tree.nodes), len(decoded.nodes))
		}
		tree.PrepareSweep()
		for page, orig := range tree.nodes {
			got := decoded.nodes[page]
			if (orig == nil) != (got == nil) {
				t.Fatalf("page %d: presence changed across round trip", page)
			}
			if orig == nil {
				continue
			}
			if got.Level != orig.Level || got.Parent != orig.Parent ||
				len(got.Entries) != len(orig.Entries) {
				t.Fatalf("page %d: header changed: level %d->%d parent %d->%d entries %d->%d",
					page, orig.Level, got.Level, orig.Parent, got.Parent,
					len(orig.Entries), len(got.Entries))
			}
			for i := range orig.Entries {
				if orig.Entries[i] != got.Entries[i] {
					t.Fatalf("page %d entry %d changed: %+v -> %+v",
						page, i, orig.Entries[i], got.Entries[i])
				}
			}
			// The decoded tree must present identical join views: same
			// rects, same plane-sweep order, same MBR.
			oPlanes, oOrder, oMBR := orig.PlanesView()
			dPlanes, dOrder, dMBR := got.PlanesView()
			if oMBR != dMBR || oPlanes.Len() != dPlanes.Len() || len(oOrder) != len(dOrder) {
				t.Fatalf("page %d: sweep view shape changed", page)
			}
			for i := 0; i < oPlanes.Len(); i++ {
				if o, d := oPlanes.RectAt(i), dPlanes.RectAt(i); o != d {
					t.Fatalf("page %d: sweep rect %d changed: %v -> %v", page, i, o, d)
				}
				if oOrder[i] != dOrder[i] {
					t.Fatalf("page %d: sweep order %d changed: %d -> %d", page, i, oOrder[i], dOrder[i])
				}
			}
		}
	})
}
