package rtree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"spjoin/internal/geom"
	"spjoin/internal/storage"
)

// Binary tree serialization. The format mirrors the paged layout the paper
// assumes on disk: a fixed header followed by one record per page in page-
// number order, so page numbers — and therefore the disk-array placement —
// survive a round trip exactly.
//
// Layout (all little-endian):
//
//	magic "RST1" | params (4 × u32/f64) | size u64 | root i32 | pageCount u32
//	per page: present u8 | level u16 | parent i32 | entryCount u16 | entries
//	per entry: rect (4 × f64) | child i32 | obj i32
const encodeMagic = "RST1"

// WriteTo serializes the tree. It implements io.WriterTo.
func (t *Tree) WriteTo(w io.Writer) (int64, error) {
	var buf bytes.Buffer
	buf.WriteString(encodeMagic)
	writeU32(&buf, uint32(t.params.MaxDirEntries))
	writeU32(&buf, uint32(t.params.MaxDataEntries))
	writeF64(&buf, t.params.MinFillFrac)
	writeF64(&buf, t.params.ReinsertFrac)
	buf.WriteByte(byte(t.params.Split))
	writeU64(&buf, uint64(t.size))
	writeI32(&buf, int32(t.root))
	writeU32(&buf, uint32(len(t.nodes)))
	for _, n := range t.nodes {
		if n == nil {
			buf.WriteByte(0)
			continue
		}
		buf.WriteByte(1)
		writeU16(&buf, uint16(n.Level))
		writeI32(&buf, int32(n.Parent))
		writeU16(&buf, uint16(len(n.Entries)))
		for i := range n.Entries {
			e := &n.Entries[i]
			writeF64(&buf, e.Rect.MinX)
			writeF64(&buf, e.Rect.MinY)
			writeF64(&buf, e.Rect.MaxX)
			writeF64(&buf, e.Rect.MaxY)
			writeI32(&buf, int32(e.Child))
			writeI32(&buf, int32(e.Obj))
		}
	}
	n, err := w.Write(buf.Bytes())
	return int64(n), err
}

// ReadTree deserializes a tree written by WriteTo, verifies its structural
// integrity and prepares it for the native join, as the bulk loaders do
// (PrepareBlocks).
func ReadTree(r io.Reader) (*Tree, error) {
	br := &byteReader{r: r}
	magic := make([]byte, 4)
	br.read(magic)
	if string(magic) != encodeMagic {
		return nil, fmt.Errorf("rtree: bad magic %q", magic)
	}
	params := Params{
		MaxDirEntries:  int(br.u32()),
		MaxDataEntries: int(br.u32()),
		MinFillFrac:    br.f64(),
		ReinsertFrac:   br.f64(),
		Split:          SplitStrategy(br.u8()),
	}
	size := int(br.u64())
	root := storage.PageID(br.i32())
	pageCount := int(br.u32())
	if br.err != nil {
		return nil, fmt.Errorf("rtree: truncated header: %w", br.err)
	}
	if pageCount < 0 || pageCount > 1<<28 {
		return nil, fmt.Errorf("rtree: implausible page count %d", pageCount)
	}

	t := &Tree{params: params, root: root, size: size}
	t.nodes = make([]*Node, pageCount)
	for page := 0; page < pageCount; page++ {
		present := br.u8()
		if present == 0 {
			continue
		}
		n := &Node{
			Page:   storage.PageID(page),
			Level:  int(br.u16()),
			Parent: storage.PageID(br.i32()),
		}
		entryCount := int(br.u16())
		if br.err != nil {
			return nil, fmt.Errorf("rtree: truncated page %d: %w", page, br.err)
		}
		maxEntries := params.MaxDirEntries
		if maxEntries < params.MaxDataEntries {
			maxEntries = params.MaxDataEntries
		}
		if entryCount > maxEntries {
			return nil, fmt.Errorf("rtree: page %d claims %d entries (max %d)",
				page, entryCount, maxEntries)
		}
		if entryCount > 0 {
			n.Entries = make([]Entry, entryCount)
		}
		for i := range n.Entries {
			e := &n.Entries[i]
			e.Rect = geom.Rect{
				MinX: br.f64(), MinY: br.f64(),
				MaxX: br.f64(), MaxY: br.f64(),
			}
			e.Child = storage.PageID(br.i32())
			e.Obj = EntryID(br.i32())
		}
		t.nodes[page] = n
	}
	if br.err != nil {
		return nil, fmt.Errorf("rtree: truncated body: %w", br.err)
	}
	if err := t.CheckIntegrity(); err != nil {
		return nil, fmt.Errorf("rtree: decoded tree invalid: %w", err)
	}
	t.prepareBlocks(1)
	return t, nil
}

// --- little-endian helpers ----------------------------------------------

func writeU16(buf *bytes.Buffer, v uint16) {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	buf.Write(b[:])
}

func writeU32(buf *bytes.Buffer, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	buf.Write(b[:])
}

func writeU64(buf *bytes.Buffer, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	buf.Write(b[:])
}

func writeI32(buf *bytes.Buffer, v int32) { writeU32(buf, uint32(v)) }

func writeF64(buf *bytes.Buffer, v float64) { writeU64(buf, math.Float64bits(v)) }

// byteReader reads fixed-width little-endian values, remembering the first
// error so call sites stay linear.
type byteReader struct {
	r   io.Reader
	err error
}

func (b *byteReader) read(p []byte) {
	if b.err != nil {
		return
	}
	_, b.err = io.ReadFull(b.r, p)
}

func (b *byteReader) u8() uint8 {
	var p [1]byte
	b.read(p[:])
	return p[0]
}

func (b *byteReader) u16() uint16 {
	var p [2]byte
	b.read(p[:])
	return binary.LittleEndian.Uint16(p[:])
}

func (b *byteReader) u32() uint32 {
	var p [4]byte
	b.read(p[:])
	return binary.LittleEndian.Uint32(p[:])
}

func (b *byteReader) u64() uint64 {
	var p [8]byte
	b.read(p[:])
	return binary.LittleEndian.Uint64(p[:])
}

func (b *byteReader) i32() int32 { return int32(b.u32()) }

func (b *byteReader) f64() float64 { return math.Float64frombits(b.u64()) }
