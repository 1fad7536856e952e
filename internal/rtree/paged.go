package rtree

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"spjoin/internal/geom"
	"spjoin/internal/pagefile"
	"spjoin/internal/storage"
)

// Real paged persistence: a tree is stored one node per 4 KB page in a
// pagefile.File, preserving the node numbering (file page = node page + 1,
// page 0 being the file header). A PagedTree then serves nodes through a
// real pinning buffer pool, so joins and queries can run out-of-core with
// actual I/O — the disk-resident setting the paper assumes, as opposed to
// the cost-model simulation of package storage.

// node page layout (little-endian):
//
//	level u16 | entryCount u16 | parent i32 | present u8 | entries... |
//	... | crc32 (IEEE, over bytes [0, PageSize-4)) in the last 4 bytes
//	entry: minx,miny,maxx,maxy f64 | child i32 | obj i32   (40 bytes)
const (
	pageHdrLevel   = 0
	pageHdrCount   = 2
	pageHdrParent  = 4
	pageHdrPresent = 8
	pageHdrSize    = 9
	pageEntrySize  = 40
	pageCrcOffset  = pagefile.PageSize - 4
)

// maxEntriesPerPage is how many 40-byte entries fit between header and
// checksum.
const maxEntriesPerPage = (pageCrcOffset - pageHdrSize) / pageEntrySize

// pagedMetaSize is the tree metadata stored in the file header.
const pagedMetaSize = 4 + 4 + 8 + 8 + 1 + 8 + 4 + 4

// SaveToPageFile writes the tree into a freshly created page file, one node
// per page, and stores the tree metadata in the file header. The file must
// be empty (just created).
func (t *Tree) SaveToPageFile(pf *pagefile.File) error {
	if pf.PageCount() != 1 {
		return fmt.Errorf("rtree: SaveToPageFile needs an empty page file, got %d pages", pf.PageCount())
	}
	if t.params.MaxDirEntries > maxEntriesPerPage || t.params.MaxDataEntries > maxEntriesPerPage {
		return fmt.Errorf("rtree: fanout %d/%d exceeds page capacity %d",
			t.params.MaxDirEntries, t.params.MaxDataEntries, maxEntriesPerPage)
	}
	var buf [pagefile.PageSize]byte
	for _, n := range t.nodes {
		id, err := pf.Allocate()
		if err != nil {
			return err
		}
		for i := range buf {
			buf[i] = 0
		}
		if n != nil {
			if err := encodeNodePage(n, buf[:]); err != nil {
				return err
			}
		}
		if err := pf.WritePage(id, buf[:]); err != nil {
			return err
		}
	}
	meta := make([]byte, pagedMetaSize)
	binary.LittleEndian.PutUint32(meta[0:], uint32(t.params.MaxDirEntries))
	binary.LittleEndian.PutUint32(meta[4:], uint32(t.params.MaxDataEntries))
	binary.LittleEndian.PutUint64(meta[8:], math.Float64bits(t.params.MinFillFrac))
	binary.LittleEndian.PutUint64(meta[16:], math.Float64bits(t.params.ReinsertFrac))
	meta[24] = byte(t.params.Split)
	binary.LittleEndian.PutUint64(meta[25:], uint64(t.size))
	binary.LittleEndian.PutUint32(meta[33:], uint32(t.root))
	binary.LittleEndian.PutUint32(meta[37:], uint32(len(t.nodes)))
	if err := pf.SetMeta(meta); err != nil {
		return err
	}
	return pf.Sync()
}

func encodeNodePage(n *Node, buf []byte) error {
	if len(n.Entries) > maxEntriesPerPage {
		return fmt.Errorf("rtree: node %d has %d entries, page fits %d",
			n.Page, len(n.Entries), maxEntriesPerPage)
	}
	binary.LittleEndian.PutUint16(buf[pageHdrLevel:], uint16(n.Level))
	binary.LittleEndian.PutUint16(buf[pageHdrCount:], uint16(len(n.Entries)))
	binary.LittleEndian.PutUint32(buf[pageHdrParent:], uint32(int32(n.Parent)))
	buf[pageHdrPresent] = 1
	off := pageHdrSize
	for i := range n.Entries {
		e := &n.Entries[i]
		binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(e.Rect.MinX))
		binary.LittleEndian.PutUint64(buf[off+8:], math.Float64bits(e.Rect.MinY))
		binary.LittleEndian.PutUint64(buf[off+16:], math.Float64bits(e.Rect.MaxX))
		binary.LittleEndian.PutUint64(buf[off+24:], math.Float64bits(e.Rect.MaxY))
		binary.LittleEndian.PutUint32(buf[off+32:], uint32(int32(e.Child)))
		binary.LittleEndian.PutUint32(buf[off+36:], uint32(int32(e.Obj)))
		off += pageEntrySize
	}
	binary.LittleEndian.PutUint32(buf[pageCrcOffset:], crc32.ChecksumIEEE(buf[:pageCrcOffset]))
	return nil
}

func decodeNodePage(page storage.PageID, buf []byte) (*Node, error) {
	if buf[pageHdrPresent] == 0 {
		return nil, fmt.Errorf("rtree: page %d holds no node", page)
	}
	want := binary.LittleEndian.Uint32(buf[pageCrcOffset:])
	if got := crc32.ChecksumIEEE(buf[:pageCrcOffset]); got != want {
		return nil, fmt.Errorf("rtree: page %d checksum mismatch (%08x != %08x): on-disk corruption",
			page, got, want)
	}
	n := &Node{
		Page:   page,
		Level:  int(binary.LittleEndian.Uint16(buf[pageHdrLevel:])),
		Parent: storage.PageID(int32(binary.LittleEndian.Uint32(buf[pageHdrParent:]))),
	}
	count := int(binary.LittleEndian.Uint16(buf[pageHdrCount:]))
	if count > maxEntriesPerPage {
		return nil, fmt.Errorf("rtree: page %d claims %d entries", page, count)
	}
	n.Entries = make([]Entry, count)
	off := pageHdrSize
	for i := range n.Entries {
		e := &n.Entries[i]
		e.Rect = geom.Rect{
			MinX: math.Float64frombits(binary.LittleEndian.Uint64(buf[off:])),
			MinY: math.Float64frombits(binary.LittleEndian.Uint64(buf[off+8:])),
			MaxX: math.Float64frombits(binary.LittleEndian.Uint64(buf[off+16:])),
			MaxY: math.Float64frombits(binary.LittleEndian.Uint64(buf[off+24:])),
		}
		e.Child = storage.PageID(int32(binary.LittleEndian.Uint32(buf[off+32:])))
		e.Obj = EntryID(int32(binary.LittleEndian.Uint32(buf[off+36:])))
		off += pageEntrySize
	}
	return n, nil
}

// PagedTree serves a persisted tree's nodes through a real buffer pool.
// It is read-only; Node and Search are safe for concurrent use because the
// buffer pool serializes all page access.
type PagedTree struct {
	pf     *pagefile.File
	pool   *pagefile.BufferPool
	params Params
	root   storage.PageID
	size   int
	pages  int
}

// OpenPagedTree opens a tree saved with SaveToPageFile, buffering up to
// poolFrames pages in memory.
func OpenPagedTree(pf *pagefile.File, poolFrames int) (*PagedTree, error) {
	meta := pf.Meta()
	if len(meta) != pagedMetaSize {
		return nil, fmt.Errorf("rtree: page file metadata %d bytes, want %d", len(meta), pagedMetaSize)
	}
	pt := &PagedTree{
		pf:   pf,
		pool: pagefile.NewBufferPool(pf, poolFrames),
		params: Params{
			MaxDirEntries:  int(binary.LittleEndian.Uint32(meta[0:])),
			MaxDataEntries: int(binary.LittleEndian.Uint32(meta[4:])),
			MinFillFrac:    math.Float64frombits(binary.LittleEndian.Uint64(meta[8:])),
			ReinsertFrac:   math.Float64frombits(binary.LittleEndian.Uint64(meta[16:])),
			Split:          SplitStrategy(meta[24]),
		},
		size:  int(binary.LittleEndian.Uint64(meta[25:])),
		root:  storage.PageID(int32(binary.LittleEndian.Uint32(meta[33:]))),
		pages: int(binary.LittleEndian.Uint32(meta[37:])),
	}
	if pt.pages+1 != pf.PageCount() {
		return nil, fmt.Errorf("rtree: metadata claims %d node pages, file has %d",
			pt.pages, pf.PageCount()-1)
	}
	return pt, nil
}

// Params returns the stored page parameters.
func (pt *PagedTree) Params() Params { return pt.params }

// Len returns the number of data entries.
func (pt *PagedTree) Len() int { return pt.size }

// Root returns the root node's page number.
func (pt *PagedTree) Root() storage.PageID { return pt.root }

// Pool exposes the buffer pool (I/O statistics).
func (pt *PagedTree) Pool() *pagefile.BufferPool { return pt.pool }

// Node reads (through the buffer pool) and decodes one node.
func (pt *PagedTree) Node(page storage.PageID) (*Node, error) {
	if page < 0 || int(page) >= pt.pages {
		return nil, fmt.Errorf("rtree: page %d out of range [0, %d)", page, pt.pages)
	}
	fileID := pagefile.PageID(page + 1)
	buf, err := pt.pool.Fix(fileID)
	if err != nil {
		return nil, err
	}
	defer pt.pool.Unfix(fileID)
	return decodeNodePage(page, buf)
}

// CheckIntegrity verifies the persisted tree's structural invariants the
// way Tree.CheckIntegrity does, reading every node through the pool: page
// checksums (enforced by decoding), directory MBRs matching subtree MBRs,
// fill bounds, level steps, parent pointers, and the reachable entry count.
func (pt *PagedTree) CheckIntegrity() error {
	root, err := pt.Node(pt.root)
	if err != nil {
		return err
	}
	if root.Parent != storage.InvalidPage {
		return fmt.Errorf("rtree: root has parent %d", root.Parent)
	}
	minFill := func(n *Node) int {
		capacity := pt.params.MaxDirEntries
		if n.Level == 0 {
			capacity = pt.params.MaxDataEntries
		}
		m := int(pt.params.MinFillFrac * float64(capacity))
		if m < 1 {
			m = 1
		}
		return m
	}
	count := 0
	var check func(n *Node) error
	check = func(n *Node) error {
		if n.Page != pt.root && len(n.Entries) < minFill(n) {
			return fmt.Errorf("rtree: page %d underfull: %d < %d",
				n.Page, len(n.Entries), minFill(n))
		}
		for i := range n.Entries {
			e := &n.Entries[i]
			if n.Level == 0 {
				count++
				continue
			}
			child, err := pt.Node(e.Child)
			if err != nil {
				return err
			}
			if child.Level != n.Level-1 {
				return fmt.Errorf("rtree: page %d (level %d) has child %d at level %d",
					n.Page, n.Level, child.Page, child.Level)
			}
			if child.Parent != n.Page {
				return fmt.Errorf("rtree: child %d parent pointer %d, want %d",
					child.Page, child.Parent, n.Page)
			}
			if got := child.MBR(); e.Rect != got {
				return fmt.Errorf("rtree: page %d entry %d MBR %v, subtree MBR %v",
					n.Page, i, e.Rect, got)
			}
			if err := check(child); err != nil {
				return err
			}
		}
		return nil
	}
	if err := check(root); err != nil {
		return err
	}
	if count != pt.size {
		return fmt.Errorf("rtree: reachable entries %d != stored size %d", count, pt.size)
	}
	return nil
}

// Stats walks the persisted tree and computes the same summary as
// Tree.Stats.
func (pt *PagedTree) Stats() (Stats, error) {
	s := Stats{DataEntries: pt.size}
	if pt.size == 0 {
		s.Height = 1
		return s, nil
	}
	var leafEntries, dirEntries int
	var rec func(page storage.PageID) error
	rec = func(page storage.PageID) error {
		n, err := pt.Node(page)
		if err != nil {
			return err
		}
		if n.Level+1 > s.Height {
			s.Height = n.Level + 1
		}
		if n.Level == 0 {
			s.DataPages++
			leafEntries += len(n.Entries)
			return nil
		}
		s.DirectoryPages++
		dirEntries += len(n.Entries)
		for i := range n.Entries {
			if err := rec(n.Entries[i].Child); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(pt.root); err != nil {
		return s, err
	}
	root, err := pt.Node(pt.root)
	if err != nil {
		return s, err
	}
	s.RootEntries = len(root.Entries)
	if s.DataPages > 0 {
		s.AvgLeafFill = float64(leafEntries) / float64(s.DataPages*pt.params.MaxDataEntries)
	}
	if s.DirectoryPages > 0 {
		s.AvgDirFill = float64(dirEntries) / float64(s.DirectoryPages*pt.params.MaxDirEntries)
	}
	return s, nil
}

// Search runs a window query against the paged tree.
func (pt *PagedTree) Search(query geom.Rect, visit func(id EntryID, r geom.Rect) bool) error {
	if pt.size == 0 {
		return nil
	}
	var rec func(page storage.PageID) (bool, error)
	rec = func(page storage.PageID) (bool, error) {
		n, err := pt.Node(page)
		if err != nil {
			return false, err
		}
		for i := range n.Entries {
			e := &n.Entries[i]
			if !e.Rect.Intersects(query) {
				continue
			}
			if n.Level == 0 {
				if !visit(e.Obj, e.Rect) {
					return false, nil
				}
			} else if cont, err := rec(e.Child); err != nil || !cont {
				return cont, err
			}
		}
		return true, nil
	}
	_, err := rec(pt.root)
	return err
}
