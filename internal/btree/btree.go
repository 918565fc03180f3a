// Package btree implements a page-oriented B+-tree used as a
// non-clustered secondary index: keys are int64 column values, entries
// point at heap tuples via TIDs.
//
// The tree is bulk-loaded once (the paper builds its indexes before
// measuring, and all measured workloads are read-only) and then
// accessed through the buffer pool with full I/O accounting. Leaves
// are materialised first and contiguously, so a leaf-chain traversal
// is a sequential access pattern — exactly the "#leaves_res × seq_cost"
// term of the paper's index-scan cost model (Eq. 11). Entries are
// sorted by (key, TID), the strict ordering Section IV-A notes enables
// cheap duplicate avoidance.
package btree

import (
	"encoding/binary"
	"fmt"
	"sort"

	"smoothscan/internal/bufferpool"
	"smoothscan/internal/disk"
	"smoothscan/internal/heap"
	"smoothscan/internal/tuple"
)

const (
	kindLeaf     = 0
	kindInternal = 1

	// headerSize covers the node kind byte, the entry count at [4, 8)
	// and the page checksum at [8, 16) (see disk.StampChecksum).
	headerSize = 16
	// leaf entry: key int64 + TID (page int64, slot int32).
	leafEntrySize = 20
	// internal entry: separator key + child page number.
	internalEntrySize = 16
)

// Entry is one (key, TID) pair.
type Entry struct {
	Key int64
	TID heap.TID
}

// Tree is a read-only, disk-resident B+-tree.
type Tree struct {
	dev       *disk.Device
	space     disk.SpaceID
	root      int64
	height    int   // 1 = root is a leaf
	numLeaves int64 // leaves occupy pages [0, numLeaves)
	numKeys   int64
	leafCap   int
	internCap int

	// delta holds incrementally inserted entries not yet compacted
	// into the on-disk run (see delta.go).
	delta       []Entry
	deltaSorted bool
}

// leafCapacity returns entries per leaf page for a page size.
func leafCapacity(pageSize int) int { return (pageSize - headerSize) / leafEntrySize }

// internalCapacity returns separator keys per internal page.
func internalCapacity(pageSize int) int { return (pageSize - headerSize - 8) / internalEntrySize }

// Build bulk-loads a B+-tree from entries (copied; input order is
// irrelevant — entries are sorted by (key, TID) internally).
func Build(dev *disk.Device, entries []Entry) (*Tree, error) {
	t := &Tree{
		dev:         dev,
		space:       dev.CreateSpace(),
		leafCap:     leafCapacity(dev.PageSize()),
		internCap:   internalCapacity(dev.PageSize()),
		numKeys:     int64(len(entries)),
		deltaSorted: true,
	}
	if t.leafCap < 2 || t.internCap < 2 {
		return nil, fmt.Errorf("btree: page size %d too small", dev.PageSize())
	}
	sorted := append([]Entry(nil), entries...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Key != sorted[j].Key {
			return sorted[i].Key < sorted[j].Key
		}
		return sorted[i].TID.Less(sorted[j].TID)
	})

	// Leaf level.
	page := make([]byte, dev.PageSize())
	var leafFirstKeys []int64
	for start := 0; start < len(sorted) || start == 0; start += t.leafCap {
		end := start + t.leafCap
		if end > len(sorted) {
			end = len(sorted)
		}
		chunk := sorted[start:end]
		encodeLeaf(page, chunk)
		if _, err := dev.AppendPage(t.space, page); err != nil {
			return nil, err
		}
		t.numLeaves++
		if len(chunk) > 0 {
			leafFirstKeys = append(leafFirstKeys, chunk[0].Key)
		} else {
			leafFirstKeys = append(leafFirstKeys, 0)
		}
		if end >= len(sorted) {
			break
		}
	}

	// Internal levels.
	childPages := make([]int64, t.numLeaves)
	for i := range childPages {
		childPages[i] = int64(i)
	}
	childKeys := leafFirstKeys
	t.height = 1
	for len(childPages) > 1 {
		var nextPages []int64
		var nextKeys []int64
		for start := 0; start < len(childPages); start += t.internCap + 1 {
			end := start + t.internCap + 1
			if end > len(childPages) {
				end = len(childPages)
			}
			encodeInternal(page, childKeys[start+1:end], childPages[start:end])
			no, err := dev.AppendPage(t.space, page)
			if err != nil {
				return nil, err
			}
			nextPages = append(nextPages, no)
			nextKeys = append(nextKeys, childKeys[start])
		}
		childPages, childKeys = nextPages, nextKeys
		t.height++
	}
	t.root = childPages[0]
	return t, nil
}

func encodeLeaf(page []byte, entries []Entry) {
	for i := range page {
		page[i] = 0
	}
	page[0] = kindLeaf
	binary.LittleEndian.PutUint32(page[4:], uint32(len(entries)))
	off := headerSize
	for _, e := range entries {
		binary.LittleEndian.PutUint64(page[off:], uint64(e.Key))
		binary.LittleEndian.PutUint64(page[off+8:], uint64(e.TID.Page))
		binary.LittleEndian.PutUint32(page[off+16:], uint32(e.TID.Slot))
		off += leafEntrySize
	}
	disk.StampChecksum(page)
}

// encodeInternal writes an internal node with children[0] as the
// leftmost child and keys[i] separating children[i] from children[i+1].
// len(keys) == len(children)-1.
func encodeInternal(page []byte, keys []int64, children []int64) {
	for i := range page {
		page[i] = 0
	}
	page[0] = kindInternal
	binary.LittleEndian.PutUint32(page[4:], uint32(len(keys)))
	binary.LittleEndian.PutUint64(page[headerSize:], uint64(children[0]))
	off := headerSize + 8
	for i, k := range keys {
		binary.LittleEndian.PutUint64(page[off:], uint64(k))
		binary.LittleEndian.PutUint64(page[off+8:], uint64(children[i+1]))
		off += internalEntrySize
	}
	disk.StampChecksum(page)
}

func nodeKind(page []byte) byte { return page[0] }
func nodeCount(page []byte) int { return int(binary.LittleEndian.Uint32(page[4:])) }

func leafEntry(page []byte, i int) Entry {
	off := headerSize + i*leafEntrySize
	return Entry{
		Key: int64(binary.LittleEndian.Uint64(page[off:])),
		TID: heap.TID{
			Page: int64(binary.LittleEndian.Uint64(page[off+8:])),
			Slot: int32(binary.LittleEndian.Uint32(page[off+16:])),
		},
	}
}

func leafKey(page []byte, i int) int64 {
	return int64(binary.LittleEndian.Uint64(page[headerSize+i*leafEntrySize:]))
}

func internalKey(page []byte, i int) int64 {
	off := headerSize + 8 + i*internalEntrySize
	return int64(binary.LittleEndian.Uint64(page[off:]))
}

func internalChild(page []byte, i int) int64 {
	if i == 0 {
		return int64(binary.LittleEndian.Uint64(page[headerSize:]))
	}
	off := headerSize + 8 + (i-1)*internalEntrySize + 8
	return int64(binary.LittleEndian.Uint64(page[off:]))
}

// Space returns the disk space holding the index pages.
func (t *Tree) Space() disk.SpaceID { return t.space }

// Height returns the number of levels (1 when the root is a leaf).
func (t *Tree) Height() int { return t.height }

// NumLeaves returns the number of leaf pages.
func (t *Tree) NumLeaves() int64 { return t.numLeaves }

// NumKeys returns the number of entries in the tree.
func (t *Tree) NumKeys() int64 { return t.numKeys }

// LeafCapacity returns the per-leaf entry capacity (the tree fanout at
// the leaf level, the paper's "fanout" parameter).
func (t *Tree) LeafCapacity() int { return t.leafCap }

// RootKeys returns the separator keys of the root node. The paper uses
// exactly these to partition the Result Cache by key range ("the root
// page is a good indicator of the key value distributions",
// Section IV-A). For a single-leaf tree it returns nil.
func (t *Tree) RootKeys(pool *bufferpool.Pool) ([]int64, error) {
	page, err := pool.Get(t.space, t.root)
	if err != nil {
		return nil, err
	}
	if nodeKind(page) == kindLeaf {
		return nil, nil
	}
	n := nodeCount(page)
	keys := make([]int64, n)
	for i := 0; i < n; i++ {
		keys[i] = internalKey(page, i)
	}
	return keys, nil
}

// Iter iterates entries in (key, TID) order, merging the on-disk run
// with the in-memory insert delta.
//
// Next and CountBelow read leaves through the pool in the same order,
// so a CountBelow(hi) call costs exactly the page accesses of a Next
// loop that stops at the first key >= hi: every leaf up to the one
// holding the run's first entry >= hi, or to the last leaf.
type Iter struct {
	tree *Tree
	pool *bufferpool.Pool
	page []byte
	leaf int64
	pos  int

	delta *deltaCursor
	// pendingTree buffers the next on-disk entry during the merge with
	// the delta; a value field (not a pointer) so the iterator does not
	// allocate per entry on the scan path.
	pendingTree Entry
	havePending bool
}

// SeekGE positions an iterator at the first entry with key >= lo.
// The descent costs Height page accesses (random I/O when cold),
// matching the "height × rand_cost" term of Eq. 11.
func (t *Tree) SeekGE(pool *bufferpool.Pool, lo int64) (*Iter, error) {
	pageNo := t.root
	for {
		page, err := pool.Get(t.space, pageNo)
		if err != nil {
			return nil, err
		}
		if nodeKind(page) == kindLeaf {
			it := &Iter{tree: t, pool: pool, page: page, leaf: pageNo, delta: t.deltaSeek(lo)}
			// Binary search within the leaf for the first key >= lo.
			n := nodeCount(page)
			it.pos = sort.Search(n, func(i int) bool { return leafKey(page, i) >= lo })
			// The landing leaf may be exhausted (descent can land one
			// leaf early around duplicate boundaries); advance lazily
			// in Next.
			return it, nil
		}
		// Descend to the first child whose separator is >= lo; keys
		// equal to lo may extend into the child left of the matching
		// separator, so lower-bound (not upper-bound) descent is
		// required for correctness with duplicates.
		n := nodeCount(page)
		idx := sort.Search(n, func(i int) bool { return internalKey(page, i) >= lo })
		pageNo = internalChild(page, idx)
	}
}

// Next returns the next entry in order (on-disk run merged with the
// insert delta). ok is false at the end of the tree. Crossing into the
// next leaf charges one (sequential, when the heap has not intervened)
// page access.
func (it *Iter) Next() (Entry, bool, error) {
	if !it.havePending {
		e, ok, err := it.nextFromRun()
		if err != nil {
			return Entry{}, false, err
		}
		if ok {
			it.pendingTree = e
			it.havePending = true
		}
	}
	de, dok := it.delta.peek()
	switch {
	case !it.havePending && !dok:
		return Entry{}, false, nil
	case !it.havePending:
		it.delta.advance()
		return de, true, nil
	case !dok || less(it.pendingTree, de):
		it.havePending = false
		return it.pendingTree, true, nil
	default:
		it.delta.advance()
		return de, true, nil
	}
}

// nextFromRun yields the next entry of the on-disk run.
func (it *Iter) nextFromRun() (Entry, bool, error) {
	for it.pos >= nodeCount(it.page) {
		if it.leaf+1 >= it.tree.numLeaves {
			return Entry{}, false, nil
		}
		it.leaf++
		page, err := it.pool.Get(it.tree.space, it.leaf)
		if err != nil {
			return Entry{}, false, err
		}
		it.page = page
		it.pos = 0
	}
	e := leafEntry(it.page, it.pos)
	it.pos++
	return e, true, nil
}

// CountBelow consumes and counts the entries with key < hi: a Next
// loop's count, had it stopped at the first entry with key >= hi
// without consuming that entry, which the next Next returns. It reads
// the same leaves in the same order as that loop, but counts each
// leaf's entries below hi with one binary search instead of decoding
// them, and the delta's with another.
func (it *Iter) CountBelow(hi int64) (int64, error) {
	var n int64
	if it.havePending {
		if it.pendingTree.Key >= hi {
			return it.delta.countBelow(hi), nil
		}
		it.havePending = false
		n++
	}
	for {
		for it.pos >= nodeCount(it.page) {
			if it.leaf+1 >= it.tree.numLeaves {
				return n + it.delta.countBelow(hi), nil
			}
			it.leaf++
			page, err := it.pool.Get(it.tree.space, it.leaf)
			if err != nil {
				return 0, err
			}
			it.page = page
			it.pos = 0
		}
		count := nodeCount(it.page)
		end := it.pos + sort.Search(count-it.pos, func(i int) bool { return leafKey(it.page, it.pos+i) >= hi })
		n += int64(end - it.pos)
		it.pos = end
		if end < count {
			return n + it.delta.countBelow(hi), nil
		}
	}
}

// BuildOnColumn indexes column col of the heap file: one entry per
// tuple, scanning the file directly on the device (bulk load is not a
// measured operation).
func BuildOnColumn(dev *disk.Device, f *heap.File, col int) (*Tree, error) {
	if col < 0 || col >= f.Schema().NumCols() {
		return nil, fmt.Errorf("btree: column %d out of range", col)
	}
	entries := make([]Entry, 0, f.NumTuples())
	row := tuple.NewRow(f.Schema())
	for pageNo := int64(0); pageNo < f.NumPages(); pageNo++ {
		page, err := dev.ReadPage(f.Space(), pageNo)
		if err != nil {
			return nil, err
		}
		n := heap.PageTupleCount(page)
		for s := 0; s < n; s++ {
			row = f.DecodeRow(page, s, row)
			entries = append(entries, Entry{Key: row.Int(col), TID: heap.TID{Page: pageNo, Slot: int32(s)}})
		}
	}
	return Build(dev, entries)
}
