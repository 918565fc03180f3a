// Package heap implements heap files: unordered tables stored as
// fixed-layout pages on a simulated disk.
//
// Pages follow a simple slotted layout specialised for fixed-width
// tuples: a 16-byte header (tuple count, tuple size) followed by
// densely packed tuple slots. With the default 8 KB pages and the
// paper's 10-integer (80-byte) tuples this yields 102 tuples per page,
// the same order as the paper's "120 tuples per page" figure.
//
// A tuple is addressed by a TID (page number, slot), exactly what a
// non-clustered index leaf stores.
//
// The page readers (DecodeRow, DecodeBatch, DecodeBatchMatching,
// ProbeBatch, SelectChunk) read a page as words: a tuple is NumCols
// little-endian words and a batch row is NumCols words, so a run of
// slots is one copy. That view is the page's own memory only on a
// little-endian host (decided once, at init) and for a page slice that
// starts on an 8-byte boundary (checked per call); otherwise the
// readers decode the slots they read into a word buffer first, the one
// scalar fallback, and run the same code on it. DecodeBatchMatching
// examines slots in order and stops right after the slot that fills
// the batch; its examined count is what the full scans charge
// simcost.Tuple for, so the simulated CPU clock depends on that stop
// point and not on how the slots are read. Smooth Scan charges every
// slot of each page it analyses, whichever reader it analyses with.
package heap

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"smoothscan/internal/bitmap"
	"smoothscan/internal/bufferpool"
	"smoothscan/internal/disk"
	"smoothscan/internal/tuple"
)

// headerSize is the per-page header: uint32 count, uint32 tuple size,
// then the page checksum in bytes [8, 16) (see disk.StampChecksum).
const headerSize = 16

// TID identifies a tuple in a heap file.
type TID struct {
	Page int64
	Slot int32
}

// Less orders TIDs by (page, slot), the physical order on disk.
func (t TID) Less(o TID) bool {
	if t.Page != o.Page {
		return t.Page < o.Page
	}
	return t.Slot < o.Slot
}

func (t TID) String() string { return fmt.Sprintf("(%d,%d)", t.Page, t.Slot) }

// File is a heap file: a sequence of pages in one disk space.
type File struct {
	dev           *disk.Device
	space         disk.SpaceID
	schema        *tuple.Schema
	tuplesPerPage int
	numPages      int64
	numTuples     int64
}

// Create allocates an empty heap file for the schema on the device.
func Create(dev *disk.Device, schema *tuple.Schema) (*File, error) {
	tpp := (dev.PageSize() - headerSize) / schema.TupleSize()
	if tpp < 1 {
		return nil, fmt.Errorf("heap: tuple size %d does not fit page size %d", schema.TupleSize(), dev.PageSize())
	}
	return &File{
		dev:           dev,
		space:         dev.CreateSpace(),
		schema:        schema,
		tuplesPerPage: tpp,
	}, nil
}

// Schema returns the file's schema.
func (f *File) Schema() *tuple.Schema { return f.schema }

// Space returns the disk space holding the file's pages.
func (f *File) Space() disk.SpaceID { return f.space }

// NumPages returns the number of pages in the file.
func (f *File) NumPages() int64 { return f.numPages }

// NumTuples returns the number of tuples in the file.
func (f *File) NumTuples() int64 { return f.numTuples }

// TuplesPerPage returns the fixed per-page capacity.
func (f *File) TuplesPerPage() int { return f.tuplesPerPage }

// Builder accumulates rows and writes full pages to the device. Bulk
// loading mirrors the paper's setup phase and is not part of any
// measured experiment.
type Builder struct {
	file *File
	page []byte
	n    int
}

// NewBuilder starts bulk-loading into the file. Loading must finish
// with Flush before the file is read.
func (f *File) NewBuilder() *Builder {
	return &Builder{file: f, page: make([]byte, f.dev.PageSize())}
}

// Append adds one row. The row must match the file schema width.
func (b *Builder) Append(r tuple.Row) error {
	f := b.file
	if len(r) != f.schema.NumCols() {
		return fmt.Errorf("heap: row has %d columns, schema has %d", len(r), f.schema.NumCols())
	}
	off := headerSize + b.n*f.schema.TupleSize()
	for _, v := range r {
		binary.LittleEndian.PutUint64(b.page[off:], v)
		off += 8
	}
	b.n++
	if b.n == f.tuplesPerPage {
		return b.flushPage()
	}
	return nil
}

func (b *Builder) flushPage() error {
	f := b.file
	binary.LittleEndian.PutUint32(b.page[0:], uint32(b.n))
	binary.LittleEndian.PutUint32(b.page[4:], uint32(f.schema.TupleSize()))
	disk.StampChecksum(b.page)
	if _, err := f.dev.AppendPage(f.space, b.page); err != nil {
		return err
	}
	f.numPages++
	f.numTuples += int64(b.n)
	b.n = 0
	for i := range b.page {
		b.page[i] = 0
	}
	return nil
}

// Flush writes any partially filled final page.
func (b *Builder) Flush() error {
	if b.n == 0 {
		return nil
	}
	return b.flushPage()
}

// Insert appends one row to the file after bulk loading, rewriting the
// last page if it has room or appending a new one. It returns the new
// tuple's TID. Callers that read through a buffer pool must invalidate
// the affected page (bufferpool.InvalidatePage).
func (f *File) Insert(r tuple.Row) (TID, error) {
	if len(r) != f.schema.NumCols() {
		return TID{}, fmt.Errorf("heap: row has %d columns, schema has %d", len(r), f.schema.NumCols())
	}
	encode := func(page []byte, slot int) {
		off := headerSize + slot*f.schema.TupleSize()
		for _, v := range r {
			binary.LittleEndian.PutUint64(page[off:], v)
			off += 8
		}
	}
	if f.numPages > 0 {
		last := f.numPages - 1
		page, err := f.dev.ReadPage(f.space, last)
		if err != nil {
			return TID{}, err
		}
		if f.dev.Faulty() && !disk.VerifyChecksum(page) {
			return TID{}, fmt.Errorf("%w: heap space %d page %d", disk.ErrPageCorrupt, f.space, last)
		}
		count := PageTupleCount(page)
		if count < f.tuplesPerPage {
			buf := make([]byte, len(page))
			copy(buf, page)
			encode(buf, count)
			binary.LittleEndian.PutUint32(buf[0:], uint32(count+1))
			disk.StampChecksum(buf)
			if err := f.dev.WritePage(f.space, last, buf); err != nil {
				return TID{}, err
			}
			f.numTuples++
			return TID{Page: last, Slot: int32(count)}, nil
		}
	}
	buf := make([]byte, f.dev.PageSize())
	encode(buf, 0)
	binary.LittleEndian.PutUint32(buf[0:], 1)
	binary.LittleEndian.PutUint32(buf[4:], uint32(f.schema.TupleSize()))
	disk.StampChecksum(buf)
	pageNo, err := f.dev.AppendPage(f.space, buf)
	if err != nil {
		return TID{}, err
	}
	f.numPages++
	f.numTuples++
	return TID{Page: pageNo, Slot: 0}, nil
}

// PageTupleCount returns the number of tuples stored in a raw page.
func PageTupleCount(page []byte) int {
	return int(binary.LittleEndian.Uint32(page[0:]))
}

// littleEndian reports whether the host stores a word's bytes in the
// page format's order, so a page's words can be read in place.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// slots returns slots [lo, hi) of a raw page as words, slot lo's first
// column first. On a little-endian host with an 8-byte-aligned page
// they are the page's own memory (tuple.Words); otherwise they are
// decoded into buf, allocated when buf is shorter than the span — the
// page readers' one scalar fallback.
func (f *File) slots(page []byte, lo, hi int, buf []uint64) []uint64 {
	w := f.schema.NumCols()
	from, to := headerSize/8+lo*w, headerSize/8+hi*w
	if littleEndian {
		if words, ok := tuple.Words(page); ok {
			return words[from:to:to]
		}
	}
	if len(buf) < to-from {
		buf = make([]uint64, to-from)
	}
	buf = buf[:to-from]
	for i := range buf {
		buf[i] = binary.LittleEndian.Uint64(page[8*(from+i):])
	}
	return buf
}

// DecodeRow decodes slot s of a raw page into dst (allocating when dst
// is nil) and returns it. The caller must ensure s < PageTupleCount.
func (f *File) DecodeRow(page []byte, s int, dst tuple.Row) tuple.Row {
	if dst == nil {
		dst = make(tuple.Row, f.schema.NumCols())
	}
	copy(dst, f.slots(page, s, s+1, dst))
	return dst
}

// DecodeBatch decodes slots [lo, hi) of a raw page into dst, appending
// one batch row per slot with one copy, and stops early when dst
// fills. It returns the first slot not decoded (hi when every slot
// fit). The caller must ensure hi <= PageTupleCount and that dst's
// width matches the schema.
func (f *File) DecodeBatch(page []byte, lo, hi int, dst *tuple.Batch) int {
	got := dst.AppendRowsRaw(hi - lo)
	n := len(got) / f.schema.NumCols()
	copy(got, f.slots(page, lo, lo+n, got))
	return lo + n
}

// TIDBit returns tid's bit in a Tuple ID cache over the file: one bit
// per tuple, page*TuplesPerPage+slot, so a page's bits are adjacent.
func (f *File) TIDBit(tid TID) int64 {
	return tid.Page*int64(f.tuplesPerPage) + int64(tid.Slot)
}

// Veto names the tuples a page read must skip: slot s of the page is
// vetoed when bit Base+s of Seen is set. Seen is a Tuple ID cache
// (bits at TIDBit) and Base the page's first bit.
type Veto struct {
	Seen *bitmap.Bitmap
	Base int64
}

// DecodeBatchMatching examines slots [lo, hi) of a raw page in order,
// appending to dst the rows whose pred column satisfies pred, that
// pass every residual predicate and that veto (when non-nil) does not
// name, and stops as soon as dst fills. It works 64 slots at a time:
// a selection mask from the predicate column, residuals read for the
// set bits only, the veto's bitmap word cleared from it, then one copy
// per run of adjacent set bits. Non-qualifying slots cost only their
// predicate word, so the scan path never materialises rows it will not
// return — this is where a multi-predicate plan's residual conjuncts
// are pushed down.
//
// It returns the first slot not examined and the number of slots
// examined, which is what operators charge per-tuple CPU for: when dst
// fills with slot s, (s+1, s+1-lo); when the page is exhausted first,
// (hi, hi-lo); when dst is full on entry, (lo, 0). Residual checks
// piggyback on the same per-slot examination charge: evaluating an
// extra column of an already-resident page costs no additional
// simulated I/O or CPU.
func (f *File) DecodeBatchMatching(page []byte, lo, hi int, pred tuple.RangePred, residual []tuple.RangePred, veto *Veto, dst *tuple.Batch) (next, examined int) {
	next, _ = f.ProbeBatch(page, lo, hi, pred, residual, veto, dst)
	return next, next - lo
}

// ProbeBatch is DecodeBatchMatching for an Entire Page Probe, which
// analyses a page and delivers its rows in the same pass: it returns
// the first slot not examined (next - lo slots were examined) and
// found, whether an examined slot satisfies pred and every residual,
// vetoed or not. A call that fills dst has found one; a call that
// exhausts the page has examined every slot from lo on, so from lo = 0
// it answers for the whole page.
func (f *File) ProbeBatch(page []byte, lo, hi int, pred tuple.RangePred, residual []tuple.RangePred, veto *Veto, dst *tuple.Batch) (next int, found bool) {
	if dst.Full() || lo >= hi {
		return lo, false
	}
	if pred.Empty() {
		return hi, false
	}
	w := f.schema.NumCols()
	rows := f.slots(page, lo, hi, nil)
	for c := 0; c < hi-lo; c += 64 {
		m := selectChunk(rows, w, c, pred, residual)
		if m == 0 {
			continue
		}
		found = true
		if veto != nil {
			m &^= veto.Seen.Word(veto.Base + int64(lo+c))
		}
		for m != 0 {
			i := bits.TrailingZeros64(m)
			run := bits.TrailingZeros64(^(m >> i))
			m &= ^uint64(0) << (i + run)
			got := dst.AppendRowsRaw(run)
			copy(got, rows[(c+i)*w:])
			if dst.Full() {
				return lo + c + i + len(got)/w, true
			}
		}
	}
	return hi, found
}

// SelectChunk is the page readers' selection step alone, for a caller
// that walks the qualifying slots itself: it returns the selection mask
// of slots [lo, min(lo+64, hi)) of a raw page — bit i is set when slot
// lo+i satisfies pred and every residual and veto (when non-nil) does
// not name it — and found, whether one of those slots satisfies pred
// and every residual, vetoed or not. hi must not exceed the page's
// tuple count.
func (f *File) SelectChunk(page []byte, lo, hi int, pred tuple.RangePred, residual []tuple.RangePred, veto *Veto) (sel uint64, found bool) {
	if pred.Empty() || lo >= hi {
		return 0, false
	}
	m := selectChunk(f.slots(page, lo, min(lo+64, hi), nil), f.schema.NumCols(), 0, pred, residual)
	if m != 0 && veto != nil {
		return m &^ veto.Seen.Word(veto.Base+int64(lo)), true
	}
	return m, m != 0
}

// selectChunk returns the selection mask of the up to 64 slots of rows
// (width w, slot 0 at rows[0]) that start at slot c: bit i is set when
// slot c+i satisfies pred and every residual. pred must not be empty.
// The predicate test is branch-free: v is in [Lo, Hi) exactly when
// v-Lo, as an unsigned word, is below Hi-Lo.
func selectChunk(rows []uint64, w, c int, pred tuple.RangePred, residual []tuple.RangePred) uint64 {
	n := min(64, len(rows)/w-c)
	lo, span := uint64(pred.Lo), uint64(pred.Hi-pred.Lo)
	var m uint64
	col := rows[:(c+n)*w]
	for off := c*w + pred.Col; off < len(col); off += w {
		_, below := bits.Sub64(col[off]-lo, span, 0)
		m = m>>1 | below<<63
	}
	m >>= 64 - n
	if m == 0 || residual == nil {
		return m
	}
	for t := m; t != 0; t &= t - 1 {
		i := bits.TrailingZeros64(t)
		row := rows[(c+i)*w:]
		for _, p := range residual {
			if v := int64(row[p.Col]); v < p.Lo || v >= p.Hi {
				m &^= 1 << i
				break
			}
		}
	}
	return m
}

// GetPage reads a heap page through the buffer pool.
func (f *File) GetPage(pool *bufferpool.Pool, pageNo int64) ([]byte, error) {
	if pageNo < 0 || pageNo >= f.numPages {
		return nil, fmt.Errorf("%w: heap page %d of %d", disk.ErrOutOfRange, pageNo, f.numPages)
	}
	return pool.Get(f.space, pageNo)
}

// GetRun reads n consecutive heap pages through the buffer pool as a
// flattened (mostly sequential) access. scratch, when non-nil, is
// reused as the backing array of the result (see bufferpool.GetRun).
func (f *File) GetRun(pool *bufferpool.Pool, start, n int64, scratch [][]byte) ([][]byte, error) {
	if start < 0 || start+n > f.numPages {
		return nil, fmt.Errorf("%w: heap pages [%d,%d) of %d", disk.ErrOutOfRange, start, start+n, f.numPages)
	}
	return pool.GetRun(f.space, start, n, scratch)
}

// DecodeRowAt fetches the tuple addressed by tid through the buffer
// pool, decoding it into dst (allocating when dst is nil) — the shared
// TID-to-row path of RowAt and the batched index-driven scans. On
// error dst's contents are undefined.
func (f *File) DecodeRowAt(pool *bufferpool.Pool, tid TID, dst tuple.Row) (tuple.Row, error) {
	page, err := f.GetPage(pool, tid.Page)
	if err != nil {
		return nil, err
	}
	return f.DecodeRowIn(page, tid, dst)
}

// DecodeRowIn is DecodeRowAt for a caller that already holds tid's
// page: it decodes the tuple from page into dst (allocating when dst is
// nil), checking tid's slot against the page's tuple count.
func (f *File) DecodeRowIn(page []byte, tid TID, dst tuple.Row) (tuple.Row, error) {
	if int(tid.Slot) >= PageTupleCount(page) {
		return nil, fmt.Errorf("heap: slot %d out of range on page %d", tid.Slot, tid.Page)
	}
	return f.DecodeRow(page, int(tid.Slot), dst), nil
}

// RowAt fetches the tuple addressed by tid through the buffer pool.
func (f *File) RowAt(pool *bufferpool.Pool, tid TID) (tuple.Row, error) {
	return f.DecodeRowAt(pool, tid, nil)
}

// TIDOf returns the TID a row number (0-based load order) maps to.
// Bulk loading is strictly append-only, so row i lives at page
// i/tuplesPerPage, slot i%tuplesPerPage.
func (f *File) TIDOf(rowNo int64) TID {
	return TID{Page: rowNo / int64(f.tuplesPerPage), Slot: int32(rowNo % int64(f.tuplesPerPage))}
}
