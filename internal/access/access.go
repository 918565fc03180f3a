// Package access implements the traditional access-path operators the
// paper compares against (Section II): Full Table Scan, (non-clustered)
// Index Scan and Sort Scan (PostgreSQL's bitmap heap scan), plus the
// straw-man adaptive Switch Scan of Sections III and VI-F.
//
// All operators follow the batched Volcano protocol
// (Open/NextBatch/Close) and therefore compose with the executor in
// internal/exec and with the Smooth Scan operator in internal/core,
// which shares the same shape.
package access

import (
	"errors"
	"fmt"
	"sort"

	"smoothscan/internal/bitmap"
	"smoothscan/internal/btree"
	"smoothscan/internal/bufferpool"
	"smoothscan/internal/heap"
	"smoothscan/internal/simcost"
	"smoothscan/internal/tuple"
)

// ErrClosed is returned by NextBatch after Close or before Open.
var ErrClosed = errors.New("access: operator is not open")

// fullScanChunk is the number of pages a full scan requests per I/O,
// modelling OS/DBMS read-ahead (16 × 8 KB = 128 KB requests).
const fullScanChunk = 16

// FullScan reads every page of the table sequentially and returns the
// tuples matching the predicate, in physical (load) order. Its I/O
// cost is independent of selectivity (Eq. 10).
type FullScan struct {
	file *heap.File
	pool *bufferpool.Pool
	pred tuple.RangePred
	// residual holds extra conjunctive predicates pushed into the page
	// decode (heap.DecodeBatchMatching): slots failing any of them are
	// examined but never materialised. Nil for single-predicate scans.
	residual []tuple.RangePred
	// pageLo/pageHi bound the scan to heap pages [pageLo, pageHi) — a
	// parallel scan's shard; NewFullScan covers the whole file.
	pageLo, pageHi int64

	open    bool
	pageNo  int64    // next page number to request
	pages   [][]byte // current chunk
	runBuf  [][]byte // scratch backing for pages, reused across chunks
	pageIdx int      // index into pages
	slot    int      // next slot in current page
}

// NewFullScan creates a full scan of file with the given predicate.
func NewFullScan(file *heap.File, pool *bufferpool.Pool, pred tuple.RangePred) *FullScan {
	return NewFullScanRange(file, pool, pred, 0, file.NumPages())
}

// NewFullScanRange creates a full scan restricted to heap pages
// [pageLo, pageHi) — one shard of a parallel full scan. Shards are
// disjoint, so every tuple of the file is produced by exactly one of
// the shard scans covering it.
func NewFullScanRange(file *heap.File, pool *bufferpool.Pool, pred tuple.RangePred, pageLo, pageHi int64) *FullScan {
	if pageLo < 0 {
		pageLo = 0
	}
	if pageHi > file.NumPages() {
		pageHi = file.NumPages()
	}
	return &FullScan{file: file, pool: pool, pred: pred, pageLo: pageLo, pageHi: pageHi}
}

// SetResidual attaches extra conjunctive predicates evaluated inside
// the page decode, so rows failing them are never materialised. Call
// before Open.
func (s *FullScan) SetResidual(preds []tuple.RangePred) { s.residual = preds }

// Schema returns the table schema.
func (s *FullScan) Schema() *tuple.Schema { return s.file.Schema() }

// Open prepares the scan.
func (s *FullScan) Open() error {
	s.open = true
	s.pageNo = s.pageLo
	s.pages = nil
	s.pageIdx = 0
	s.slot = 0
	return nil
}

// nextChunk requests the next read-ahead chunk of pages; it reports
// false when the table is exhausted.
func (s *FullScan) nextChunk() (bool, error) {
	if s.pageNo >= s.pageHi {
		return false, nil
	}
	n := min(fullScanChunk, s.pageHi-s.pageNo)
	pages, err := s.file.GetRun(s.pool, s.pageNo, n, s.runBuf)
	if err != nil {
		return false, fmt.Errorf("full scan: %w", err)
	}
	s.pages = pages
	s.runBuf = pages
	s.pageIdx = 0
	s.slot = 0
	s.pageNo += n
	return true, nil
}

// NextBatch fills out with the next matching tuples, decoding whole
// pages at a time directly into the caller's batch.
func (s *FullScan) NextBatch(out *tuple.Batch) (int, error) {
	if !s.open {
		return 0, ErrClosed
	}
	out.Reset()
	return s.fillBatch(out, nil)
}

// fillBatch appends matching tuples to out until it fills or the table
// is exhausted. seen, when non-nil, is a Tuple ID bitmap whose set
// bits veto their tuples (SwitchScan's duplicate suppression).
func (s *FullScan) fillBatch(out *tuple.Batch, seen *bitmap.Bitmap) (int, error) {
	for !out.Full() {
		if s.pageIdx >= len(s.pages) {
			ok, err := s.nextChunk()
			if err != nil {
				return 0, err
			}
			if !ok {
				break
			}
		}
		page := s.pages[s.pageIdx]
		count := heap.PageTupleCount(page)
		var veto *heap.Veto
		if seen != nil {
			pageNo := s.pageNo - int64(len(s.pages)) + int64(s.pageIdx)
			veto = &heap.Veto{Seen: seen, Base: s.file.TIDBit(heap.TID{Page: pageNo})}
		}
		next, examined := s.file.DecodeBatchMatching(page, s.slot, count, s.pred, s.residual, veto, out)
		s.pool.ChargeCPUN(simcost.Tuple, int64(examined))
		s.slot = next
		if next >= count {
			s.pageIdx++
			s.slot = 0
		}
	}
	return out.Len(), nil
}

// Close releases the scan.
func (s *FullScan) Close() error {
	s.open = false
	s.pages = nil
	return nil
}

// IndexScan traverses the secondary index once and fetches each
// qualifying tuple from the heap by its TID — a random access per
// look-up, possibly revisiting pages (Eq. 11). Output is in index-key
// order.
type IndexScan struct {
	file *heap.File
	pool *bufferpool.Pool
	tree *btree.Tree
	pred tuple.RangePred

	open bool
	done bool // key range exhausted; latched so repeated pulls do no I/O
	it   *btree.Iter
}

// NewIndexScan creates an index scan. The predicate column must be the
// column the tree indexes; the caller (optimizer or test) guarantees
// this, as PostgreSQL's planner does.
func NewIndexScan(file *heap.File, pool *bufferpool.Pool, tree *btree.Tree, pred tuple.RangePred) *IndexScan {
	return &IndexScan{file: file, pool: pool, tree: tree, pred: pred}
}

// Schema returns the table schema.
func (s *IndexScan) Schema() *tuple.Schema { return s.file.Schema() }

// Open descends the tree to the first qualifying entry.
func (s *IndexScan) Open() error {
	it, err := s.tree.SeekGE(s.pool, s.pred.Lo)
	if err != nil {
		return fmt.Errorf("index scan: %w", err)
	}
	s.it = it
	s.open = true
	s.done = false
	return nil
}

// NextBatch fills out with the next matching tuples in key order. Each
// tuple still costs its own (possibly random) heap access — batching
// cannot change the index scan's I/O pattern — but rows are decoded
// straight into the caller's batch with no per-tuple allocation.
func (s *IndexScan) NextBatch(out *tuple.Batch) (int, error) {
	if !s.open {
		return 0, ErrClosed
	}
	out.Reset()
	for !out.Full() && !s.done {
		e, ok, err := s.it.Next()
		if err != nil {
			return 0, fmt.Errorf("index scan: %w", err)
		}
		if !ok || e.Key >= s.pred.Hi {
			s.done = true
			break
		}
		if _, err := s.file.DecodeRowAt(s.pool, e.TID, out.AppendSlotRaw()); err != nil {
			return 0, fmt.Errorf("index scan: %w", err)
		}
		s.pool.ChargeCPU(simcost.Tuple)
	}
	return out.Len(), nil
}

// Close releases the scan.
func (s *IndexScan) Close() error {
	s.open = false
	s.it = nil
	return nil
}

// SortScan is PostgreSQL's bitmap heap scan (Section II): it first
// collects the TIDs of all qualifying tuples from the index, sorts
// them in heap-page order, then fetches the result pages with a nearly
// sequential pattern. It is a blocking operator; when the plan needs
// the index order (ORDER BY), a posterior sort of the results is
// required and charged.
type SortScan struct {
	file       *heap.File
	pool       *bufferpool.Pool
	tree       *btree.Tree
	pred       tuple.RangePred
	orderByKey bool
	memBytes   int64 // 0 = unlimited

	open    bool
	results *tuple.Batch // flat materialised result, reused across reopens
	runBuf  [][]byte
	pos     int
}

// NewSortScan creates a sort scan; orderByKey adds the posterior sort
// that restores index-key order. memBytes bounds the memory available
// to the scan's sorting phases; beyond it, sorts spill with two
// sequential passes over the spilled data (external merge sort). Zero
// means unlimited.
func NewSortScan(file *heap.File, pool *bufferpool.Pool, tree *btree.Tree, pred tuple.RangePred, orderByKey bool, memBytes int64) *SortScan {
	return &SortScan{file: file, pool: pool, tree: tree, pred: pred, orderByKey: orderByKey, memBytes: memBytes}
}

// chargeSpill charges an external sort of dataBytes against the
// budget.
func (s *SortScan) chargeSpill(dataBytes int64) {
	if s.memBytes <= 0 || dataBytes <= s.memBytes {
		return
	}
	pageSize := int64(s.pool.Device().PageSize())
	s.pool.Channel().ChargeSpill((dataBytes + pageSize - 1) / pageSize)
}

// Schema returns the table schema.
func (s *SortScan) Schema() *tuple.Schema { return s.file.Schema() }

// Open materialises the result (the blocking phase).
func (s *SortScan) Open() error {
	it, err := s.tree.SeekGE(s.pool, s.pred.Lo)
	if err != nil {
		return fmt.Errorf("sort scan: %w", err)
	}
	var tids []heap.TID
	for {
		e, ok, err := it.Next()
		if err != nil {
			return fmt.Errorf("sort scan: %w", err)
		}
		if !ok || e.Key >= s.pred.Hi {
			break
		}
		tids = append(tids, e.TID)
	}
	// Pre-sort of TIDs in increasing heap-page order. TIDs are 20
	// bytes in the on-disk representation.
	s.pool.ChargeCPU(simcost.SortCost(len(tids)))
	s.chargeSpill(int64(len(tids)) * 20)
	sort.Slice(tids, func(i, j int) bool { return tids[i].Less(tids[j]) })

	// Fetch result pages grouped into maximal adjacent runs, decoding
	// straight into the flat result batch.
	if s.results == nil {
		s.results = tuple.NewGrowableBatch(s.file.Schema().NumCols())
	}
	s.results.Reset()
	for i := 0; i < len(tids); {
		runStart := tids[i].Page
		runEnd := runStart + 1
		j := i
		for j < len(tids) && tids[j].Page-runEnd <= 0 {
			if tids[j].Page >= runEnd {
				runEnd = tids[j].Page + 1
			}
			j++
		}
		pages, err := s.file.GetRun(s.pool, runStart, runEnd-runStart, s.runBuf)
		if err != nil {
			return fmt.Errorf("sort scan: %w", err)
		}
		s.runBuf = pages
		s.pool.ChargeCPUN(simcost.Tuple, int64(j-i))
		for ; i < j; i++ {
			page := pages[tids[i].Page-runStart]
			s.file.DecodeRow(page, int(tids[i].Slot), s.results.AppendSlotRaw())
		}
	}
	// Posterior sort restoring the interesting order, if required.
	if s.orderByKey {
		s.pool.ChargeCPU(simcost.SortCost(s.results.Len()))
		s.chargeSpill(int64(s.results.Len()) * int64(s.file.Schema().TupleSize()))
		s.results.SortByIntCol(s.pred.Col)
	}
	s.pos = 0
	s.open = true
	return nil
}

// NextBatch streams the materialised result in blocks.
func (s *SortScan) NextBatch(out *tuple.Batch) (int, error) {
	if !s.open {
		return 0, ErrClosed
	}
	out.Reset()
	s.pos += out.AppendRows(s.results, s.pos, s.results.Len()-s.pos)
	return out.Len(), nil
}

// Close releases the scan; the materialised buffer is kept for reuse
// by a later Open.
func (s *SortScan) Close() error {
	s.open = false
	return nil
}
