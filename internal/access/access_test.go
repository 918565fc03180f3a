package access

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"smoothscan/internal/btree"
	"smoothscan/internal/bufferpool"
	"smoothscan/internal/disk"
	"smoothscan/internal/heap"
	"smoothscan/internal/tuple"
)

// fixture bundles a loaded table with a secondary index on column 1
// ("c2"), mirroring the paper's micro-benchmark.
type fixture struct {
	dev  *disk.Device
	pool *bufferpool.Pool
	file *heap.File
	tree *btree.Tree
	rows []tuple.Row
}

// newFixture loads numRows 3-column rows where c1 is the row number
// and c2 = gen(i); the index is built on c2.
func newFixture(t *testing.T, numRows int64, poolPages int, gen func(i int64) int64) *fixture {
	t.Helper()
	dev := disk.NewDevice(disk.Profile{Name: "t", RandCost: 10, SeqCost: 1, PageSize: 256})
	schema := tuple.Ints(3) // 24-byte tuples -> 10 per page
	file, err := heap.Create(dev, schema)
	if err != nil {
		t.Fatal(err)
	}
	b := file.NewBuilder()
	var rows []tuple.Row
	for i := int64(0); i < numRows; i++ {
		r := tuple.IntsRow(i, gen(i), i%3)
		rows = append(rows, r)
		if err := b.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	tree, err := btree.BuildOnColumn(dev, file, 1)
	if err != nil {
		t.Fatal(err)
	}
	dev.ResetStats()
	return &fixture{dev: dev, pool: bufferpool.New(dev, poolPages), file: file, tree: tree, rows: rows}
}

// operator is the batched operator shape (mirrors exec.Operator without
// importing exec).
type operator interface {
	Schema() *tuple.Schema
	Open() error
	NextBatch(b *tuple.Batch) (int, error)
	Close() error
}

// drain runs an operator to completion one row per pull — a capacity-1
// batch, the narrowest consumer an operator can meet.
func drain(t *testing.T, op operator) []tuple.Row {
	t.Helper()
	return drainBatch(t, op, 1)
}

func expected(rows []tuple.Row, pred tuple.RangePred) []tuple.Row {
	var out []tuple.Row
	for _, r := range rows {
		if pred.Matches(r) {
			out = append(out, r)
		}
	}
	return out
}

// sortByKeyThenTID orders rows by (c2, c1): c1 is the load order, so
// ties in the key resolve in TID order, matching the index.
func sortByKeyThenTID(rows []tuple.Row) {
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].Int(1) != rows[j].Int(1) {
			return rows[i].Int(1) < rows[j].Int(1)
		}
		return rows[i].Int(0) < rows[j].Int(0)
	})
}

func rowsEqual(a, b []tuple.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func TestFullScanReturnsAllMatches(t *testing.T) {
	fx := newFixture(t, 500, 64, func(i int64) int64 { return i % 100 })
	pred := tuple.RangePred{Col: 1, Lo: 10, Hi: 20}
	got := drain(t, NewFullScan(fx.file, fx.pool, pred))
	want := expected(fx.rows, pred)
	if !rowsEqual(got, want) {
		t.Errorf("full scan: %d rows, want %d", len(got), len(want))
	}
}

func TestFullScanIsSequential(t *testing.T) {
	fx := newFixture(t, 1000, 256, func(i int64) int64 { return i })
	drain(t, NewFullScan(fx.file, fx.pool, tuple.All(1)))
	s := fx.dev.Stats()
	if s.PagesRead != fx.file.NumPages() {
		t.Errorf("pages read = %d, want %d", s.PagesRead, fx.file.NumPages())
	}
	if s.RandomAccesses != 1 {
		t.Errorf("random accesses = %d, want 1 (initial seek only)", s.RandomAccesses)
	}
	// Chunked requests: ceil(pages/16).
	wantReq := (fx.file.NumPages() + 15) / 16
	if s.Requests != wantReq {
		t.Errorf("requests = %d, want %d", s.Requests, wantReq)
	}
}

func TestFullScanCostIndependentOfSelectivity(t *testing.T) {
	fx := newFixture(t, 1000, 256, func(i int64) int64 { return i })
	drain(t, NewFullScan(fx.file, fx.pool, tuple.RangePred{Col: 1, Lo: 0, Hi: 1}))
	lowIO := fx.dev.Stats().IOTime
	fx.pool.Reset()
	fx.dev.ResetStats()
	drain(t, NewFullScan(fx.file, fx.pool, tuple.All(1)))
	highIO := fx.dev.Stats().IOTime
	if lowIO != highIO {
		t.Errorf("full scan I/O depends on selectivity: %v vs %v", lowIO, highIO)
	}
}

func TestIndexScanOrderAndContent(t *testing.T) {
	fx := newFixture(t, 500, 64, func(i int64) int64 { return (i * 37) % 100 })
	pred := tuple.RangePred{Col: 1, Lo: 25, Hi: 75}
	got := drain(t, NewIndexScan(fx.file, fx.pool, fx.tree, pred))
	want := expected(fx.rows, pred)
	sortByKeyThenTID(want)
	if !rowsEqual(got, want) {
		t.Fatalf("index scan mismatch: %d rows, want %d", len(got), len(want))
	}
}

func TestIndexScanRandomIOGrowsWithSelectivity(t *testing.T) {
	fx := newFixture(t, 2000, 16, func(i int64) int64 { return (i * 7919) % 2000 })
	drain(t, NewIndexScan(fx.file, fx.pool, fx.tree, tuple.RangePred{Col: 1, Lo: 0, Hi: 20}))
	low := fx.dev.Stats().RandomAccesses
	fx.pool.Reset()
	fx.dev.ResetStats()
	drain(t, NewIndexScan(fx.file, fx.pool, fx.tree, tuple.RangePred{Col: 1, Lo: 0, Hi: 2000}))
	high := fx.dev.Stats().RandomAccesses
	if high <= low*10 {
		t.Errorf("index scan random I/O did not blow up: low=%d high=%d", low, high)
	}
}

func TestIndexScanRevisitsPages(t *testing.T) {
	// Scattered key -> every probe lands on a "random" page; with a
	// tiny pool, pages are fetched again and again.
	fx := newFixture(t, 2000, 4, func(i int64) int64 { return (i * 7919) % 2000 })
	drain(t, NewIndexScan(fx.file, fx.pool, fx.tree, tuple.All(1)))
	s := fx.dev.Stats()
	if s.PagesRead <= fx.file.NumPages() {
		t.Errorf("expected repeated page reads: read %d of %d pages", s.PagesRead, fx.file.NumPages())
	}
}

func TestSortScanContentUnordered(t *testing.T) {
	fx := newFixture(t, 500, 64, func(i int64) int64 { return (i * 37) % 100 })
	pred := tuple.RangePred{Col: 1, Lo: 25, Hi: 75}
	got := drain(t, NewSortScan(fx.file, fx.pool, fx.tree, pred, false, 0))
	want := expected(fx.rows, pred) // physical order: sort scan fetches in page order
	if !rowsEqual(got, want) {
		t.Fatalf("sort scan mismatch: got %d rows, want %d", len(got), len(want))
	}
}

func TestSortScanOrderedRestoresKeyOrder(t *testing.T) {
	fx := newFixture(t, 500, 64, func(i int64) int64 { return (i * 37) % 100 })
	pred := tuple.RangePred{Col: 1, Lo: 0, Hi: 100}
	got := drain(t, NewSortScan(fx.file, fx.pool, fx.tree, pred, true, 0))
	for i := 1; i < len(got); i++ {
		if got[i].Int(1) < got[i-1].Int(1) {
			t.Fatalf("ordered sort scan out of order at %d", i)
		}
	}
	if len(got) != 500 {
		t.Errorf("len = %d", len(got))
	}
}

func TestSortScanFetchesOnlyResultPagesOnce(t *testing.T) {
	fx := newFixture(t, 2000, 512, func(i int64) int64 { return i })
	// Keys equal row numbers: range [0,100) lives on pages 0..9.
	pred := tuple.RangePred{Col: 1, Lo: 0, Hi: 100}
	drain(t, NewSortScan(fx.file, fx.pool, fx.tree, pred, false, 0))
	s := fx.dev.Stats()
	// 10 heap pages + index descent + result leaf pages; far below
	// the full table (200 pages).
	if s.PagesRead > 30 {
		t.Errorf("sort scan read %d pages for a 10-page result", s.PagesRead)
	}
}

func TestSwitchScanNoSwitchBelowThreshold(t *testing.T) {
	fx := newFixture(t, 500, 64, func(i int64) int64 { return (i * 37) % 100 })
	pred := tuple.RangePred{Col: 1, Lo: 0, Hi: 10} // ~50 tuples
	op := NewSwitchScan(fx.file, fx.pool, fx.tree, pred, 100)
	got := drain(t, op)
	if op.Switched() {
		t.Error("switched below threshold")
	}
	want := expected(fx.rows, pred)
	sortByKeyThenTID(want)
	if !rowsEqual(got, want) {
		t.Errorf("content mismatch: %d vs %d", len(got), len(want))
	}
}

func TestSwitchScanSwitchesAndDeduplicates(t *testing.T) {
	fx := newFixture(t, 500, 64, func(i int64) int64 { return (i * 37) % 100 })
	pred := tuple.RangePred{Col: 1, Lo: 0, Hi: 50} // ~250 tuples
	op := NewSwitchScan(fx.file, fx.pool, fx.tree, pred, 20)
	got := drain(t, op)
	if !op.Switched() {
		t.Fatal("did not switch above threshold")
	}
	want := expected(fx.rows, pred)
	if len(got) != len(want) {
		t.Fatalf("got %d rows, want %d (duplicates or losses)", len(got), len(want))
	}
	// Same multiset: compare after normalising order by (c2, c1).
	sortByKeyThenTID(got)
	sortByKeyThenTID(want)
	if !rowsEqual(got, want) {
		t.Error("switch scan multiset mismatch")
	}
}

func TestSwitchScanCliffCost(t *testing.T) {
	// Crossing the threshold by one tuple must cost roughly one extra
	// full scan — the performance cliff of Figure 11.
	fx := newFixture(t, 2000, 64, func(i int64) int64 { return (i * 7919) % 2000 })
	pred := tuple.RangePred{Col: 1, Lo: 0, Hi: 21} // 21 matches
	run := func(threshold int64) float64 {
		fx.pool.Reset()
		fx.dev.ResetStats()
		drain(t, NewSwitchScan(fx.file, fx.pool, fx.tree, pred, threshold))
		return fx.dev.Stats().IOTime
	}
	below := run(21)                          // no switch
	above := run(20)                          // switches on the 21st tuple
	fullScanIO := float64(fx.file.NumPages()) // seq cost 1/page
	if above-below < fullScanIO*0.8 {
		t.Errorf("no cliff: below=%v above=%v fullscan=%v", below, above, fullScanIO)
	}
}

func TestOperatorsNotOpen(t *testing.T) {
	fx := newFixture(t, 50, 16, func(i int64) int64 { return i })
	pred := tuple.All(1)
	ops := []operator{
		NewFullScan(fx.file, fx.pool, pred),
		NewIndexScan(fx.file, fx.pool, fx.tree, pred),
		NewSortScan(fx.file, fx.pool, fx.tree, pred, false, 0),
		NewSwitchScan(fx.file, fx.pool, fx.tree, pred, 10),
	}
	for i, op := range ops {
		if _, err := op.NextBatch(tuple.NewBatchFor(op.Schema(), 1)); !errors.Is(err, ErrClosed) {
			t.Errorf("op %d NextBatch before Open: err = %v, want ErrClosed", i, err)
		}
	}
}

func TestErrorPropagationThroughScans(t *testing.T) {
	fx := newFixture(t, 500, 64, func(i int64) int64 { return i })
	pred := tuple.All(1)
	builders := []func() operator{
		func() operator { return NewFullScan(fx.file, fx.pool, pred) },
		func() operator { return NewIndexScan(fx.file, fx.pool, fx.tree, pred) },
		func() operator { return NewSwitchScan(fx.file, fx.pool, fx.tree, pred, 5) },
	}
	for i, build := range builders {
		fx.pool.Reset()
		op := build()
		if err := op.Open(); err != nil {
			t.Fatalf("op %d open: %v", i, err)
		}
		fx.dev.FailAfter(3)
		b := tuple.NewBatchFor(op.Schema(), 1)
		var err error
		for err == nil {
			n, e := op.NextBatch(b)
			if n == 0 && e == nil {
				t.Fatalf("op %d finished despite injected failure", i)
			}
			err = e
		}
		if !errors.Is(err, disk.ErrInjected) {
			t.Errorf("op %d error = %v, want ErrInjected", i, err)
		}
		fx.dev.FailAfter(-1)
		op.Close()
	}
	// SortScan fails in Open (blocking).
	fx.pool.Reset()
	ss := NewSortScan(fx.file, fx.pool, fx.tree, pred, false, 0)
	fx.dev.FailAfter(3)
	if err := ss.Open(); !errors.Is(err, disk.ErrInjected) {
		t.Errorf("sort scan open error = %v, want ErrInjected", err)
	}
	fx.dev.FailAfter(-1)
}

// Property: all four access paths return the same multiset of rows for
// random predicates and data distributions.
func TestAccessPathEquivalenceProperty(t *testing.T) {
	f := func(seed int64, loRaw, width uint8, threshRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		fx := newFixture(t, 400, 32, func(i int64) int64 { return rng.Int63n(100) })
		lo := int64(loRaw) % 110
		hi := lo + int64(width)%60
		pred := tuple.RangePred{Col: 1, Lo: lo, Hi: hi}
		threshold := int64(threshRaw)

		want := expected(fx.rows, pred)
		sortByKeyThenTID(want)

		normalise := func(rows []tuple.Row) []tuple.Row {
			sortByKeyThenTID(rows)
			return rows
		}
		paths := []operator{
			NewFullScan(fx.file, fx.pool, pred),
			NewIndexScan(fx.file, fx.pool, fx.tree, pred),
			NewSortScan(fx.file, fx.pool, fx.tree, pred, true, 0),
			NewSwitchScan(fx.file, fx.pool, fx.tree, pred, threshold),
		}
		for _, op := range paths {
			got := normalise(drain(t, op))
			if !rowsEqual(got, want) {
				return false
			}
			fx.pool.Reset()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
