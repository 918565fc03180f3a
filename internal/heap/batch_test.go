package heap

import (
	"testing"

	"smoothscan/internal/bitmap"
	"smoothscan/internal/disk"
	"smoothscan/internal/tuple"
)

// buildFile loads numRows 3-column rows (i, 7*i, i%5) on 256-byte
// pages (10 tuples per page) and returns the file plus the rows.
func buildFile(t *testing.T, numRows int64) (*File, []tuple.Row) {
	t.Helper()
	dev := disk.NewDevice(disk.Profile{Name: "t", RandCost: 10, SeqCost: 1, PageSize: 256})
	f, err := Create(dev, tuple.Ints(3))
	if err != nil {
		t.Fatal(err)
	}
	b := f.NewBuilder()
	var rows []tuple.Row
	for i := int64(0); i < numRows; i++ {
		r := tuple.IntsRow(i, 7*i, i%5)
		rows = append(rows, r)
		if err := b.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	return f, rows
}

// rawPage reads a page without a buffer pool.
func rawPage(t *testing.T, f *File, pageNo int64) []byte {
	t.Helper()
	page, err := f.dev.ReadPage(f.space, pageNo)
	if err != nil {
		t.Fatal(err)
	}
	return page
}

// TestDecodeBatchMatchesDecodeRow checks slot-for-slot equivalence of
// the batched and per-slot decoders on both full pages and the partial
// final page.
func TestDecodeBatchMatchesDecodeRow(t *testing.T) {
	f, _ := buildFile(t, 25) // 10+10+5: two full pages, one partial
	if f.NumPages() != 3 {
		t.Fatalf("pages = %d, want 3", f.NumPages())
	}
	batch := tuple.NewGrowableBatch(3)
	for pageNo := int64(0); pageNo < f.NumPages(); pageNo++ {
		page := rawPage(t, f, pageNo)
		count := PageTupleCount(page)
		batch.Reset()
		if next := f.DecodeBatch(page, 0, count, batch); next != count {
			t.Fatalf("page %d: DecodeBatch stopped at %d of %d", pageNo, next, count)
		}
		if batch.Len() != count {
			t.Fatalf("page %d: batch has %d rows, want %d", pageNo, batch.Len(), count)
		}
		for s := 0; s < count; s++ {
			want := f.DecodeRow(page, s, nil)
			if !batch.Row(s).Equal(want) {
				t.Errorf("page %d slot %d: batch %v != row %v", pageNo, s, batch.Row(s), want)
			}
		}
	}
}

// TestDecodeBatchPartialFill checks that a capacity-bounded batch stops
// mid-page and resumes exactly where it left off.
func TestDecodeBatchPartialFill(t *testing.T) {
	f, rows := buildFile(t, 10)
	page := rawPage(t, f, 0)
	b := tuple.NewBatchFor(f.Schema(), 4)
	next := f.DecodeBatch(page, 0, PageTupleCount(page), b)
	if next != 4 || b.Len() != 4 {
		t.Fatalf("first fill: next=%d len=%d, want 4/4", next, b.Len())
	}
	b.Reset()
	next = f.DecodeBatch(page, next, PageTupleCount(page), b)
	if next != 8 || b.Len() != 4 {
		t.Fatalf("second fill: next=%d len=%d, want 8/4", next, b.Len())
	}
	if !b.Row(0).Equal(rows[4]) {
		t.Errorf("resume decoded %v, want %v", b.Row(0), rows[4])
	}
}

// TestDecodeBatchMatching checks the predicate-pushdown decoder against
// a straight per-slot decode + predicate loop, with and without a veto.
func TestDecodeBatchMatching(t *testing.T) {
	f, rows := buildFile(t, 25)
	pred := tuple.RangePred{Col: 1, Lo: 21, Hi: 120} // 7*i in [21,120) => i in [3,18)
	got := tuple.NewGrowableBatch(3)
	examinedTotal := 0
	for pageNo := int64(0); pageNo < f.NumPages(); pageNo++ {
		page := rawPage(t, f, pageNo)
		count := PageTupleCount(page)
		next, examined := f.DecodeBatchMatching(page, 0, count, pred, nil, nil, got)
		if next != count || examined != count {
			t.Fatalf("page %d: next=%d examined=%d, want %d", pageNo, next, examined, count)
		}
		examinedTotal += examined
	}
	if examinedTotal != 25 {
		t.Fatalf("examined %d slots, want 25", examinedTotal)
	}
	var want []tuple.Row
	for _, r := range rows {
		if pred.Matches(r) {
			want = append(want, r)
		}
	}
	if got.Len() != len(want) {
		t.Fatalf("matched %d rows, want %d", got.Len(), len(want))
	}
	for i := range want {
		if !got.Row(i).Equal(want[i]) {
			t.Errorf("match %d = %v, want %v", i, got.Row(i), want[i])
		}
	}

	// Veto every even row number through a Tuple ID bitmap.
	got.Reset()
	page := rawPage(t, f, 0)
	seen := bitmap.New(f.NumTuples())
	for i := int64(0); i < f.NumTuples(); i += 2 {
		seen.Set(i)
	}
	f.DecodeBatchMatching(page, 0, PageTupleCount(page), tuple.All(0), nil, &Veto{Seen: seen}, got)
	if got.Len() != 5 {
		t.Fatalf("veto kept %d rows, want 5", got.Len())
	}
	for i := 0; i < got.Len(); i++ {
		if got.Row(i).Int(0)%2 != 1 {
			t.Errorf("veto let through row %v", got.Row(i))
		}
	}
}

// TestDecodeBatchMatchingStopsWhenFull checks the early-exit contract:
// the slot that fills the batch is counted as examined, later slots are
// not.
func TestDecodeBatchMatchingStopsWhenFull(t *testing.T) {
	f, _ := buildFile(t, 10)
	page := rawPage(t, f, 0)
	b := tuple.NewBatchFor(f.Schema(), 3)
	next, examined := f.DecodeBatchMatching(page, 0, PageTupleCount(page), tuple.All(0), nil, nil, b)
	if b.Len() != 3 || next != 3 || examined != 3 {
		t.Fatalf("len=%d next=%d examined=%d, want 3/3/3", b.Len(), next, examined)
	}
	// Resume from slot 3 with room for the rest.
	big := tuple.NewBatchFor(f.Schema(), 100)
	next, examined = f.DecodeBatchMatching(page, next, PageTupleCount(page), tuple.All(0), nil, nil, big)
	if big.Len() != 7 || next != 10 || examined != 7 {
		t.Fatalf("resume: len=%d next=%d examined=%d, want 7/10/7", big.Len(), next, examined)
	}
}

// TestTIDBitInvertsTIDOf checks the Tuple ID cache layout against the
// load order: a bulk-loaded file's row i sits at bit i.
func TestTIDBitInvertsTIDOf(t *testing.T) {
	f, rows := buildFile(t, 25)
	for i := range rows {
		if bit := f.TIDBit(f.TIDOf(int64(i))); bit != int64(i) {
			t.Fatalf("TIDBit(TIDOf(%d)) = %d", i, bit)
		}
	}
}
