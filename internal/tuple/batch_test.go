package tuple

import "testing"

func TestBatchFixedCapacityOverflow(t *testing.T) {
	b := NewBatch(2, 3)
	if b.Width() != 2 || b.Cap() != 3 || b.Len() != 0 || b.Full() {
		t.Fatalf("fresh batch: width=%d cap=%d len=%d full=%v", b.Width(), b.Cap(), b.Len(), b.Full())
	}
	for i := 0; i < 3; i++ {
		if !b.Append(IntsRow(int64(i), int64(10*i))) {
			t.Fatalf("append %d refused below capacity", i)
		}
	}
	if !b.Full() || b.Len() != 3 {
		t.Fatalf("after 3 appends: len=%d full=%v", b.Len(), b.Full())
	}
	if b.Append(IntsRow(9, 9)) {
		t.Fatal("append succeeded on a full batch")
	}
	if b.AppendSlot() != nil || b.AppendSlotRaw() != nil {
		t.Fatal("AppendSlot on a full batch must return nil")
	}
	for i := 0; i < 3; i++ {
		if got := b.Row(i).Int(0); got != int64(i) {
			t.Errorf("row %d col 0 = %d, want %d", i, got, i)
		}
	}
}

func TestBatchResetReusesBacking(t *testing.T) {
	b := NewBatch(2, 4)
	b.Append(IntsRow(1, 2))
	b.Append(IntsRow(3, 4))
	b.Reset()
	if b.Len() != 0 || b.Full() {
		t.Fatalf("after reset: len=%d full=%v", b.Len(), b.Full())
	}
	// Refill and verify no stale data leaks through AppendSlot's zeroing.
	slot := b.AppendSlot()
	if slot[0] != 0 || slot[1] != 0 {
		t.Fatalf("AppendSlot after reset not zeroed: %v", slot)
	}
	allocs := testing.AllocsPerRun(100, func() {
		b.Reset()
		for !b.Full() {
			b.AppendSlot()
		}
	})
	if allocs != 0 {
		t.Errorf("reset+refill allocated %.1f times per run, want 0", allocs)
	}
}

func TestBatchGrowable(t *testing.T) {
	b := NewGrowableBatch(3)
	if b.Cap() != 0 {
		t.Fatalf("growable cap = %d, want 0", b.Cap())
	}
	const n = 1000
	for i := 0; i < n; i++ {
		if b.Full() {
			t.Fatal("growable batch reported full")
		}
		r := b.AppendSlot()
		r.SetInt(0, int64(i))
	}
	if b.Len() != n {
		t.Fatalf("len = %d, want %d", b.Len(), n)
	}
	for i := 0; i < n; i += 97 {
		if got := b.Row(i).Int(0); got != int64(i) {
			t.Errorf("row %d = %d, want %d", i, got, i)
		}
	}
}

func TestBatchFillLimit(t *testing.T) {
	b := NewBatch(1, 8)
	b.SetFillLimit(3)
	for b.AppendSlot() != nil {
	}
	if b.Len() != 3 || !b.Full() {
		t.Fatalf("with fill limit 3: len=%d full=%v", b.Len(), b.Full())
	}
	b.Reset()
	if !b.Append(IntsRow(1)) || !b.Append(IntsRow(2)) || !b.Append(IntsRow(3)) || b.Append(IntsRow(4)) {
		t.Fatal("fill limit did not survive Reset")
	}
	b.SetFillLimit(0)
	if b.Full() {
		t.Fatal("clearing the fill limit should reopen the batch")
	}
	b.SetFillLimit(99) // clamps to capacity
	b.Reset()
	for b.AppendSlot() != nil {
	}
	if b.Len() != 8 {
		t.Fatalf("fill limit beyond capacity: len=%d, want 8", b.Len())
	}
}

func TestBatchAppendRows(t *testing.T) {
	src := NewGrowableBatch(2)
	for i := 0; i < 10; i++ {
		src.Append(IntsRow(int64(i), int64(-i)))
	}
	dst := NewBatch(2, 4)
	if n := dst.AppendRows(src, 3, 7); n != 4 {
		t.Fatalf("AppendRows copied %d, want 4 (capacity-bounded)", n)
	}
	for i := 0; i < 4; i++ {
		if got := dst.Row(i).Int(0); got != int64(3+i) {
			t.Errorf("dst row %d = %d, want %d", i, got, 3+i)
		}
	}
	dst.Reset()
	if n := dst.AppendRows(src, 8, 2); n != 2 {
		t.Fatalf("AppendRows copied %d, want 2", n)
	}
	if n := dst.AppendRows(src, 0, 0); n != 0 {
		t.Fatalf("empty AppendRows copied %d", n)
	}
}

func TestBatchAppendRowsRaw(t *testing.T) {
	dst := NewBatch(2, 8)
	dst.SetFillLimit(5)
	dst.Append(IntsRow(9, 9))
	raw := dst.AppendRowsRaw(6)
	if len(raw) != 8 || cap(raw) != 8 || dst.Len() != 5 || !dst.Full() {
		t.Fatalf("AppendRowsRaw(6) under a 5-row limit: len %d cap %d, batch %d rows", len(raw), cap(raw), dst.Len())
	}
	for i := range raw {
		raw[i] = uint64(i)
	}
	if got := dst.Row(4); got.Int(0) != 6 || got.Int(1) != 7 {
		t.Errorf("last row = %v, want [6 7]", got)
	}
	if raw := dst.AppendRowsRaw(1); len(raw) != 0 || dst.Len() != 5 {
		t.Errorf("AppendRowsRaw on a full batch returned %d values, batch %d rows", len(raw), dst.Len())
	}
	g := NewGrowableBatch(3)
	if raw := g.AppendRowsRaw(100); len(raw) != 300 || g.Len() != 100 {
		t.Errorf("growable AppendRowsRaw(100): %d values, %d rows", len(raw), g.Len())
	}
}

func TestBatchAppendInts(t *testing.T) {
	vals := []int64{0, 0, 1, -1, 2, -2, 3, -3, 4, -4}
	dst := NewBatch(2, 8)
	dst.SetFillLimit(3)
	dst.Append(IntsRow(9, 9))
	if n := dst.AppendInts(vals); n != 2 {
		t.Fatalf("AppendInts appended %d rows, want 2 (fill-limit-bounded)", n)
	}
	for i := 1; i < 3; i++ {
		if got := dst.Row(i); got.Int(0) != int64(i-1) || got.Int(1) != int64(1-i) {
			t.Errorf("dst row %d = %v, want [%d %d]", i, got, i-1, 1-i)
		}
	}
	if n := dst.AppendInts(vals); n != 0 {
		t.Fatalf("AppendInts into a full batch appended %d rows", n)
	}
	grow := NewGrowableBatch(2)
	if n := grow.AppendInts(vals); n != 5 || grow.Row(4).Int(1) != -4 {
		t.Fatalf("growable AppendInts appended %d rows, last %v", n, grow.Row(n-1))
	}
}

func TestBatchTruncateAndFilter(t *testing.T) {
	b := NewGrowableBatch(1)
	for i := 0; i < 10; i++ {
		b.Append(IntsRow(int64(i)))
	}
	b.Filter(func(r Row) bool { return r.Int(0)%2 == 0 })
	if b.Len() != 5 {
		t.Fatalf("after filter len = %d, want 5", b.Len())
	}
	for i := 0; i < 5; i++ {
		if got := b.Row(i).Int(0); got != int64(2*i) {
			t.Errorf("filtered row %d = %d, want %d", i, got, 2*i)
		}
	}
	b.Truncate(2)
	if b.Len() != 2 {
		t.Fatalf("after truncate len = %d, want 2", b.Len())
	}
	defer func() {
		if recover() == nil {
			t.Error("truncate beyond length did not panic")
		}
	}()
	b.Truncate(3)
}

func TestBatchSortByIntCol(t *testing.T) {
	b := NewGrowableBatch(2)
	// Duplicate keys with distinct payloads check stability.
	in := [][2]int64{{3, 0}, {1, 1}, {3, 2}, {2, 3}, {1, 4}, {3, 5}}
	for _, p := range in {
		b.Append(IntsRow(p[0], p[1]))
	}
	b.SortByIntCol(0)
	want := [][2]int64{{1, 1}, {1, 4}, {2, 3}, {3, 0}, {3, 2}, {3, 5}}
	for i, p := range want {
		got := b.Row(i)
		if got.Int(0) != p[0] || got.Int(1) != p[1] {
			t.Errorf("sorted row %d = (%d,%d), want (%d,%d)", i, got.Int(0), got.Int(1), p[0], p[1])
		}
	}
}
