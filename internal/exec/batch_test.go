package exec

import (
	"testing"

	"smoothscan/internal/disk"
	"smoothscan/internal/tuple"
)

func intRows(vals ...int64) []tuple.Row {
	rows := make([]tuple.Row, len(vals))
	for i, v := range vals {
		rows[i] = tuple.IntsRow(v)
	}
	return rows
}

// drainBatched runs op to completion with the given batch capacity.
func drainBatched(t *testing.T, op Operator, batchCap int) []tuple.Row {
	t.Helper()
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	b := tuple.NewBatchFor(op.Schema(), batchCap)
	var out []tuple.Row
	for {
		n, err := op.NextBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			return out
		}
		for i := 0; i < n; i++ {
			out = append(out, b.Row(i).Clone())
		}
	}
}

func wantRows(t *testing.T, got []tuple.Row, want ...int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Int(0) != want[i] {
			t.Errorf("row %d = %d, want %d", i, got[i].Int(0), want[i])
		}
	}
}

func TestValuesNextBatch(t *testing.T) {
	v := NewValues(tuple.Ints(1), intRows(1, 2, 3, 4, 5))
	wantRows(t, drainBatched(t, v, 2), 1, 2, 3, 4, 5)
}

func TestFilterNextBatch(t *testing.T) {
	v := NewValues(tuple.Ints(1), intRows(1, 2, 3, 4, 5, 6, 7, 8))
	f := NewFilter(v, nil, func(r tuple.Row) bool { return r.Int(0)%2 == 0 })
	wantRows(t, drainBatched(t, f, 3), 2, 4, 6, 8)
}

// TestFilterNextBatchSparse checks that a filter rejecting whole child
// batches keeps pulling instead of signalling a spurious end of stream.
func TestFilterNextBatchSparse(t *testing.T) {
	vals := make([]int64, 100)
	for i := range vals {
		vals[i] = int64(i)
	}
	v := NewValues(tuple.Ints(1), intRows(vals...))
	f := NewFilter(v, nil, func(r tuple.Row) bool { return r.Int(0) == 97 })
	wantRows(t, drainBatched(t, f, 8), 97)
}

func TestProjectNextBatch(t *testing.T) {
	v := NewValues(tuple.Ints(1), intRows(1, 2, 3))
	p := NewProject(v, tuple.Ints(1), func(r tuple.Row) tuple.Row {
		return tuple.IntsRow(r.Int(0) * 10)
	})
	wantRows(t, drainBatched(t, p, 2), 10, 20, 30)
}

func TestLimitNextBatch(t *testing.T) {
	v := NewValues(tuple.Ints(1), intRows(1, 2, 3, 4, 5, 6, 7))
	l := NewLimit(v, 4)
	wantRows(t, drainBatched(t, l, 3), 1, 2, 3, 4)
}

// TestLimitNextBatchDoesNotOverpull verifies the fill-limit contract:
// the child must not produce (or be charged for) rows past the limit.
// A Values child tracks its cursor, so overpulling would advance pos.
func TestLimitNextBatchDoesNotOverpull(t *testing.T) {
	v := NewValues(tuple.Ints(1), intRows(1, 2, 3, 4, 5, 6, 7, 8, 9))
	l := NewLimit(v, 2)
	if err := l.Open(); err != nil {
		t.Fatal(err)
	}
	b := tuple.NewBatch(1, 8)
	n, err := l.NextBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("limit batch returned %d rows, want 2", n)
	}
	if v.pos != 2 {
		t.Errorf("child consumed %d rows, want 2 (no overpull)", v.pos)
	}
	if b.Cap() != 8 || b.Full() {
		t.Errorf("fill limit not restored: cap=%d full=%v", b.Cap(), b.Full())
	}
	l.Close()
}

// TestHashAggBatchInput checks HashAgg's grouped output.
func TestHashAggBatchInput(t *testing.T) {
	dev := disk.NewDevice(disk.HDD)
	mk := func() *HashAgg {
		rows := []tuple.Row{
			tuple.IntsRow(1, 10), tuple.IntsRow(2, 20), tuple.IntsRow(1, 5),
			tuple.IntsRow(3, 7), tuple.IntsRow(2, 1),
		}
		return NewHashAgg(NewValues(tuple.Ints(2), rows), dev, 0, []AggSpec{
			{Name: "sum", Col: 1, Kind: AggSum},
			{Name: "cnt", Col: 1, Kind: AggCount},
		})
	}
	got, err := Drain(mk())
	if err != nil {
		t.Fatal(err)
	}
	want := [][3]int64{{1, 15, 2}, {2, 21, 2}, {3, 7, 1}}
	if len(got) != len(want) {
		t.Fatalf("got %d groups, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].Int(0) != w[0] || got[i].Int(1) != w[1] || got[i].Int(2) != w[2] {
			t.Errorf("group %d = (%d,%d,%d), want %v", i, got[i].Int(0), got[i].Int(1), got[i].Int(2), w)
		}
	}
}
