package exec

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

func intsValues(vals ...[]int64) *Values {
	if len(vals) == 0 {
		return NewValues(tuple.Ints(1), nil)
	}
	schema := tuple.Ints(len(vals[0]))
	rows := make([]tuple.Row, len(vals))
	for i, v := range vals {
		rows[i] = tuple.IntsRow(v...)
	}
	return NewValues(schema, rows)
}

func TestValuesAndDrain(t *testing.T) {
	v := intsValues([]int64{1, 2}, []int64{3, 4})
	rows, err := Drain(v)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[1].Int(1) != 4 {
		t.Errorf("Drain = %v", rows)
	}
	// Reopenable.
	n, err := Count(v)
	if err != nil || n != 2 {
		t.Errorf("Count = %d, %v", n, err)
	}
}

func TestOperatorsRejectNextBeforeOpen(t *testing.T) {
	v := intsValues([]int64{1})
	ops := []Operator{
		v,
		NewFilter(v, nil, func(tuple.Row) bool { return true }),
		NewProject(v, tuple.Ints(1), func(r tuple.Row) tuple.Row { return r }),
		NewLimit(v, 1),
		NewSort(v, nil, 0),
		NewHashAgg(v, nil, -1, []AggSpec{{Name: "n", Kind: AggCount}}),
		NewHashJoinBatch(v, v, nil, 0, 0, false),
		NewMergeJoinBatch(v, v, nil, 0, 0),
		NewIndexNestedLoopJoin(v, mapLookup{schema: tuple.Ints(1)}, 0),
	}
	for i, op := range ops {
		if _, err := op.NextBatch(tuple.NewBatch(1, 1)); !errors.Is(err, ErrClosed) {
			t.Errorf("op %d: err = %v, want ErrClosed", i, err)
		}
	}
}

func TestFilter(t *testing.T) {
	v := intsValues([]int64{1}, []int64{2}, []int64{3}, []int64{4})
	f := NewFilter(v, nil, func(r tuple.Row) bool { return r.Int(0)%2 == 0 })
	rows, err := Drain(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Int(0) != 2 || rows[1].Int(0) != 4 {
		t.Errorf("Filter = %v", rows)
	}
}

func TestProject(t *testing.T) {
	v := intsValues([]int64{1, 10}, []int64{2, 20})
	p := NewProject(v, tuple.Ints(1), func(r tuple.Row) tuple.Row {
		return tuple.IntsRow(r.Int(0) + r.Int(1))
	})
	rows, err := Drain(p)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Int(0) != 11 || rows[1].Int(0) != 22 {
		t.Errorf("Project = %v", rows)
	}
	if p.Schema().NumCols() != 1 {
		t.Errorf("schema = %v", p.Schema())
	}
}

func TestLimit(t *testing.T) {
	v := intsValues([]int64{1}, []int64{2}, []int64{3})
	rows, err := Drain(NewLimit(v, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Errorf("Limit = %v", rows)
	}
	rows, err = Drain(NewLimit(v, 0))
	if err != nil || len(rows) != 0 {
		t.Errorf("Limit 0 = %v, %v", rows, err)
	}
}

func TestSortOp(t *testing.T) {
	v := intsValues([]int64{3, 0}, []int64{1, 1}, []int64{2, 2}, []int64{1, 3})
	rows, err := Drain(NewSort(v, nil, 0))
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{1, 1, 2, 3}
	for i, w := range want {
		if rows[i].Int(0) != w {
			t.Fatalf("sorted[%d] = %d, want %d", i, rows[i].Int(0), w)
		}
	}
	// Stability: the two key-1 rows keep input order.
	if rows[0].Int(1) != 1 || rows[1].Int(1) != 3 {
		t.Error("sort not stable")
	}
}

func TestSortChargesCPU(t *testing.T) {
	dev := disk.NewDevice(disk.HDD)
	var rows []tuple.Row
	for i := 0; i < 1000; i++ {
		rows = append(rows, tuple.IntsRow(int64(1000-i)))
	}
	v := NewValues(tuple.Ints(1), rows)
	if _, err := Drain(NewSort(v, dev.DefaultChannel(), 0)); err != nil {
		t.Fatal(err)
	}
	if dev.Stats().CPUTime <= 0 {
		t.Error("sort charged no CPU")
	}
}

func TestHashAggGlobal(t *testing.T) {
	v := intsValues([]int64{5}, []int64{7}, []int64{3})
	agg := NewHashAgg(v, nil, -1, []AggSpec{
		{Name: "n", Kind: AggCount},
		{Name: "sum", Col: 0, Kind: AggSum},
		{Name: "min", Col: 0, Kind: AggMin},
		{Name: "max", Col: 0, Kind: AggMax},
	})
	rows, err := Drain(agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	r := rows[0]
	if r.Int(0) != 3 || r.Int(1) != 15 || r.Int(2) != 3 || r.Int(3) != 7 {
		t.Errorf("agg = %v", r)
	}
}

func TestHashAggGrouped(t *testing.T) {
	v := intsValues([]int64{1, 10}, []int64{2, 20}, []int64{1, 30}, []int64{2, 5})
	agg := NewHashAgg(v, nil, 0, []AggSpec{
		{Name: "sum", Col: 1, Kind: AggSum},
		{Name: "n", Kind: AggCount},
	})
	rows, err := Drain(agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("groups = %v", rows)
	}
	// Groups are emitted in ascending key order.
	if rows[0].Int(0) != 1 || rows[0].Int(1) != 40 || rows[0].Int(2) != 2 {
		t.Errorf("group 1 = %v", rows[0])
	}
	if rows[1].Int(0) != 2 || rows[1].Int(1) != 25 || rows[1].Int(2) != 2 {
		t.Errorf("group 2 = %v", rows[1])
	}
	if agg.Schema().NumCols() != 3 {
		t.Errorf("schema = %v", agg.Schema())
	}
	if agg.Schema().ColIndex("group") != 0 {
		t.Errorf("schema = %v", agg.Schema())
	}
}

func TestHashAggEmptyInput(t *testing.T) {
	v := NewValues(tuple.Ints(1), nil)
	rows, err := Drain(NewHashAgg(v, nil, 0, []AggSpec{{Name: "n", Kind: AggCount}}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Errorf("grouped agg of empty input = %v", rows)
	}
}

// referenceJoin computes the expected equi-join result.
func referenceJoin(left, right []tuple.Row, lc, rc int) []tuple.Row {
	var out []tuple.Row
	for _, l := range left {
		for _, r := range right {
			if l.Int(lc) == r.Int(rc) {
				out = append(out, l.Concat(r))
			}
		}
	}
	return out
}

func normalise(rows []tuple.Row) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}

func joinRowsEqual(a, b []tuple.Row) bool {
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

func TestHashJoin(t *testing.T) {
	left := []tuple.Row{tuple.IntsRow(1, 100), tuple.IntsRow(2, 200), tuple.IntsRow(3, 300)}
	right := []tuple.Row{tuple.IntsRow(2, 7), tuple.IntsRow(2, 8), tuple.IntsRow(4, 9)}
	j := NewHashJoinBatch(NewValues(tuple.Ints(2), left), NewValues(tuple.Ints(2), right), nil, 0, 0, false)
	got, err := Drain(j)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceJoin(left, right, 0, 0)
	normalise(got)
	normalise(want)
	if !joinRowsEqual(got, want) {
		t.Errorf("hash join = %v, want %v", got, want)
	}
	if j.Schema().NumCols() != 4 {
		t.Errorf("schema = %v", j.Schema())
	}
}

// Property: hash join and merge join (over sorted inputs) agree with
// the reference equi-join for random inputs.
func TestJoinEquivalenceProperty(t *testing.T) {
	f := func(lraw, rraw []uint8) bool {
		left := make([]tuple.Row, len(lraw))
		for i, v := range lraw {
			left[i] = tuple.IntsRow(int64(v)%16, int64(i))
		}
		right := make([]tuple.Row, len(rraw))
		for i, v := range rraw {
			right[i] = tuple.IntsRow(int64(v)%16, int64(i)+100)
		}
		want := referenceJoin(left, right, 0, 0)
		normalise(want)

		hj, err := Drain(NewHashJoinBatch(NewValues(tuple.Ints(2), left), NewValues(tuple.Ints(2), right), nil, 0, 0, false))
		if err != nil {
			return false
		}
		normalise(hj)
		if !joinRowsEqual(hj, want) {
			return false
		}

		sl := append([]tuple.Row(nil), left...)
		sr := append([]tuple.Row(nil), right...)
		sort.SliceStable(sl, func(i, j int) bool { return sl[i].Int(0) < sl[j].Int(0) })
		sort.SliceStable(sr, func(i, j int) bool { return sr[i].Int(0) < sr[j].Int(0) })
		mj, err := Drain(NewMergeJoinBatch(NewValues(tuple.Ints(2), sl), NewValues(tuple.Ints(2), sr), nil, 0, 0))
		if err != nil {
			return false
		}
		normalise(mj)
		return joinRowsEqual(mj, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// lookupFixture builds a heap table with duplicates on the indexed
// column for Lookup tests.
func lookupFixture(t *testing.T) (*heap.File, *bufferpool.Pool, *btree.Tree, *disk.Device, []tuple.Row) {
	t.Helper()
	dev := disk.NewDevice(disk.Profile{Name: "t", RandCost: 10, SeqCost: 1, PageSize: 256})
	file, err := heap.Create(dev, tuple.Ints(3))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	b := file.NewBuilder()
	var rows []tuple.Row
	for i := int64(0); i < 900; i++ {
		r := tuple.IntsRow(i, rng.Int63n(30), i%5) // ~30 matches per key
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
	return file, bufferpool.New(dev, 64), tree, dev, rows
}

func TestLookupsReturnAllMatches(t *testing.T) {
	file, pool, tree, _, rows := lookupFixture(t)
	for _, mk := range []func() Lookup{
		func() Lookup { return NewIndexLookup(file, pool, tree) },
		func() Lookup { return NewMorphingLookup(file, pool, tree, 1) },
	} {
		lk := mk()
		for key := int64(-1); key < 32; key++ {
			got, err := lk.Find(key)
			if err != nil {
				t.Fatal(err)
			}
			var want int
			for _, r := range rows {
				if r.Int(1) == key {
					want++
				}
			}
			if len(got) != want {
				t.Errorf("%T Find(%d) = %d rows, want %d", lk, key, len(got), want)
			}
			for _, r := range got {
				if r.Int(1) != key {
					t.Errorf("%T Find(%d) returned row with key %d", lk, key, r.Int(1))
				}
			}
		}
	}
}

func TestIndexNestedLoopJoin(t *testing.T) {
	file, pool, tree, _, rows := lookupFixture(t)
	// Outer: 10 rows with keys 0..9 in column 0.
	var outer []tuple.Row
	for i := int64(0); i < 10; i++ {
		outer = append(outer, tuple.IntsRow(i, i*1000))
	}
	j := NewIndexNestedLoopJoin(
		NewValues(tuple.Ints(2), outer),
		NewIndexLookup(file, pool, tree),
		0,
	)
	got, err := Drain(j)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, r := range rows {
		if r.Int(1) < 10 {
			want++
		}
	}
	if len(got) != want {
		t.Errorf("INLJ produced %d rows, want %d", len(got), want)
	}
	if j.Schema().NumCols() != 5 {
		t.Errorf("schema = %v", j.Schema())
	}
}

func TestErrorPropagationThroughPlan(t *testing.T) {
	file, pool, tree, dev, _ := lookupFixture(t)
	_ = tree
	// A filter over a full scan over a failing device.
	scan := NewValues(tuple.Ints(3), nil)
	_ = scan
	fs := newHeapScan(file, pool)
	plan := NewFilter(fs, dev.DefaultChannel(), func(r tuple.Row) bool { return true })
	if err := plan.Open(); err != nil {
		t.Fatal(err)
	}
	dev.FailAfter(2)
	b := tuple.NewBatchFor(plan.Schema(), 1)
	var err error
	for err == nil {
		var n int
		n, err = plan.NextBatch(b)
		if n == 0 && err == nil {
			t.Fatal("plan completed despite injected failure")
		}
	}
	if !errors.Is(err, disk.ErrInjected) {
		t.Errorf("err = %v, want ErrInjected", err)
	}
	dev.FailAfter(-1)
}

// newHeapScan is a minimal heap reader used to test error propagation
// without importing package access (which would create an import
// cycle in tests only, but keep layering clean).
type heapScan struct {
	file *heap.File
	pool *bufferpool.Pool
	page int64
	slot int
	open bool
}

func newHeapScan(file *heap.File, pool *bufferpool.Pool) *heapScan {
	return &heapScan{file: file, pool: pool}
}

func (h *heapScan) Schema() *tuple.Schema { return h.file.Schema() }
func (h *heapScan) Open() error           { h.page, h.slot, h.open = 0, 0, true; return nil }
func (h *heapScan) Close() error          { h.open = false; return nil }

func (h *heapScan) NextBatch(b *tuple.Batch) (int, error) {
	if !h.open {
		return 0, ErrClosed
	}
	b.Reset()
	for !b.Full() && h.page < h.file.NumPages() {
		page, err := h.file.GetPage(h.pool, h.page)
		if err != nil {
			return 0, err
		}
		if h.slot >= heap.PageTupleCount(page) {
			h.page++
			h.slot = 0
			continue
		}
		h.file.DecodeRow(page, h.slot, b.AppendSlotRaw())
		h.slot++
	}
	return b.Len(), nil
}
