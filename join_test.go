package smoothscan

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
)

// joinFixture is a two-table join workload with the generated rows
// kept around for the reference oracle.
type joinFixture struct {
	db     *DB
	items  [][]int64 // i_id, i_order, i_date, i_qty
	orders [][]int64 // o_id, o_date, o_pri
}

// buildJoinDB loads an items (fact) and orders (dimension) pair:
// items.i_order is a foreign key into orders.o_id (dense 0..nOrders).
// Indexes: items.i_order, items.i_date, orders.o_id, orders.o_date.
func buildJoinDB(t testing.TB, nItems, nOrders int64) *joinFixture {
	t.Helper()
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := &joinFixture{db: db}
	rng := rand.New(rand.NewSource(41))

	ob, err := db.CreateTable("orders", "o_id", "o_date", "o_pri")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < nOrders; i++ {
		row := []int64{i, rng.Int63n(1000), rng.Int63n(5)}
		f.orders = append(f.orders, row)
		if err := ob.Append(row...); err != nil {
			t.Fatal(err)
		}
	}
	if err := ob.Finish(); err != nil {
		t.Fatal(err)
	}

	ib, err := db.CreateTable("items", "i_id", "i_order", "i_date", "i_qty")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < nItems; i++ {
		row := []int64{i, rng.Int63n(nOrders), rng.Int63n(1000), 1 + rng.Int63n(50)}
		f.items = append(f.items, row)
		if err := ib.Append(row...); err != nil {
			t.Fatal(err)
		}
	}
	if err := ib.Finish(); err != nil {
		t.Fatal(err)
	}
	for _, ix := range [][2]string{{"items", "i_order"}, {"items", "i_date"}, {"orders", "o_id"}, {"orders", "o_date"}} {
		if err := db.CreateIndex(ix[0], ix[1]); err != nil {
			t.Fatal(err)
		}
	}
	db.ResetStats()
	return f
}

// referenceJoinRows is the per-tuple oracle: filter both sides, then
// nested-loop the equi-join, emitting left ++ right columns.
func referenceJoinRows(left, right [][]int64, lpred, rpred func([]int64) bool, lc, rc int) [][]int64 {
	var out [][]int64
	for _, l := range left {
		if !lpred(l) {
			continue
		}
		for _, r := range right {
			if !rpred(r) {
				continue
			}
			if l[lc] == r[rc] {
				row := append(append([]int64(nil), l...), r...)
				out = append(out, row)
			}
		}
	}
	return out
}

func sortJoined(rows [][]int64) {
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

func collectRows(t testing.TB, rows *Rows) [][]int64 {
	t.Helper()
	defer rows.Close()
	var out [][]int64
	for rows.Next() {
		out = append(out, slices.Clone(rows.Row()))
	}
	if rows.Err() != nil {
		t.Fatal(rows.Err())
	}
	return out
}

func joinedEqual(a, b [][]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for k := range a[i] {
			if a[i][k] != b[i][k] {
				return false
			}
		}
	}
	return true
}

// TestQueryJoinMatchesReference sweeps selectivity on both join inputs
// and access-path configurations of the probe side, comparing the
// batched join output to the per-tuple reference oracle.
func TestQueryJoinMatchesReference(t *testing.T) {
	f := buildJoinDB(t, 6_000, 800)
	grid := []int64{0, 10, 300, 1000} // i_date / o_date upper bounds over domain [0,1000)
	optsGrid := map[string]ScanOptions{
		"smooth":   {},
		"full":     {Path: PathFull},
		"index":    {Path: PathIndex},
		"parallel": {Path: PathFull, Parallelism: 4},
	}
	for _, li := range grid {
		for _, ri := range grid {
			lpred := func(r []int64) bool { return r[2] < li }
			rpred := func(r []int64) bool { return r[1] < ri }
			want := referenceJoinRows(f.items, f.orders, lpred, rpred, 1, 0)
			sortJoined(want)
			for name, opts := range optsGrid {
				got := collectRows(t, mustRun(t, f.db.Query("items").
					Join("orders", "i_order", "o_id").
					Where("i_date", Lt(li)).
					Where("o_date", Lt(ri)).
					WithOptions(opts)))
				sortJoined(got)
				if !joinedEqual(got, want) {
					t.Fatalf("li=%d ri=%d opts=%s: join = %d rows, oracle %d", li, ri, name, len(got), len(want))
				}
			}
		}
	}
}

// TestQueryJoinExplainHashBuildSide: the smaller estimated input lands
// on the hash build side, and the plan tree shows both inputs.
func TestQueryJoinExplainHashBuildSide(t *testing.T) {
	f := buildJoinDB(t, 6_000, 800)
	plan, err := f.db.Query("items").
		Join("orders", "i_order", "o_id").
		Where("i_date", Lt(500)).
		Explain()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Tables) != 2 || plan.Tables[0] != "items" || plan.Tables[1] != "orders" {
		t.Errorf("Tables = %v", plan.Tables)
	}
	root := plan.Root
	if root.Name != "hash-join" {
		t.Fatalf("root = %s\n%s", root.Name, plan)
	}
	if len(root.Children) != 2 {
		t.Fatalf("join has %d children", len(root.Children))
	}
	if !strings.Contains(root.Detail, "build=orders") {
		t.Errorf("expected orders (smaller) as build side: %q", root.Detail)
	}
	if !strings.Contains(plan.String(), "⋈") {
		t.Errorf("join header missing:\n%s", plan)
	}
}

// TestQueryJoinMergeWhenBothOrdered: when both inputs arrive ordered
// by their join columns (index scans on them), the planner picks the
// merge join, and its result matches the hash join's.
func TestQueryJoinMergeWhenBothOrdered(t *testing.T) {
	f := buildJoinDB(t, 4_000, 600)
	q := func() *Query {
		return f.db.Query("items").
			JoinWithOptions("orders", "i_order", "o_id", ScanOptions{Path: PathIndex}).
			Where("i_order", Between(0, 600)).
			WithOptions(ScanOptions{Path: PathIndex})
	}
	plan, err := q().Explain()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Root.Name != "merge-join" {
		t.Fatalf("expected merge-join:\n%s", plan)
	}
	got := collectRows(t, mustRun(t, q()))
	want := referenceJoinRows(f.items, f.orders,
		func(r []int64) bool { return r[1] >= 0 && r[1] < 600 },
		func([]int64) bool { return true }, 1, 0)
	sortJoined(got)
	sortJoined(want)
	if !joinedEqual(got, want) {
		t.Fatalf("merge join = %d rows, oracle %d", len(got), len(want))
	}

	// The ordered smooth scan variant is merge-eligible too.
	q2 := f.db.Query("items").
		JoinWithOptions("orders", "i_order", "o_id", ScanOptions{Ordered: true}).
		Where("i_order", Between(0, 600)).
		WithOptions(ScanOptions{Ordered: true})
	plan2, err := q2.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if plan2.Root.Name != "merge-join" {
		t.Fatalf("ordered smooth inputs should merge-join:\n%s", plan2)
	}
}

// TestQueryJoinSelectGroupOrder: the relational tail (Select over
// joined columns incl. the renamed collision-free schema, GroupBy,
// OrderBy, Limit) composes over a join.
func TestQueryJoinSelectGroupOrder(t *testing.T) {
	f := buildJoinDB(t, 5_000, 500)
	rows := mustRun(t, f.db.Query("items").
		Join("orders", "i_order", "o_id").
		Where("i_date", Lt(400)).
		Select("o_pri", "i_qty").
		GroupBy("o_pri", Count(), Sum("i_qty")).
		OrderBy("o_pri"))
	got := collectRows(t, rows)

	// Oracle aggregation.
	type agg struct{ count, sum int64 }
	ref := map[int64]*agg{}
	for _, l := range f.items {
		if l[2] >= 400 {
			continue
		}
		o := f.orders[l[1]]
		a := ref[o[2]]
		if a == nil {
			a = &agg{}
			ref[o[2]] = a
		}
		a.count++
		a.sum += l[3]
	}
	if len(got) != len(ref) {
		t.Fatalf("%d groups, want %d", len(got), len(ref))
	}
	for _, row := range got {
		a := ref[row[0]]
		if a == nil || a.count != row[1] || a.sum != row[2] {
			t.Errorf("group %d = %v, want %+v", row[0], row, a)
		}
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i][0] < got[j][0] }) {
		t.Error("groups not ordered by key")
	}
}

// TestQueryJoinEmptyAndContradiction: a contradictory predicate on
// either side short-circuits the whole join with zero device reads;
// disjoint key ranges produce an empty (but executed) result.
func TestQueryJoinEmptyAndContradiction(t *testing.T) {
	f := buildJoinDB(t, 2_000, 300)
	f.db.ResetStats()
	before := f.db.Stats()
	rows := mustRun(t, f.db.Query("items").
		Join("orders", "i_order", "o_id").
		Where("o_date", Lt(10)).
		Where("o_date", Ge(20)))
	if got := collectRows(t, rows); len(got) != 0 {
		t.Errorf("contradictory join returned %d rows", len(got))
	}
	if d := f.db.Stats().Sub(before); d.PagesRead != 0 {
		t.Errorf("contradictory join read %d pages", d.PagesRead)
	}

	rows = mustRun(t, f.db.Query("items").
		Join("orders", "i_order", "o_id").
		Where("o_id", Ge(1_000_000)))
	if got := collectRows(t, rows); len(got) != 0 {
		t.Errorf("disjoint join returned %d rows", len(got))
	}
}

// TestQueryJoinExecStats: the join's build/probe counters and build-IO
// split surface through Rows.ExecStats.
func TestQueryJoinExecStats(t *testing.T) {
	f := buildJoinDB(t, 4_000, 500)
	rows := mustRun(t, f.db.Query("items").
		Join("orders", "i_order", "o_id").
		Where("i_date", Lt(500)))
	got := collectRows(t, rows)
	st := rows.ExecStats()
	if len(st.Joins) != 1 {
		t.Fatalf("ExecStats.Joins = %d entries", len(st.Joins))
	}
	j := st.Joins[0]
	if j.Algo != "hash" {
		t.Errorf("algo = %q", j.Algo)
	}
	if j.RightRows != int64(len(f.orders)) {
		t.Errorf("build (right) rows = %d, want %d", j.RightRows, len(f.orders))
	}
	if j.OutputRows != int64(len(got)) {
		t.Errorf("output rows = %d, want %d", j.OutputRows, len(got))
	}
	if j.BuildKeys != int64(len(f.orders)) {
		t.Errorf("build keys = %d, want %d (o_id unique)", j.BuildKeys, len(f.orders))
	}
	if j.BuildIO.PagesRead == 0 {
		t.Error("build IO delta empty — expected the orders scan to read pages")
	}
	if st.IO.PagesRead < j.BuildIO.PagesRead {
		t.Errorf("total IO %d < build IO %d", st.IO.PagesRead, j.BuildIO.PagesRead)
	}
	var sawJoinOp bool
	for _, op := range st.Operators {
		if op.Name == "hash-join" {
			sawJoinOp = true
			if op.Rows != int64(len(got)) {
				t.Errorf("hash-join counter = %d rows, want %d", op.Rows, len(got))
			}
		}
	}
	if !sawJoinOp {
		t.Errorf("no hash-join operator counter: %+v", st.Operators)
	}
}

// TestQueryJoinCancellationParallelProbe: cancelling a join whose
// probe side is a parallel scan releases the worker goroutines
// promptly, mid-probe.
func TestQueryJoinCancellationParallelProbe(t *testing.T) {
	f := buildJoinDB(t, 30_000, 400)
	runtime.GC()
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows, err := f.db.Query("items").
		Join("orders", "i_order", "o_id").
		Where("i_date", Lt(1000)).
		WithOptions(ScanOptions{Path: PathFull, Parallelism: 4}).
		Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no rows before cancel: %v", rows.Err())
	}
	cancel()
	waitGoroutines(t, base)
	for rows.Next() {
	}
	if !errors.Is(rows.Err(), context.Canceled) {
		t.Errorf("Err() = %v, want context.Canceled", rows.Err())
	}
	if err := rows.Close(); err != nil && !errors.Is(err, context.Canceled) {
		t.Errorf("Close() = %v", err)
	}
}

// TestQueryJoinPreCancelledBuild: a context cancelled before Run stops
// the (blocking) hash build before it starts.
func TestQueryJoinPreCancelledBuild(t *testing.T) {
	f := buildJoinDB(t, 2_000, 300)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := f.db.Query("items").Join("orders", "i_order", "o_id").Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("Run on cancelled ctx = %v", err)
	}
}

// TestQueryJoinThreeTables: a left-deep two-stage join chain.
func TestQueryJoinThreeTables(t *testing.T) {
	f := buildJoinDB(t, 3_000, 400)
	// Third table: priority labels (o_pri -> weight).
	pb, err := f.db.CreateTable("prio", "p_pri", "p_weight")
	if err != nil {
		t.Fatal(err)
	}
	var prio [][]int64
	for p := int64(0); p < 5; p++ {
		row := []int64{p, 100 * (p + 1)}
		prio = append(prio, row)
		if err := pb.Append(row...); err != nil {
			t.Fatal(err)
		}
	}
	if err := pb.Finish(); err != nil {
		t.Fatal(err)
	}

	got := collectRows(t, mustRun(t, f.db.Query("items").
		Join("orders", "i_order", "o_id").
		Join("prio", "o_pri", "p_pri").
		Where("i_date", Lt(200))))

	stage1 := referenceJoinRows(f.items, f.orders,
		func(r []int64) bool { return r[2] < 200 },
		func([]int64) bool { return true }, 1, 0)
	want := referenceJoinRows(stage1, prio,
		func([]int64) bool { return true },
		func([]int64) bool { return true }, 6, 0) // o_pri is col 4+2
	sortJoined(got)
	sortJoined(want)
	if !joinedEqual(got, want) {
		t.Fatalf("3-table join = %d rows, oracle %d", len(got), len(want))
	}
}

// TestQueryJoinErrors covers the builder-level misuse paths.
func TestQueryJoinErrors(t *testing.T) {
	f := buildJoinDB(t, 1_000, 200)
	cases := []struct {
		name string
		q    *Query
		want error
	}{
		{"unknown join table", f.db.Query("items").Join("nope", "i_order", "o_id"), ErrNoTable},
		{"unknown left col", f.db.Query("items").Join("orders", "bogus", "o_id"), ErrUnknownColumn},
		{"unknown right col", f.db.Query("items").Join("orders", "i_order", "bogus"), ErrUnknownColumn},
		{"unknown where col", f.db.Query("items").Join("orders", "i_order", "o_id").Where("bogus", Eq(1)), ErrUnknownColumn},
	}
	for _, c := range cases {
		if _, err := c.q.Explain(); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}
