package smoothscan

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"smoothscan/internal/core"
	"smoothscan/internal/optimizer"
	"smoothscan/internal/plan"
	"smoothscan/internal/tuple"
)

// buildWideDB loads n rows (id, val, cat, payload) with indexes on val
// and cat: val uniform over valDomain, cat uniform over catDomain,
// payload = i%1000.
func buildWideDB(t testing.TB, n, valDomain, catDomain int64) *DB {
	t.Helper()
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := db.CreateTable("t", "id", "val", "cat", "payload")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for i := int64(0); i < n; i++ {
		if err := tb.Append(i, rng.Int63n(valDomain), rng.Int63n(catDomain), i%1000); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.Finish(); err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"val", "cat"} {
		if err := db.CreateIndex("t", col); err != nil {
			t.Fatal(err)
		}
	}
	db.ResetStats()
	return db
}

func mustRun(t testing.TB, q *Query) *Rows {
	t.Helper()
	rows, err := q.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// settledGoroutines polls until the goroutine count returns to base or
// 5 s pass, and returns the last count.
func settledGoroutines(base int) int {
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// waitGoroutines fails t unless the goroutine count returns to the
// baseline within 5 s. Package smoothscan_test reaches it as
// WaitGoroutines (export_test.go).
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	if got := settledGoroutines(base); got > base {
		t.Errorf("%d goroutines alive (baseline %d)", got, base)
	}
}

// TestMain fails the run when goroutines outlive the tests: after a
// passing run the count must return to its pre-run baseline within
// 5 s, or the survivors' stacks are printed and the binary exits 1. A
// -fuzz run is not checked: the fuzzing engine itself leaves an
// os/signal loop running for the rest of the process.
func TestMain(m *testing.M) {
	base := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 && flag.Lookup("test.fuzz").Value.String() == "" {
		if n := settledGoroutines(base); n > base {
			fmt.Fprintf(os.Stderr, "%d goroutines alive after the tests (baseline %d)\n", n, base)
			pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
			code = 1
		}
	}
	os.Exit(code)
}

// TestQueryMatchesScan proves the builder adds nothing to the scan it
// binds: a default single-predicate query returns the rows and charges
// the device-stat delta of the same Smooth Scan built straight through
// plan.Build, the harness's route, on an identically-built database.
func TestQueryMatchesScan(t *testing.T) {
	gen := func(i int64) int64 { return (i * 7919) % 5000 }
	dbA := buildDB(t, Options{}, 20_000, gen)
	dbB := buildDB(t, Options{}, 20_000, gen)

	tab := dbA.tables["t"]
	before := dbA.Stats()
	built, err := plan.Build(plan.ScanSpec{
		File: tab.File,
		Pool: dbA.pool,
		Tree: tab.Indexes["val"],
		Pred: tuple.RangePred{Col: 1, Lo: 100, Hi: 900},
		Path: plan.PathSmooth,
		Smooth: core.Config{
			MaxRegionPages: core.DefaultMaxRegionPages,
			CostParams:     optimizer.CostParams(dbA.dev, tab.File),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := built.Op.Open(); err != nil {
		t.Fatal(err)
	}
	var gotA [][]int64
	for b := tuple.NewBatchFor(tab.File.Schema(), 1024); ; {
		n, err := built.Op.NextBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		for i := range n {
			gotA = append(gotA, slices.Clone(b.Row(i).Ints()))
		}
	}
	if err := built.Op.Close(); err != nil {
		t.Fatal(err)
	}

	rowsB := mustRun(t, dbB.Query("t").Where("val", Between(100, 900)))
	gotB := collect(t, rowsB)

	if len(gotA) != len(gotB) {
		t.Fatalf("plan.Build returned %d rows, Query %d", len(gotA), len(gotB))
	}
	for i := range gotA {
		for c := range gotA[i] {
			if gotA[i][c] != gotB[i][c] {
				t.Fatalf("row %d differs: %v vs %v", i, gotA[i], gotB[i])
			}
		}
	}
	if a, b := dbA.Stats(), dbB.Stats(); a != b {
		t.Errorf("device stats differ:\nplan.Build %+v\nQuery      %+v", a, b)
	}
	if a, b := dbA.Stats().Sub(before), rowsB.ExecStats().IO; a != b {
		t.Errorf("per-query IO deltas differ: %+v vs %+v", a, b)
	}
}

// TestQueryResidualPushdown checks a multi-predicate conjunction: the
// result equals filtering the single-predicate result by hand, and the
// Explain plan shows the residual inside the scan.
func TestQueryResidualPushdown(t *testing.T) {
	db := buildWideDB(t, 30_000, 10_000, 50)

	base := collect(t, mustRun(t, db.Query("t").Where("val", Between(1000, 4000))))
	var want [][]int64
	for _, r := range base {
		if r[2] >= 5 && r[2] < 20 && r[3] < 500 {
			want = append(want, r)
		}
	}

	q := db.Query("t").
		Where("val", Between(1000, 4000)).
		Where("cat", Between(5, 20)).
		Where("payload", Lt(500))
	plan, err := q.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if plan.AccessPath != PathSmooth {
		t.Errorf("access path = %v, want smooth", plan.AccessPath)
	}
	got := collect(t, mustRun(t, q))
	if len(got) != len(want) {
		t.Fatalf("conjunction returned %d rows, want %d", len(got), len(want))
	}
	// Residual pushdown changes which pages count as "dense" for the
	// morphing policy, so the unordered emission order may differ from
	// the plain scan's; compare as sets.
	sortRows(got)
	sortRows(want)
	if !rowsEqual(got, want) {
		t.Fatal("conjunction rows differ from hand-filtered rows")
	}
}

// TestQueryDrivingIndexChoice: with statistics, the optimizer drives
// the scan by the more selective indexed conjunct.
func TestQueryDrivingIndexChoice(t *testing.T) {
	db := buildWideDB(t, 30_000, 10_000, 50)
	if err := db.Analyze("t", "val", "cat"); err != nil {
		t.Fatal(err)
	}

	// val window ~30%, cat equality ~2%: cat must drive.
	plan, err := db.Query("t").
		Where("val", Between(1000, 4000)).
		Where("cat", Eq(7)).
		Explain()
	if err != nil {
		t.Fatal(err)
	}
	leaf := plan.Root
	for len(leaf.Children) > 0 {
		leaf = leaf.Children[0]
	}
	if want := "cat=7"; !containsStr(leaf.Detail, want) {
		t.Errorf("leaf detail %q does not show driving pred %q", leaf.Detail, want)
	}
	if !containsStr(leaf.Detail, "residual") || !containsStr(leaf.Detail, "val") {
		t.Errorf("leaf detail %q does not show val as residual", leaf.Detail)
	}

	// Flip the widths: now val must drive.
	plan, err = db.Query("t").
		Where("val", Between(1000, 1050)).
		Where("cat", Between(5, 45)).
		Explain()
	if err != nil {
		t.Fatal(err)
	}
	leaf = plan.Root
	for len(leaf.Children) > 0 {
		leaf = leaf.Children[0]
	}
	if want := "1000<=val<1050"; !containsStr(leaf.Detail, want) {
		t.Errorf("leaf detail %q does not show driving pred %q", leaf.Detail, want)
	}
}

func containsStr(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexStr(s, sub) >= 0)
}

func indexStr(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// TestQueryEmptyPredicateSet: no Where at all compiles to a full scan
// returning every row.
func TestQueryEmptyPredicateSet(t *testing.T) {
	db := buildDB(t, Options{}, 5_000, func(i int64) int64 { return i % 100 })
	plan, err := db.Query("t").Explain()
	if err != nil {
		t.Fatal(err)
	}
	if plan.AccessPath != PathFull {
		t.Errorf("empty predicate set chose %v, want full scan", plan.AccessPath)
	}
	got := collect(t, mustRun(t, db.Query("t")))
	if int64(len(got)) != 5_000 {
		t.Errorf("returned %d rows, want 5000", len(got))
	}
}

// TestQueryContradiction: predicates that intersect to an empty range
// short-circuit — empty result, not a single device read.
func TestQueryContradiction(t *testing.T) {
	db := buildDB(t, Options{}, 5_000, func(i int64) int64 { return i % 100 })
	if err := db.ResetStats(); err != nil {
		t.Fatal(err)
	}
	q := db.Query("t").Where("val", Gt(80)).Where("val", Lt(20))
	plan, err := q.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Root.Name != "empty" {
		t.Errorf("plan root = %q, want empty", plan.Root.Name)
	}
	rows := mustRun(t, q)
	if got := collect(t, rows); len(got) != 0 {
		t.Errorf("contradictory query returned %d rows", len(got))
	}
	if st := db.Stats(); st.PagesRead != 0 || st.Requests != 0 {
		t.Errorf("contradictory query touched the device: %+v", st)
	}
	if io := rows.ExecStats().IO; io.Time() != 0 {
		t.Errorf("contradictory query charged %v cost units", io.Time())
	}
}

// TestQueryDuplicateWhereIntersects: two Where calls on one column act
// as their intersection.
func TestQueryDuplicateWhereIntersects(t *testing.T) {
	db := buildDB(t, Options{}, 10_000, func(i int64) int64 { return (i * 31) % 1000 })
	want := collect(t, mustRun(t, db.Query("t").Where("val", Between(100, 300))))
	got := collect(t, mustRun(t, db.Query("t").Where("val", Ge(100)).Where("val", Lt(300))))
	if len(got) != len(want) {
		t.Fatalf("intersection returned %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i][0] != want[i][0] || got[i][1] != want[i][1] {
			t.Fatalf("row %d differs: %v vs %v", i, got[i], want[i])
		}
	}
}

// TestQueryLimit covers Limit(0) (no device reads) and a plain limit.
func TestQueryLimit(t *testing.T) {
	db := buildDB(t, Options{}, 10_000, func(i int64) int64 { return i % 500 })
	if err := db.ResetStats(); err != nil {
		t.Fatal(err)
	}
	rows := mustRun(t, db.Query("t").Where("val", Between(0, 500)).Limit(0))
	if got := collect(t, rows); len(got) != 0 {
		t.Errorf("Limit(0) returned %d rows", len(got))
	}
	if st := db.Stats(); st.PagesRead != 0 {
		t.Errorf("Limit(0) read %d pages", st.PagesRead)
	}

	got := collect(t, mustRun(t, db.Query("t").Where("val", Between(0, 500)).Limit(7)))
	if len(got) != 7 {
		t.Errorf("Limit(7) returned %d rows", len(got))
	}
	if _, err := db.Query("t").Limit(-1).Run(context.Background()); err == nil {
		t.Error("negative limit accepted")
	}
}

// TestQueryGroupByAggregates checks GroupBy with Sum/Count against a
// hand computation, plus group-key ordering and Agg renaming.
func TestQueryGroupByAggregates(t *testing.T) {
	db := buildWideDB(t, 20_000, 1_000, 8)
	base := collect(t, mustRun(t, db.Query("t").Where("val", Between(0, 400))))
	wantSum := map[int64]int64{}
	wantCount := map[int64]int64{}
	for _, r := range base {
		wantSum[r[2]] += r[3]
		wantCount[r[2]]++
	}

	rows := mustRun(t, db.Query("t").
		Where("val", Between(0, 400)).
		Select("cat", "payload").
		GroupBy("cat", Sum("payload"), Count().As("n")).
		OrderBy("cat"))
	var lastCat int64 = -1
	groups := 0
	for rows.Next() {
		cat, err := rows.Column("cat")
		if err != nil {
			t.Fatal(err)
		}
		sum, _ := rows.Col("sum_payload")
		n, _ := rows.Col("n")
		if cat <= lastCat {
			t.Errorf("group keys not ascending: %d after %d", cat, lastCat)
		}
		lastCat = cat
		if sum != wantSum[cat] || n != wantCount[cat] {
			t.Errorf("cat %d: sum=%d count=%d, want sum=%d count=%d", cat, sum, n, wantSum[cat], wantCount[cat])
		}
		groups++
	}
	if rows.Err() != nil {
		t.Fatal(rows.Err())
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if groups != len(wantSum) {
		t.Errorf("got %d groups, want %d", groups, len(wantSum))
	}
}

// TestQueryOrderBy: ordering by the driving column uses the scan's
// native order (no sort operator); ordering by another column sorts.
func TestQueryOrderBy(t *testing.T) {
	db := buildWideDB(t, 20_000, 1_000, 8)

	q := db.Query("t").Where("val", Between(100, 300)).OrderBy("val")
	plan, err := q.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Root.Name == "sort" {
		t.Errorf("ORDER BY driving column added a sort:\n%s", plan)
	}
	got := collect(t, mustRun(t, q))
	for i := 1; i < len(got); i++ {
		if got[i][1] < got[i-1][1] {
			t.Fatalf("output not ordered by val at row %d", i)
		}
	}

	q2 := db.Query("t").Where("val", Between(100, 300)).OrderBy("id")
	plan2, err := q2.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if plan2.Root.Name != "sort" {
		t.Errorf("ORDER BY non-driving column did not sort:\n%s", plan2)
	}
	got2 := collect(t, mustRun(t, q2))
	if len(got2) != len(got) {
		t.Fatalf("sorted query returned %d rows, want %d", len(got2), len(got))
	}
	for i := 1; i < len(got2); i++ {
		if got2[i][0] < got2[i-1][0] {
			t.Fatalf("output not ordered by id at row %d", i)
		}
	}
}

// TestQuerySelectAndColumnMissReasons: Select narrows the output and
// Rows.Column distinguishes "unknown" from "projected away".
func TestQuerySelectAndColumnMissReasons(t *testing.T) {
	db := buildWideDB(t, 5_000, 1_000, 8)
	rows := mustRun(t, db.Query("t").Where("val", Between(0, 100)).Select("id", "val"))
	defer rows.Close()
	if !rows.Next() {
		t.Fatal("no rows")
	}
	if got := rows.Row(); len(got) != 2 {
		t.Fatalf("projected row has %d columns, want 2", len(got))
	}
	if _, ok := rows.Col("cat"); ok {
		t.Error("Col found a projected-away column")
	}
	if _, err := rows.Column("cat"); !errors.Is(err, ErrNotSelected) {
		t.Errorf("Column(cat) = %v, want ErrNotSelected", err)
	}
	if _, err := rows.Column("nope"); !errors.Is(err, ErrUnknownColumn) {
		t.Errorf("Column(nope) = %v, want ErrUnknownColumn", err)
	}
	if v, err := rows.Column("val"); err != nil || v < 0 || v >= 100 {
		t.Errorf("Column(val) = %d, %v", v, err)
	}
}

// TestQueryExplainTouchesNoDevice: Explain is pure planning.
func TestQueryExplainTouchesNoDevice(t *testing.T) {
	db := buildWideDB(t, 10_000, 1_000, 8)
	if err := db.ResetStats(); err != nil {
		t.Fatal(err)
	}
	q := db.Query("t").Where("val", Between(0, 100)).Where("cat", Eq(3)).
		GroupBy("cat", Count()).OrderBy("cat").Limit(5)
	if _, err := q.Explain(); err != nil {
		t.Fatal(err)
	}
	if st := db.Stats(); st.PagesRead != 0 || st.Requests != 0 {
		t.Errorf("Explain touched the device: %+v", st)
	}
}

// TestExplainRefusesWhatRunRefuses: Smooth Scan options that no Run
// can execute are refused at bind time, so Query.Explain, Stmt.Explain
// and Run fail with the same error on every engine instead of Explain
// rendering a plan that cannot run.
func TestExplainRefusesWhatRunRefuses(t *testing.T) {
	ctx := context.Background()
	bad := []struct {
		name string
		opts ScanOptions
	}{
		{"max-region", ScanOptions{MaxRegionPages: -1}},
		{"policy", ScanOptions{Policy: Policy(9)}},
		{"trigger", ScanOptions{Trigger: Trigger(9)}},
		{"negative-estimate", ScanOptions{Trigger: OptimizerDriven, EstimatedRows: -5}},
		{"sla-without-bound", ScanOptions{Trigger: SLADriven}},
	}
	db, sdb := buildGridUnsharded(t), buildGridSharded(t, 2, "hash")
	engines := []struct {
		name    string
		query   func(table string) *Query
		prepare func(q *Query) (*Stmt, error)
	}{
		{"db", db.Query, db.Prepare},
		{"sharded", sdb.Query, sdb.Prepare},
	}
	for _, e := range engines {
		for _, c := range bad {
			t.Run(e.name+"/"+c.name, func(t *testing.T) {
				q := e.query("t").Where("val", Between(100, 900)).WithOptions(c.opts)
				_, explainErr := q.Explain()
				if explainErr == nil {
					t.Fatal("Query.Explain accepted options Run refuses")
				}
				st, err := e.prepare(e.query("t").Where("val", Between(Param("lo"), Param("hi"))).WithOptions(c.opts))
				if err != nil {
					t.Fatal(err)
				}
				_, stmtErr := st.Explain(Bind{"lo": 100, "hi": 900})
				rows, runErr := q.Run(ctx)
				if runErr == nil {
					rows.Close()
					t.Fatal("Run accepted the options")
				}
				if stmtErr == nil || stmtErr.Error() != explainErr.Error() || runErr.Error() != explainErr.Error() {
					t.Fatalf("errors differ:\n Query.Explain: %v\n Stmt.Explain:  %v\n Run:           %v", explainErr, stmtErr, runErr)
				}
			})
		}
	}
}

// TestQueryAutoPath: PathAuto still flows through the optimizer and
// reports its choice.
func TestQueryAutoPath(t *testing.T) {
	db := buildDB(t, Options{}, 20_000, func(i int64) int64 { return i % 1000 })
	if err := db.Analyze("t", "val"); err != nil {
		t.Fatal(err)
	}
	rows := mustRun(t, db.Query("t").Where("val", Between(0, 1000)).
		WithOptions(ScanOptions{Path: PathAuto}))
	path, est, ok := rows.Choice()
	if !ok {
		t.Fatal("no optimizer choice recorded")
	}
	if path != "full-scan" {
		t.Errorf("100%% selectivity chose %s, want full-scan", path)
	}
	if est <= 0 {
		t.Errorf("estimate = %d", est)
	}
	collect(t, rows)
}

// TestQueryExecStatsOperators: per-operator counters line up with the
// plan stages and the returned row count.
func TestQueryExecStatsOperators(t *testing.T) {
	db := buildWideDB(t, 20_000, 1_000, 8)
	rows := mustRun(t, db.Query("t").
		Where("val", Between(0, 200)).
		Where("cat", Lt(4)).
		Select("id", "cat").
		Limit(50))
	got := collect(t, rows)
	st := rows.ExecStats()
	if st.RowsReturned != int64(len(got)) {
		t.Errorf("RowsReturned = %d, want %d", st.RowsReturned, len(got))
	}
	if len(st.Operators) < 2 {
		t.Fatalf("operators = %+v", st.Operators)
	}
	last := st.Operators[len(st.Operators)-1]
	if last.Name != "limit" || last.Rows != int64(len(got)) {
		t.Errorf("root operator %+v, want limit with %d rows", last, len(got))
	}
	if !st.HasSmooth {
		t.Error("smooth stats missing")
	}
	if st.IO.PagesRead == 0 {
		t.Error("IO delta empty")
	}
}

// TestQueryUnindexedFallsBackToFullScan: the builder's default path
// degrades to a full scan when the driving column has no index (a
// forced index path keeps the strict error).
func TestQueryUnindexedFallsBackToFullScan(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	tb, _ := db.CreateTable("u", "a", "b")
	for i := int64(0); i < 2_000; i++ {
		tb.Append(i, i%10)
	}
	tb.Finish()

	plan, err := db.Query("u").Where("b", Eq(3)).Explain()
	if err != nil {
		t.Fatal(err)
	}
	if plan.AccessPath != PathFull {
		t.Errorf("unindexed builder query chose %v, want full", plan.AccessPath)
	}
	got := collect(t, mustRun(t, db.Query("u").Where("b", Eq(3))))
	if len(got) != 200 {
		t.Errorf("returned %d rows, want 200", len(got))
	}
	if _, err := scanRange(db, "u", "b", 3, 4, ScanOptions{Path: PathIndex}); !errors.Is(err, ErrNoIndex) {
		t.Errorf("forced index scan without index = %v, want ErrNoIndex", err)
	}
}

// TestQueryBuilderErrors: builder mistakes surface from Run/Explain.
func TestQueryBuilderErrors(t *testing.T) {
	db := buildWideDB(t, 1_000, 100, 8)
	cases := map[string]*Query{
		"unknown where column":  db.Query("t").Where("nope", Eq(1)),
		"unknown select column": db.Query("t").Select("nope"),
		"unknown table":         db.Query("missing").Where("val", Eq(1)),
		"group col not selected": db.Query("t").Select("id").
			GroupBy("cat", Count()),
		"order col not in output": db.Query("t").Select("id").OrderBy("val"),
		"select twice":            db.Query("t").Select("id").Select("val"),
		"groupby no aggs":         db.Query("t").GroupBy("cat"),
	}
	for name, q := range cases {
		if _, err := q.Explain(); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

// TestAccessPathSpecNumbering: the spec carries an AccessPath as its
// byte, which the bind phase reads through plan.SpecPath, so every plan
// path must come back under its own public name and PathAuto must be
// plan.SpecAuto.
func TestAccessPathSpecNumbering(t *testing.T) {
	want := map[plan.Path]AccessPath{
		plan.PathSmooth: PathSmooth,
		plan.PathFull:   PathFull,
		plan.PathIndex:  PathIndex,
		plan.PathSort:   PathSort,
		plan.PathSwitch: PathSwitch,
	}
	for p, ap := range want {
		if got := publicPath(p); got != ap {
			t.Errorf("publicPath(%s) = %s, want %s", p, got, ap)
		}
		if back, ok := plan.SpecPath(byte(ap)); !ok || back != p {
			t.Errorf("plan.SpecPath(%s) = %s, %v", ap, back, ok)
		}
	}
	if AccessPath(plan.SpecAuto) != PathAuto {
		t.Errorf("plan.SpecAuto is %s, not PathAuto", AccessPath(plan.SpecAuto))
	}
	if _, ok := plan.SpecPath(byte(PathAuto)); ok {
		t.Error("PathAuto maps to a plan path")
	}
}

// TestScanOptionsOutOfRange: the spec holds Path, Policy and Trigger in
// a byte and Parallelism in an int32. A value that does not fit is
// refused by the builder instead of being narrowed into another one
// (Path 257 once ran as PathAuto, Policy 256 as Elastic), and
// Parallelism clamps to MaxParallelism before it narrows (1<<31 once
// planned serial, 1<<32+4 four workers).
func TestScanOptionsOutOfRange(t *testing.T) {
	db := buildWideDB(t, 20_000, 1_000, 8)
	q := func() *Query { return db.Query("t").Where("val", Between(100, 400)) }
	refused := map[string]*Query{
		"Path 257":      q().WithOptions(ScanOptions{Path: 257}),
		"Path 258":      q().WithOptions(ScanOptions{Path: 258}),
		"Path -1":       q().WithOptions(ScanOptions{Path: -1}),
		"Policy 256":    q().WithOptions(ScanOptions{Policy: 256}),
		"Trigger 257":   q().WithOptions(ScanOptions{Trigger: 257}),
		"join Path 258": q().JoinWithOptions("t", "id", "id", ScanOptions{Path: 258}),
	}
	for name, q := range refused {
		if _, err := q.Explain(); err == nil || !strings.Contains(err.Error(), "must be in 0..255") {
			t.Errorf("%s: Explain error %v, want a byte-range error", name, err)
		}
	}

	workers := func(par int) int {
		p, err := q().WithOptions(ScanOptions{Path: PathFull, Parallelism: par}).Explain()
		if err != nil {
			t.Fatalf("Parallelism %d: %v", par, err)
		}
		return p.Parallelism
	}
	most, serial := workers(MaxParallelism), workers(0)
	if most <= 4 || serial != 1 {
		t.Fatalf("Parallelism %d plans %d workers and 0 plans %d; want more than 4 and 1", MaxParallelism, most, serial)
	}
	for par, want := range map[int]int{1 << 31: most, 1<<32 + 4: most, -(1 << 32) + 4: serial} {
		if got := workers(par); got != want {
			t.Errorf("Parallelism %d plans %d workers, want %d", par, got, want)
		}
	}
}

// TestScanContextPreCancelled: an already-cancelled context refuses to
// start the scan.
func TestScanContextPreCancelled(t *testing.T) {
	db := buildDB(t, Options{}, 2_000, func(i int64) int64 { return i })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancel()
	if _, err := db.Query("t").Where("val", Between(0, 100)).Run(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("Run on cancelled ctx = %v, want context.Canceled", err)
	}
}

// TestQueryCancellationSerial: cancelling mid-iteration stops a serial
// scan at the next batch refill and surfaces ctx.Err().
func TestQueryCancellationSerial(t *testing.T) {
	db := buildDB(t, Options{}, 50_000, func(i int64) int64 { return i % 100 })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows, err := db.Query("t").Where("val", Between(0, 100)).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	n := 0
	for rows.Next() {
		n++
		if n == 1 {
			cancel()
		}
	}
	if !errors.Is(rows.Err(), context.Canceled) {
		t.Errorf("Err() = %v, want context.Canceled", rows.Err())
	}
	if n >= 50_000 {
		t.Errorf("cancelled scan still returned all %d rows", n)
	}
}

// TestQueryCancellationParallelWorkersExit: cancelling a parallel scan
// whose consumer has stopped pulling releases every worker goroutine
// promptly — even the ones parked on a full exchange channel — without
// waiting for Close.
func TestQueryCancellationParallelWorkersExit(t *testing.T) {
	db := buildParallelTestDB(t, 60_000, 10_000, 7)
	runtime.GC()
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows, err := db.Query("t").Where("val", Between(0, 10_000)).
		WithOptions(ScanOptions{Path: PathFull, Parallelism: 4}).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no rows before cancel: %v", rows.Err())
	}
	// Stop consuming entirely and cancel: workers must exit on their
	// own (the consumer is not draining the exchange channels).
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

// TestQueryParallelAggregation: a parallel scan under a GroupBy
// produces the serial answer.
func TestQueryParallelAggregation(t *testing.T) {
	db := buildParallelTestDB(t, 30_000, 1_000, 3)
	want := collect(t, mustRun(t, db.Query("t").Where("val", Between(0, 500)).
		GroupBy("val", Count())))
	got := collect(t, mustRun(t, db.Query("t").Where("val", Between(0, 500)).
		WithOptions(ScanOptions{Path: PathFull, Parallelism: 4}).
		GroupBy("val", Count())))
	if len(got) != len(want) {
		t.Fatalf("parallel agg %d groups, serial %d", len(got), len(want))
	}
	for i := range got {
		if got[i][0] != want[i][0] || got[i][1] != want[i][1] {
			t.Fatalf("group %d differs: %v vs %v", i, got[i], want[i])
		}
	}
}

// TestQueryOrderedParallel: under OrderBy on the driving column, a
// Smooth Scan with Parallelism set still runs serially and delivers
// key order itself (no sort, one worker in the plan), while a parallel
// full scan's fan-in gets a posterior sort; both return the serial
// key sequence.
func TestQueryOrderedParallel(t *testing.T) {
	db := buildParallelTestDB(t, 30_000, 5_000, 11)
	want := collect(t, mustRun(t, db.Query("t").Where("val", Between(0, 5_000)).OrderBy("val")))
	for _, c := range []struct {
		opts     ScanOptions
		root     string
		parallel int
	}{
		{ScanOptions{Parallelism: 4}, "ordered", 1},
		{ScanOptions{Path: PathFull, Parallelism: 4}, "sort", 4},
	} {
		q := db.Query("t").Where("val", Between(0, 5_000)).WithOptions(c.opts).OrderBy("val")
		plan, err := q.Explain()
		if err != nil {
			t.Fatal(err)
		}
		if plan.Root.Name != c.root || plan.Parallelism != c.parallel {
			t.Errorf("%v: plan root %s x%d, want %s x%d:\n%s", c.opts.Path, plan.Root.Name, plan.Parallelism, c.root, c.parallel, plan)
		}
		got := collect(t, mustRun(t, q))
		if len(got) != len(want) {
			t.Fatalf("%v: %d rows, serial %d", c.opts.Path, len(got), len(want))
		}
		for i := range got {
			if got[i][1] != want[i][1] {
				t.Fatalf("%v: row %d key %d, serial %d", c.opts.Path, i, got[i][1], want[i][1])
			}
		}
	}
}

// TestFmtPred pins the predicate rendering Explain and the shard
// pruning notes print, literal and parameter-marked.
func TestFmtPred(t *testing.T) {
	const lo, hi = math.MinInt64, math.MaxInt64
	for _, c := range []struct {
		lo, hi       int64
		loSrc, hiSrc string
		want         string
	}{
		{lo, hi, "", "", "v=*"},
		{5, 6, "", "", "v=5"},
		{5, 5, "", "", "v=∅"},
		{lo, 7, "", "", "v<7"},
		{3, hi, "", "", "v>=3"},
		{3, 7, "", "", "3<=v<7"},
		{5, 6, "x", "x", "v=$x"},
		{5, 6, "x", "", "$x<=v<6"},
		{lo, 7, "", "y", "v<$y"},
		{3, hi, "x", "", "v>=$x"},
		{3, 7, "x", "y", "$x<=v<$y"},
		{7, 3, "x", "y", "v=∅"},
	} {
		if got := fmtPred("v", tuple.RangePred{Lo: c.lo, Hi: c.hi}, c.loSrc, c.hiSrc); got != c.want {
			t.Errorf("fmtPred(%d, %d, %q, %q) = %q, want %q", c.lo, c.hi, c.loSrc, c.hiSrc, got, c.want)
		}
	}
}
