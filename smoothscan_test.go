package smoothscan

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// buildDB loads n rows (id, val) with val = gen(i) and an index on
// "val".
func buildDB(t testing.TB, opts Options, n int64, gen func(i int64) int64) *DB {
	t.Helper()
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := db.CreateTable("t", "id", "val")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < n; i++ {
		if err := tb.Append(i, gen(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("t", "val"); err != nil {
		t.Fatal(err)
	}
	db.ResetStats()
	return db
}

// scanRange runs the one-range query
// db.Query(table).Where(col, Between(lo, hi)).WithOptions(opts).
func scanRange(db *DB, table, col string, lo, hi int64, opts ScanOptions) (*Rows, error) {
	return db.Query(table).Where(col, Between(lo, hi)).WithOptions(opts).Run(context.Background())
}

func collect(t testing.TB, rows *Rows) [][]int64 {
	t.Helper()
	var out [][]int64
	for rows.Next() {
		out = append(out, slices.Clone(rows.Row()))
	}
	if rows.Err() != nil {
		t.Fatal(rows.Err())
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestWarmPoolKeepsRows: when the pool holds the table, an unordered
// Smooth Scan probes sparse pages pointer by pointer instead of
// analysing them, which moves the order it delivers rows in but not the
// rows. A 1 % query returns the same row multiset from a cold pool and
// a warm one, and with OrderBy the same sequence.
func TestWarmPoolKeepsRows(t *testing.T) {
	const n = 50_000
	db := buildDB(t, Options{PoolPages: 4096}, n, func(i int64) int64 { return (i * 7919) % n })
	for _, ordered := range []bool{false, true} {
		q := db.Query("t").Where("val", Between(1000, 1500))
		if ordered {
			q = q.OrderBy("id")
		}
		if err := db.ColdCache(); err != nil {
			t.Fatal(err)
		}
		run := func() ([][]int64, SmoothStats) {
			rows := mustRun(t, q)
			got := collect(t, rows)
			if !rows.ExecStats().HasSmooth {
				t.Fatal("the query did not run a Smooth Scan")
			}
			return got, rows.ExecStats().Smooth
		}
		cold, coldStats := run()
		warm, warmStats := run()
		if len(cold) != 500 {
			t.Fatalf("ordered=%v: %d rows, want 500", ordered, len(cold))
		}
		if warmStats.PagesFetched >= coldStats.PagesFetched {
			t.Errorf("ordered=%v: warm scan fetched %d pages, cold %d; the warm one should probe instead",
				ordered, warmStats.PagesFetched, coldStats.PagesFetched)
		}
		if !ordered {
			slices.SortFunc(cold, slices.Compare)
			slices.SortFunc(warm, slices.Compare)
		}
		if !slices.EqualFunc(cold, warm, slices.Equal) {
			t.Errorf("ordered=%v: the warm run returned other rows than the cold one", ordered)
		}
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Options{PoolPages: -5}); err == nil {
		t.Error("negative pool accepted")
	}
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if db.Stats().PagesRead != 0 {
		t.Error("fresh db has I/O")
	}
}

func TestCreateTableValidation(t *testing.T) {
	db, _ := Open(Options{})
	if _, err := db.CreateTable("t"); err == nil {
		t.Error("zero columns accepted")
	}
	if _, err := db.CreateTable("t", "a", "a"); err == nil {
		t.Error("duplicate columns accepted")
	}
	if _, err := db.CreateTable("t", "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("t", "b"); err == nil {
		t.Error("duplicate table accepted")
	}
}

func TestLoadLifecycle(t *testing.T) {
	db, _ := Open(Options{})
	tb, err := db.CreateTable("t", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Append(1); err == nil {
		t.Error("wrong arity accepted")
	}
	if err := tb.Append(1, 2); err != nil {
		t.Fatal(err)
	}
	// Querying before Finish fails.
	if _, err := db.NumRows("t"); err == nil {
		t.Error("query before Finish succeeded")
	}
	if err := tb.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := tb.Append(3, 4); err == nil {
		t.Error("append after Finish accepted")
	}
	n, err := db.NumRows("t")
	if err != nil || n != 1 {
		t.Errorf("NumRows = %d, %v", n, err)
	}
	if err := tb.Finish(); err != nil {
		t.Errorf("double Finish: %v", err)
	}
}

func TestUnknownTableAndColumn(t *testing.T) {
	db := buildDB(t, Options{}, 10, func(i int64) int64 { return i })
	if _, err := scanRange(db, "missing", "val", 0, 1, ScanOptions{}); !errors.Is(err, ErrNoTable) {
		t.Errorf("err = %v", err)
	}
	if _, err := scanRange(db, "t", "missing", 0, 1, ScanOptions{}); err == nil {
		t.Error("unknown column accepted")
	}
	if err := db.CreateIndex("t", "missing"); err == nil {
		t.Error("index on unknown column accepted")
	}
	if err := db.Analyze("t", "missing"); err == nil {
		t.Error("analyze of unknown column accepted")
	}
	// A forced index scan on a column without an index.
	if _, err := scanRange(db, "t", "id", 0, 1, ScanOptions{Path: PathIndex}); !errors.Is(err, ErrNoIndex) {
		t.Errorf("err = %v, want ErrNoIndex", err)
	}
}

func TestScanPathsAgree(t *testing.T) {
	const n = 3000
	rng := rand.New(rand.NewSource(5))
	db := buildDB(t, Options{PoolPages: 128}, n, func(i int64) int64 { return rng.Int63n(500) })
	want := map[AccessPath][][]int64{}
	paths := []AccessPath{PathFull, PathIndex, PathSort, PathSwitch, PathSmooth, PathAuto}
	for _, p := range paths {
		db.ColdCache()
		rows, err := scanRange(db, "t", "val", 100, 300, ScanOptions{Path: p})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		got := collect(t, rows)
		sort.Slice(got, func(i, j int) bool { return got[i][0] < got[j][0] })
		want[p] = got
	}
	base := want[PathFull]
	if len(base) == 0 {
		t.Fatal("no results")
	}
	for _, p := range paths[1:] {
		got := want[p]
		if len(got) != len(base) {
			t.Fatalf("%v returned %d rows, full scan %d", p, len(got), len(base))
		}
		for i := range got {
			if got[i][0] != base[i][0] || got[i][1] != base[i][1] {
				t.Fatalf("%v row %d mismatch", p, i)
			}
		}
	}
}

func TestOrderedSmoothScan(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	db := buildDB(t, Options{PoolPages: 128}, 2000, func(i int64) int64 { return rng.Int63n(400) })
	rows, err := scanRange(db, "t", "val", 0, 400, ScanOptions{Ordered: true})
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, rows)
	if len(got) != 2000 {
		t.Fatalf("rows = %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i][1] < got[i-1][1] {
			t.Fatalf("out of order at %d", i)
		}
	}
}

func TestOrderedRejectedForFullAndSwitch(t *testing.T) {
	db := buildDB(t, Options{}, 100, func(i int64) int64 { return i })
	if _, err := scanRange(db, "t", "val", 0, 10, ScanOptions{Path: PathFull, Ordered: true}); err == nil {
		t.Error("ordered full scan accepted")
	}
	if _, err := scanRange(db, "t", "val", 0, 10, ScanOptions{Path: PathSwitch, Ordered: true}); err == nil {
		t.Error("ordered switch scan accepted")
	}
}

func TestSmoothStatsExposed(t *testing.T) {
	db := buildDB(t, Options{PoolPages: 128}, 2000, func(i int64) int64 { return (i * 7919) % 2000 })
	rows, err := scanRange(db, "t", "val", 0, 2000, ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	collect(t, rows)
	st, ok := rows.SmoothStats()
	if !ok {
		t.Fatal("SmoothStats unavailable for smooth scan")
	}
	if st.Produced != 2000 || st.PagesFetched == 0 {
		t.Errorf("stats = %+v", st)
	}
	// Non-smooth scans expose no smooth stats.
	rows2, err := scanRange(db, "t", "val", 0, 10, ScanOptions{Path: PathIndex})
	if err != nil {
		t.Fatal(err)
	}
	collect(t, rows2)
	if _, ok := rows2.SmoothStats(); ok {
		t.Error("SmoothStats present for index scan")
	}
}

func TestAutoPathUsesStatistics(t *testing.T) {
	// Without Analyze the optimizer falls back to a magic-constant
	// selectivity (1/3) and picks a full scan for what is actually a
	// 0.5%-selectivity point query; with real statistics the estimate
	// collapses and an index-based path wins.
	// The table must be large enough that an index probe can beat a
	// full scan at all (a handful of random accesses vs ~400 pages).
	db := buildDB(t, Options{PoolPages: 256}, 200_000, func(i int64) int64 { return i })
	rows, err := scanRange(db, "t", "val", 0, 5, ScanOptions{Path: PathAuto})
	if err != nil {
		t.Fatal(err)
	}
	collect(t, rows)
	pathBefore, estBefore, ok := rows.Choice()
	if !ok {
		t.Fatal("no choice exposed")
	}
	if pathBefore != "full-scan" {
		t.Errorf("magic-constant estimate (%d) should force a full scan, got %s", estBefore, pathBefore)
	}
	if err := db.Analyze("t", "val"); err != nil {
		t.Fatal(err)
	}
	rows2, err := scanRange(db, "t", "val", 0, 5, ScanOptions{Path: PathAuto})
	if err != nil {
		t.Fatal(err)
	}
	collect(t, rows2)
	pathAfter, estAfter, _ := rows2.Choice()
	if estAfter*10 >= estBefore {
		t.Errorf("analyze did not shrink the estimate: before=%d after=%d", estBefore, estAfter)
	}
	if pathAfter == "full-scan" {
		t.Errorf("with true stats (est %d) the optimizer still full-scans", estAfter)
	}
}

func TestSLAScan(t *testing.T) {
	// A realistic-width table (10 columns, 80-byte tuples) so the
	// heap dominates the index, as in the paper's workloads; SLA-
	// bounded scans on tiny tables are dominated by fixed seek costs
	// the bound cannot amortise.
	db, err := Open(Options{PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := db.CreateTable("t", "c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8", "c9", "c10")
	if err != nil {
		t.Fatal(err)
	}
	const n = 50_000
	for i := int64(0); i < n; i++ {
		if err := tb.Append(i, (i*7919)%n, 0, 0, 0, 0, 0, 0, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("t", "c2"); err != nil {
		t.Fatal(err)
	}
	fs, err := db.FullScanCost("t")
	if err != nil {
		t.Fatal(err)
	}
	db.ColdCache()
	db.ResetStats()
	rows, err := scanRange(db, "t", "c2", 0, n, ScanOptions{
		Policy:   Greedy,
		Trigger:  SLADriven,
		SLABound: 2.5 * fs,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, rows)
	if len(got) != n {
		t.Fatalf("rows = %d", len(got))
	}
	if io := db.Stats().IOTime; io > 2.5*fs*1.15 {
		t.Errorf("I/O %v exceeded SLA %v", io, 2.5*fs)
	}
}

func TestColAccessor(t *testing.T) {
	db := buildDB(t, Options{}, 10, func(i int64) int64 { return i * 2 })
	rows, err := scanRange(db, "t", "val", 4, 5, ScanOptions{Path: PathIndex})
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatal("no row")
	}
	v, ok := rows.Col("val")
	if !ok || v != 4 {
		t.Errorf("Col(val) = %d, %v", v, ok)
	}
	if _, ok := rows.Col("missing"); ok {
		t.Error("unknown column resolved")
	}
	rows.Close()
}

func TestColdCacheMatters(t *testing.T) {
	db := buildDB(t, Options{PoolPages: 4096}, 3000, func(i int64) int64 { return i })
	run := func() float64 {
		db.ResetStats()
		rows, err := scanRange(db, "t", "val", 0, 3000, ScanOptions{Path: PathFull})
		if err != nil {
			t.Fatal(err)
		}
		collect(t, rows)
		return db.Stats().IOTime
	}
	cold := run()
	warm := run() // pool retains everything
	if warm != 0 {
		t.Errorf("warm run did I/O: %v", warm)
	}
	db.ColdCache()
	again := run()
	if again != cold {
		t.Errorf("cold run after ColdCache = %v, want %v", again, cold)
	}
}

// Property: for random data and ranges, the default smooth scan equals
// the full scan result.
func TestPublicAPIEquivalenceProperty(t *testing.T) {
	f := func(seed int64, loRaw, width uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		db := buildDB(t, Options{PoolPages: 64}, 800, func(i int64) int64 { return rng.Int63n(1000) })
		lo := int64(loRaw) % 1100
		hi := lo + int64(width)%400
		full, err := scanRange(db, "t", "val", lo, hi, ScanOptions{Path: PathFull})
		if err != nil {
			return false
		}
		a := collect(t, full)
		smooth, err := scanRange(db, "t", "val", lo, hi, ScanOptions{Ordered: true})
		if err != nil {
			return false
		}
		b := collect(t, smooth)
		if len(a) != len(b) {
			return false
		}
		sort.Slice(b, func(i, j int) bool { return b[i][0] < b[j][0] })
		for i := range a {
			if a[i][0] != b[i][0] || a[i][1] != b[i][1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestInsertAndCompact(t *testing.T) {
	db := buildDB(t, Options{PoolPages: 128}, 1000, func(i int64) int64 { return i % 100 })
	// Incremental inserts become visible to every access path.
	for i := int64(0); i < 50; i++ {
		if err := db.Insert("t", 1000+i, 55); err != nil {
			t.Fatal(err)
		}
	}
	count := func(path AccessPath) int {
		db.ColdCache()
		rows, err := scanRange(db, "t", "val", 55, 56, ScanOptions{Path: path})
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		n := 0
		for rows.Next() {
			n++
		}
		if rows.Err() != nil {
			t.Fatal(rows.Err())
		}
		return n
	}
	want := 10 + 50 // 10 bulk-loaded rows with val=55 plus 50 inserts
	for _, p := range []AccessPath{PathFull, PathIndex, PathSort, PathSmooth} {
		if got := count(p); got != want {
			t.Errorf("%v sees %d rows after insert, want %d", p, got, want)
		}
	}
	// Compaction preserves visibility.
	if err := db.Compact("t"); err != nil {
		t.Fatal(err)
	}
	for _, p := range []AccessPath{PathIndex, PathSmooth} {
		if got := count(p); got != want {
			t.Errorf("%v sees %d rows after compact, want %d", p, got, want)
		}
	}
	n, _ := db.NumRows("t")
	if n != 1050 {
		t.Errorf("NumRows = %d", n)
	}
	// Arity and unknown-table validation.
	if err := db.Insert("t", 1); err == nil {
		t.Error("wrong arity accepted")
	}
	if err := db.Insert("missing", 1, 2); err == nil {
		t.Error("unknown table accepted")
	}
	if err := db.Compact("missing"); err == nil {
		t.Error("compact of unknown table accepted")
	}
}

func TestInsertOrderedScanSeesDelta(t *testing.T) {
	db := buildDB(t, Options{PoolPages: 128}, 500, func(i int64) int64 { return i * 2 }) // even vals
	for i := int64(0); i < 20; i++ {
		if err := db.Insert("t", 10_000+i, i*2+1); err != nil { // odd vals interleave
			t.Fatal(err)
		}
	}
	rows, err := scanRange(db, "t", "val", 0, 40, ScanOptions{Ordered: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var prev int64 = -1
	n := 0
	for rows.Next() {
		v, _ := rows.Col("val")
		if v < prev {
			t.Fatalf("order violation: %d after %d", v, prev)
		}
		prev = v
		n++
	}
	if rows.Err() != nil {
		t.Fatal(rows.Err())
	}
	if n != 40 { // 20 even (0..38) + 20 odd (1..39)
		t.Errorf("rows = %d, want 40", n)
	}
}
