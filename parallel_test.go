package smoothscan

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
)

// buildParallelTestDB loads a table of numRows 4-column rows: c0 a
// dense key, c1 uniform over [0, domain) and indexed, c2/c3 payload.
func buildParallelTestDB(t testing.TB, numRows, domain int64, seed int64) *DB {
	t.Helper()
	db, err := Open(Options{PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := db.CreateTable("t", "id", "val", "p1", "p2")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := int64(0); i < numRows; i++ {
		if err := tb.Append(i, rng.Int63n(domain), rng.Int63(), i*3); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("t", "val"); err != nil {
		t.Fatal(err)
	}
	return db
}

// collect drains a scan into materialised rows.
func collectScan(t testing.TB, db *DB, opts ScanOptions, lo, hi int64) [][]int64 {
	t.Helper()
	rows, err := scanRange(db, "t", "val", lo, hi, opts)
	if err != nil {
		t.Fatal(err)
	}
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

// sortRows orders rows by every column, turning a multiset comparison
// into a slice comparison.
func sortRows(rows [][]int64) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for c := range a {
			if a[c] != b[c] {
				return a[c] < b[c]
			}
		}
		return false
	})
}

func rowsEqual(a, b [][]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for c := range a[i] {
			if a[i][c] != b[i][c] {
				return false
			}
		}
	}
	return true
}

// scanWithStats drains a scan from a cold pool and returns its rows
// in delivery order with the execution's final ExecStats.
func scanWithStats(t testing.TB, db *DB, opts ScanOptions, lo, hi int64) ([][]int64, ExecStats) {
	t.Helper()
	if err := db.ColdCache(); err != nil {
		t.Fatal(err)
	}
	rows, err := scanRange(db, "t", "val", lo, hi, opts)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]int64
	for rows.Next() {
		out = append(out, slices.Clone(rows.Row()))
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	return out, rows.ExecStats()
}

// TestParallelSerialEquivalence: Smooth Scan is one serial operator,
// so Parallelism changes nothing about it. For every morphing policy,
// ordered and unordered delivery, and selectivities from 0.01% to
// 100%, P ∈ {2,4,8} must deliver the serial run's row sequence, charge
// exactly its device I/O, report exactly its morphing counters, and
// explain as a serial plan.
func TestParallelSerialEquivalence(t *testing.T) {
	const (
		numRows = 30_000
		domain  = 100_000
	)
	db := buildParallelTestDB(t, numRows, domain, 11)
	for _, policy := range []Policy{Elastic, Greedy, SelectivityIncrease} {
		for _, ordered := range []bool{false, true} {
			for _, sel := range []float64{0.0001, 0.001, 0.01, 0.1, 1.0} { // 0.01% .. 100%
				hi := int64(float64(domain) * sel)
				requireSerialSmooth(t, db, ScanOptions{Policy: policy, Ordered: ordered}, 0, hi)
			}
		}
	}
}

// requireSerialSmooth runs base at P ∈ {2,4,8} and requires each run
// to be the serial Smooth Scan: the same row sequence, device I/O and
// morphing counters as base itself, and a serial plan.
func requireSerialSmooth(t *testing.T, db *DB, base ScanOptions, lo, hi int64) {
	t.Helper()
	serial, want := scanWithStats(t, db, base, lo, hi)
	if !want.HasSmooth || want.Smooth.Produced != int64(len(serial)) {
		t.Fatalf("%+v [%d,%d): serial Smooth = %+v for %d rows", base, lo, hi, want.Smooth, len(serial))
	}
	for _, p := range []int{2, 4, 8} {
		opts := base
		opts.Parallelism = p
		got, st := scanWithStats(t, db, opts, lo, hi)
		if !rowsEqual(got, serial) {
			t.Fatalf("%+v [%d,%d): %d rows differ from the serial run's %d", opts, lo, hi, len(got), len(serial))
		}
		if st.IO != want.IO {
			t.Fatalf("%+v [%d,%d): IO differs\nserial %+v\ngot    %+v", opts, lo, hi, want.IO, st.IO)
		}
		if st.Smooth != want.Smooth {
			t.Fatalf("%+v [%d,%d): Smooth differs\nserial %+v\ngot    %+v", opts, lo, hi, want.Smooth, st.Smooth)
		}
		plan, err := db.Query("t").Where("val", Between(lo, hi)).WithOptions(opts).Explain()
		if err != nil {
			t.Fatal(err)
		}
		if plan.Parallelism != 1 {
			t.Fatalf("%+v: explains with Parallelism %d, want 1\n%s", opts, plan.Parallelism, plan)
		}
	}
}

// TestParallelFullScanEquivalence covers the PathFull shard workers.
func TestParallelFullScanEquivalence(t *testing.T) {
	db := buildParallelTestDB(t, 25_000, 10_000, 5)
	for _, sel := range []float64{0.001, 0.3, 1.0} {
		hi := int64(10_000 * sel)
		serial := collectScan(t, db, ScanOptions{Path: PathFull}, 0, hi)
		sortRows(serial)
		for _, p := range []int{2, 4, 8} {
			got := collectScan(t, db, ScanOptions{Path: PathFull, Parallelism: p}, 0, hi)
			sortRows(got)
			if !rowsEqual(got, serial) {
				t.Fatalf("full scan sel=%v P=%d: rows differ from serial", sel, p)
			}
		}
	}
}

// TestParallelCPUIsExact: the simulated CPU clock counts whole ticks,
// so a parallel full scan reports exactly the serial scan's CPUTime
// whichever way the scheduler interleaves its workers' charges. Under
// make test's -cpu 1,2,4 -count=5 the workers really interleave.
func TestParallelCPUIsExact(t *testing.T) {
	db := buildParallelTestDB(t, 25_000, 10_000, 5)
	cpu := func(p int) float64 {
		rows, err := scanRange(db, "t", "val", 0, 3000, ScanOptions{Path: PathFull, Parallelism: p})
		_, es := drainStats(t, rows, err)
		return es.IO.CPUTime
	}
	want := cpu(0)
	for _, p := range []int{2, 4, 8} {
		for run := 0; run < 5; run++ {
			if got := cpu(p); got != want {
				t.Fatalf("P=%d run %d: CPUTime %v, serial %v", p, run, got, want)
			}
		}
	}
}

// TestConcurrentSessions runs many client goroutines against one DB —
// mixed serial and parallel scans — and checks that every session sees
// exactly its own correct result. Run under -race this doubles as the
// inter-query concurrency safety test for the shared buffer pool,
// device and facade.
func TestConcurrentSessions(t *testing.T) {
	const numRows = 20_000
	db := buildParallelTestDB(t, numRows, 1000, 9)
	want := len(collectScan(t, db, ScanOptions{}, 100, 900))

	const clients = 8
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Smooth Scan ordered and unordered; full scan on 2 and 3
			// workers.
			opts := ScanOptions{Ordered: c%4 == 0}
			if p := c % 4; p >= 2 {
				opts = ScanOptions{Path: PathFull, Parallelism: p}
			}
			for iter := 0; iter < 3; iter++ {
				rows, err := scanRange(db, "t", "val", 100, 900, opts)
				if err != nil {
					errCh <- err
					return
				}
				n := 0
				for rows.Next() {
					n++
				}
				err = rows.Err()
				rows.Close()
				if err != nil {
					errCh <- err
					return
				}
				if n != want {
					errCh <- fmt.Errorf("client %d iter %d: %d rows, want %d", c, iter, n, want)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestColdCacheGuard checks that cache/stats resets are refused while
// scans are open and allowed again after the last Close.
func TestColdCacheGuard(t *testing.T) {
	db := buildParallelTestDB(t, 5_000, 1000, 1)
	rows, err := scanRange(db, "t", "val", 0, 1000, ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ColdCache(); !errors.Is(err, ErrScansOpen) {
		t.Errorf("ColdCache with open scan = %v, want ErrScansOpen", err)
	}
	if err := db.ResetStats(); !errors.Is(err, ErrScansOpen) {
		t.Errorf("ResetStats with open scan = %v, want ErrScansOpen", err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rows.Close(); err != nil { // double close is a no-op
		t.Fatal(err)
	}
	if err := db.ColdCache(); err != nil {
		t.Errorf("ColdCache after close = %v", err)
	}
	if err := db.ResetStats(); err != nil {
		t.Errorf("ResetStats after close = %v", err)
	}
}

// TestParallelEdgeConfigs covers configurations off the eager,
// unbounded happy path. Smooth Scan's non-eager triggers and spilling
// Result Cache take whole-query estimates and budgets; with
// Parallelism set they must still run exactly the serial scan. The
// parallel full scan gets a residual conjunct pushed into every shard
// worker, rows inserted after the table was loaded (new heap pages the
// shards must cover), and an empty key range.
func TestParallelEdgeConfigs(t *testing.T) {
	db := buildParallelTestDB(t, 15_000, 5_000, 21)
	full := func(p int) ScanOptions { return ScanOptions{Path: PathFull, Parallelism: p} }

	t.Run("optimizer-trigger", func(t *testing.T) {
		// A gross underestimate: the trigger fires almost at once.
		requireSerialSmooth(t, db, ScanOptions{Trigger: OptimizerDriven, EstimatedRows: 50}, 0, 5_000)
	})

	t.Run("sla-trigger", func(t *testing.T) {
		bound, err := db.FullScanCost("t")
		if err != nil {
			t.Fatal(err)
		}
		requireSerialSmooth(t, db, ScanOptions{Trigger: SLADriven, SLABound: 2 * bound}, 0, 2_500)
	})

	t.Run("spilling-result-cache", func(t *testing.T) {
		requireSerialSmooth(t, db, ScanOptions{Ordered: true, ResultCacheBudget: 16 << 10}, 0, 5_000)
	})

	t.Run("residual", func(t *testing.T) {
		run := func(p int) [][]int64 {
			got := collect(t, mustRun(t, db.Query("t").Where("val", Between(0, 2_500)).
				Where("id", Lt(6_000)).WithOptions(full(p))))
			sortRows(got)
			return got
		}
		serial, got := run(1), run(4)
		if !rowsEqual(got, serial) {
			t.Errorf("residual: parallel %d rows differ from serial %d", len(got), len(serial))
		}
	})

	t.Run("insert-delta", func(t *testing.T) {
		for i := int64(0); i < 500; i++ {
			if err := db.Insert("t", 100_000+i, i%5_000, i, i); err != nil {
				t.Fatal(err)
			}
		}
		serial := collectScan(t, db, full(1), 0, 5_000)
		sortRows(serial)
		got := collectScan(t, db, full(4), 0, 5_000)
		sortRows(got)
		if !rowsEqual(got, serial) {
			t.Error("after inserts: parallel rows differ from serial")
		}
		if len(got) != 15_500 {
			t.Errorf("drained %d rows, want 15500", len(got))
		}
	})

	t.Run("empty-range", func(t *testing.T) {
		got := collectScan(t, db, full(4), 7, 7)
		if len(got) != 0 {
			t.Errorf("empty key range produced %d rows", len(got))
		}
	})
}

// TestParallelismClamping: oversized parallelism values are clamped,
// never errors, and still produce correct results.
func TestParallelismClamping(t *testing.T) {
	db := buildParallelTestDB(t, 2_000, 100, 2)
	pages, err := db.NumPages("t")
	if err != nil {
		t.Fatal(err)
	}
	got := collectScan(t, db, ScanOptions{Path: PathFull, Parallelism: int(pages) * 10}, 0, 100)
	if len(got) != 2_000 {
		t.Errorf("clamped parallel scan produced %d rows, want 2000", len(got))
	}
}
