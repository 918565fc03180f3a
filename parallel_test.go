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
	rows, err := db.Scan("t", "val", lo, hi, opts)
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

// TestParallelSerialEquivalence is the property test of the parallel
// subsystem: for every morphing policy, ordered and unordered
// delivery, and selectivities from 0.01% to 100%, P ∈ {1,2,4,8}
// workers must produce exactly the rows of the serial scan — the same
// multiset always, the same sequence when Ordered — and the same
// total qualifying-tuple count.
func TestParallelSerialEquivalence(t *testing.T) {
	const (
		numRows = 30_000
		domain  = 100_000
	)
	db := buildParallelTestDB(t, numRows, domain, 11)
	selectivities := []float64{0.0001, 0.001, 0.01, 0.1, 1.0} // 0.01% .. 100%
	policies := []Policy{Elastic, Greedy, SelectivityIncrease}
	parallelisms := []int{1, 2, 4, 8}

	for _, policy := range policies {
		for _, ordered := range []bool{false, true} {
			for _, sel := range selectivities {
				hi := int64(float64(domain) * sel)
				base := ScanOptions{Policy: policy, Ordered: ordered}
				serial := collectScan(t, db, base, 0, hi)
				wantLen := len(serial)
				serialSorted := append([][]int64(nil), serial...)
				sortRows(serialSorted)

				for _, p := range parallelisms {
					opts := base
					opts.Parallelism = p
					got := collectScan(t, db, opts, 0, hi)
					if len(got) != wantLen {
						t.Fatalf("policy=%v ordered=%v sel=%v P=%d: %d rows, serial %d",
							policy, ordered, sel, p, len(got), wantLen)
					}
					if ordered {
						if !rowsEqual(got, serial) {
							t.Fatalf("policy=%v sel=%v P=%d: ordered rows differ from serial",
								policy, sel, p)
						}
						for i := 1; i < len(got); i++ {
							if got[i][1] < got[i-1][1] {
								t.Fatalf("policy=%v sel=%v P=%d: output not key-ordered at row %d",
									policy, sel, p, i)
							}
						}
					} else {
						sortRows(got)
						if !rowsEqual(got, serialSorted) {
							t.Fatalf("policy=%v sel=%v P=%d: row multiset differs from serial",
								policy, sel, p)
						}
					}
				}
			}
		}
	}
}

// TestParallelSmoothStatsAggregate checks that the aggregated operator
// stats of a parallel scan account for every produced tuple and every
// heap page exactly once.
func TestParallelSmoothStatsAggregate(t *testing.T) {
	db := buildParallelTestDB(t, 20_000, 1000, 3)
	rows, err := db.Scan("t", "val", 0, 1000, ScanOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	if rows.Err() != nil {
		t.Fatal(rows.Err())
	}
	st, ok := rows.SmoothStats()
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("no smooth stats from parallel smooth scan")
	}
	if st.Produced != int64(n) || n != 20_000 {
		t.Errorf("Produced = %d, drained %d, want 20000", st.Produced, n)
	}
	pages, err := db.NumPages("t")
	if err != nil {
		t.Fatal(err)
	}
	// 100% selectivity: every heap page analysed exactly once across
	// all workers (shards are disjoint).
	if st.PagesFetched != pages {
		t.Errorf("PagesFetched = %d, want %d (each page exactly once)", st.PagesFetched, pages)
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
		rows, err := db.Scan("t", "val", 0, 3000, ScanOptions{Path: PathFull, Parallelism: p})
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
			opts := ScanOptions{Parallelism: c % 4} // 0/1 serial, 2,3 parallel
			if c%2 == 0 {
				opts.Ordered = true
			}
			for iter := 0; iter < 3; iter++ {
				rows, err := db.Scan("t", "val", 100, 900, opts)
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
	rows, err := db.Scan("t", "val", 0, 1000, ScanOptions{})
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

// TestParallelEdgeConfigs covers configurations off the eager/unbounded
// happy path: non-eager triggers (whose per-worker trigger points
// differ from serial but whose result set must not), a spilling Result
// Cache, insert-delta entries merged by the sharded leaf iterator, and
// an empty key range.
func TestParallelEdgeConfigs(t *testing.T) {
	db := buildParallelTestDB(t, 15_000, 5_000, 21)

	t.Run("optimizer-trigger", func(t *testing.T) {
		opts := ScanOptions{Trigger: OptimizerDriven, EstimatedRows: 50} // gross underestimate
		serial := collectScan(t, db, opts, 0, 5_000)
		sortRows(serial)
		opts.Parallelism = 4
		got := collectScan(t, db, opts, 0, 5_000)
		sortRows(got)
		if !rowsEqual(got, serial) {
			t.Error("optimizer-driven trigger: parallel rows differ from serial")
		}
	})

	t.Run("sla-trigger", func(t *testing.T) {
		bound, err := db.FullScanCost("t")
		if err != nil {
			t.Fatal(err)
		}
		opts := ScanOptions{Trigger: SLADriven, SLABound: 2 * bound}
		serial := collectScan(t, db, opts, 0, 2_500)
		sortRows(serial)
		opts.Parallelism = 4
		got := collectScan(t, db, opts, 0, 2_500)
		sortRows(got)
		if !rowsEqual(got, serial) {
			t.Error("SLA-driven trigger: parallel rows differ from serial")
		}
	})

	t.Run("spilling-result-cache", func(t *testing.T) {
		opts := ScanOptions{Ordered: true, ResultCacheBudget: 16 << 10}
		serial := collectScan(t, db, opts, 0, 5_000)
		opts.Parallelism = 4
		got := collectScan(t, db, opts, 0, 5_000)
		if !rowsEqual(got, serial) {
			t.Error("spilling ordered scan: parallel rows differ from serial")
		}
	})

	t.Run("insert-delta", func(t *testing.T) {
		for i := int64(0); i < 500; i++ {
			if err := db.Insert("t", 100_000+i, i%5_000, i, i); err != nil {
				t.Fatal(err)
			}
		}
		serial := collectScan(t, db, ScanOptions{Ordered: true}, 0, 5_000)
		got := collectScan(t, db, ScanOptions{Ordered: true, Parallelism: 4}, 0, 5_000)
		if !rowsEqual(got, serial) {
			t.Error("after inserts: parallel ordered rows differ from serial")
		}
		if len(got) != 15_500 {
			t.Errorf("drained %d rows, want 15500", len(got))
		}
	})

	t.Run("empty-range", func(t *testing.T) {
		got := collectScan(t, db, ScanOptions{Parallelism: 4}, 7, 7)
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
	got := collectScan(t, db, ScanOptions{Parallelism: int(pages) * 10, Ordered: true}, 0, 100)
	if len(got) != 2_000 {
		t.Errorf("clamped parallel scan produced %d rows, want 2000", len(got))
	}
}
