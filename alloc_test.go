package smoothscan_test

// Allocation-regression tests for the batched execution pipeline. The
// contract of the tentpole batching work: moving a tuple through the
// batched scan path costs (amortised) no allocation — inside the
// operator, and through the public API and the wire to the caller.
// These tests pin that down with testing.AllocsPerRun so a regression
// fails CI rather than silently eroding throughput.

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"smoothscan"
	"smoothscan/internal/bufferpool"
	"smoothscan/internal/core"
	"smoothscan/internal/disk"
	"smoothscan/internal/exec"
	"smoothscan/internal/heap"
	"smoothscan/internal/loadgen"
	"smoothscan/internal/server"
	"smoothscan/internal/tuple"
	"smoothscan/internal/workload"
)

// The public-API budgets run the benchmark's table shape at a tenth of
// its size: 20 000 rows of ten columns, the indexed column uniform over
// allocDomain, so one value matches about two rows.
const (
	allocRows   = 20_000
	allocDomain = 10_000
)

// scanFifth is the benchmark's scan: the fifth of the table whose
// indexed column falls in the first fifth of its domain.
func scanFifth(e smoothscan.Engine, domain int64) *smoothscan.Query {
	return e.Table(loadgen.Table).Where(loadgen.IndexedCol, smoothscan.Between(0, domain/5))
}

// drainRows runs b and walks the result through Next and Row, the way
// an application does, returning the number of rows delivered.
func drainRows(t *testing.T, b *smoothscan.Query) int {
	t.Helper()
	cur, err := b.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for cur.Next() {
		if len(cur.Row()) != 10 {
			t.Fatalf("row %d has %d columns", n, len(cur.Row()))
		}
		n++
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestFacadeScanAllocBudget: a 20 % range scan through
// Engine.Table(...).Where(...).Run and Next/Row costs what the operator
// tree costs to build and run — nothing per row, nothing per batch, and
// no staging of a morphing region's rows (Smooth Scan decodes them from
// the region's pages straight into the drain batch).
func TestFacadeScanAllocBudget(t *testing.T) {
	db, err := loadgen.BuildDB(allocRows, allocDomain, 3, smoothscan.Options{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	scan := func() int { return drainRows(t, scanFifth(db, allocDomain)) }
	rows := scan()
	if rows < allocRows/6 || rows > allocRows/4 {
		t.Fatalf("scan delivered %d rows, want about %d", rows, allocRows/5)
	}
	allocs := testing.AllocsPerRun(5, func() { scan() })
	t.Logf("facade scan: %.0f allocs/query for %d rows", allocs, rows)
	if allocs > 100 {
		t.Errorf("facade scan allocates %.0f times per query, budget is 100", allocs)
	}
	if raceEnabled {
		return // the byte budget counts on the pooled drain batch coming back
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		scan()
	}
	runtime.ReadMemStats(&after)
	perQuery := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("facade scan: %.0f bytes/query", perQuery)
	if perQuery > 16<<10 {
		t.Errorf("facade scan allocates %.0f bytes per query, budget is 16 KB", perQuery)
	}
}

// buildHashSharded loads the budgets' table shape over two shards,
// hash-partitioned on the indexed column as the benchmark's
// scan_sharded places it, so a range predicate prunes no shard.
func buildHashSharded(t *testing.T, opts smoothscan.Options) *smoothscan.ShardedDB {
	t.Helper()
	s, err := smoothscan.OpenSharded(2, opts)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := s.CreateShardedTable(loadgen.Table, smoothscan.HashPartitioning(loadgen.IndexedCol, 2),
		"id", loadgen.IndexedCol, "p1", "p2", "p3", "p4", "p5", "p6", "p7", "p8")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	vals := make([]int64, 10)
	for i := int64(0); i < allocRows; i++ {
		vals[0] = i
		for c := 1; c < len(vals); c++ {
			vals[c] = rng.Int63n(allocDomain)
		}
		if err := tb.Append(vals...); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateIndex(loadgen.Table, loadgen.IndexedCol); err != nil {
		t.Fatal(err)
	}
	return s
}

// bytesPerRun reports the bytes the process allocates per call of f,
// averaged over runs calls.
func bytesPerRun(runs int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestShardedScanByteBudget is TestFacadeScanAllocBudget's scan over
// two hash-partitioned shards: the gather takes its exchange batches
// from the batch pool only as its workers need them, and gives them
// back at Close (~24 KB per query). Filling the exchange's 2P+1
// ten-column 1024-row batches up front at every Open would add 400 KB.
func TestShardedScanByteBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the byte budget counts on the pooled batches coming back")
	}
	s := buildHashSharded(t, smoothscan.Options{PoolPages: 32})
	defer s.Close()
	scan := func() { drainRows(t, scanFifth(s, allocDomain)) }
	scan() // warm the plan cache and the batch pool
	perQuery := bytesPerRun(20, scan)
	t.Logf("sharded scan: %.0f bytes/query", perQuery)
	if perQuery > 64<<10 {
		t.Errorf("sharded scan allocates %.0f bytes per query, budget is 64 KB", perQuery)
	}
}

// TestShardedPointByteBudget: a prepared point lookup on the same
// two shards pays for its bind, shard plans and gather (~8 KB), not
// for exchange batches it never fills (240 KB when a one-worker gather
// filled its three up front).
func TestShardedPointByteBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the byte budget counts on the pooled batches coming back")
	}
	s := buildHashSharded(t, smoothscan.Options{PoolPages: 4096})
	defer s.Close()
	stmt, err := s.Prepare(s.Query(loadgen.Table).Where(loadgen.IndexedCol, smoothscan.Eq(smoothscan.Param("v"))))
	if err != nil {
		t.Fatal(err)
	}
	bind := smoothscan.Bind{"v": allocDomain / 2}
	point := func() {
		cur, err := stmt.Run(context.Background(), bind)
		if err != nil {
			t.Fatal(err)
		}
		for cur.Next() {
		}
		if err := cur.Close(); err != nil {
			t.Fatal(err)
		}
	}
	point() // warm the device pool, the plan cache and the batch pool
	perQuery := bytesPerRun(200, point)
	t.Logf("sharded prepared point query: %.0f bytes/query", perQuery)
	if perQuery > 16<<10 {
		t.Errorf("sharded prepared point query allocates %.0f bytes, budget is 16 KB", perQuery)
	}
}

// TestWireScanByteBudget is TestFacadeScanAllocBudget over SSWP
// loopback, server and client together: a remote stream keeps no
// per-query buffer of its own. The Conn reuses one decode buffer and
// one result schema from stream to stream, and the rows land in the
// pooled drain batch, so a query allocates about what the local scan
// does (~15 KB against ~13 KB); a fresh 1024-row decode buffer per
// stream would add 80 KB.
func TestWireScanByteBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the byte budget counts on the pooled drain batches coming back")
	}
	db, err := loadgen.BuildDB(allocRows, allocDomain, 3, smoothscan.Options{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, server.Config{})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := smoothscan.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	scan := func() int { return drainRows(t, scanFifth(conn, allocDomain)) }
	scan() // warm the session, the Conn's buffers and the pools
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		scan()
	}
	runtime.ReadMemStats(&after)
	perQuery := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("wire scan: %.0f bytes/query", perQuery)
	if perQuery > 40<<10 {
		t.Errorf("wire scan allocates %.0f bytes per query, budget is 40 KB", perQuery)
	}
}

// TestFacadePointQueryAllocBudget: a warm two-row lookup pays for its
// builder, plan-cache probe and operator tree, not for a fresh
// exec.DefaultBatchSize-row drain batch.
func TestFacadePointQueryAllocBudget(t *testing.T) {
	db, err := loadgen.BuildDB(allocRows, allocDomain, 3, smoothscan.Options{PoolPages: 4096})
	if err != nil {
		t.Fatal(err)
	}
	point := func() { drainRows(t, db.Table(loadgen.Table).Where(loadgen.IndexedCol, smoothscan.Eq(allocDomain/2))) }
	point() // warm the pool, the plan cache and the drain-batch pool
	allocs := testing.AllocsPerRun(200, point)
	t.Logf("point query: %.1f allocs/query", allocs)
	if allocs > 27 {
		t.Errorf("point query allocates %.1f times, budget is 27", allocs)
	}
	if raceEnabled {
		return // the byte budget counts on the pooled drain batch coming back
	}
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		point()
	}
	runtime.ReadMemStats(&after)
	perQuery := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("point query: %.0f bytes/query", perQuery)
	if perQuery > 8<<10 {
		t.Errorf("point query allocates %.0f bytes, budget is 8 KB", perQuery)
	}
}

// TestWireScanAllocsPerRow drains the 20 % scan through ssclient on
// loopback. AllocsPerRun counts the whole process, so the budget covers
// the server session's encode side and the client's decode side alike.
// The budget is per delivered row, so the table is five times the other
// budgets': the query's fixed cost (operator tree, a dozen control
// frames) has to amortise over the rows the way it does in the
// benchmark's scan_wire.
func TestWireScanAllocsPerRow(t *testing.T) {
	db, err := loadgen.BuildDB(5*allocRows, 5*allocDomain, 3, smoothscan.Options{PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, server.Config{})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := smoothscan.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rows := drainRows(t, scanFifth(conn, 5*allocDomain))
	if rows < allocRows*5/6 || rows > allocRows*5/4 {
		t.Fatalf("scan delivered %d rows, want about %d", rows, allocRows)
	}
	allocs := testing.AllocsPerRun(5, func() { drainRows(t, scanFifth(conn, 5*allocDomain)) })
	perRow := allocs / float64(rows)
	t.Logf("wire scan: %.0f allocs/query, %.5f allocs/row over %d rows", allocs, perRow, rows)
	if perRow > 0.02 {
		t.Errorf("wire scan allocates %.4f times per delivered row, budget is 0.02", perRow)
	}
}

// TestWireStmtAllocs: over the wire a prepared statement's Run is the
// Execute request an ad-hoc Run sends, plus its bind, and the server
// answers both through one path. So a remote Stmt.Run of a point
// lookup costs no more allocations, client and server together, than
// the same lookup built and run ad hoc.
func TestWireStmtAllocs(t *testing.T) {
	db, err := loadgen.BuildDB(allocRows, allocDomain, 3, smoothscan.Options{PoolPages: 4096})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, server.Config{})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := smoothscan.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	point := conn.Table(loadgen.Table).Where(loadgen.IndexedCol, smoothscan.Eq(smoothscan.Param("v")))
	stmt, err := conn.PrepareQuery(point)
	if err != nil {
		t.Fatal(err)
	}
	bind := smoothscan.Bind{"v": allocDomain / 2}
	adhoc := func() {
		drainRows(t, conn.Table(loadgen.Table).Where(loadgen.IndexedCol, smoothscan.Eq(allocDomain/2)))
	}
	prepared := func() {
		cur, err := stmt.Run(context.Background(), bind)
		if err != nil {
			t.Fatal(err)
		}
		for cur.Next() {
		}
		if err := cur.Close(); err != nil {
			t.Fatal(err)
		}
	}
	adhoc() // warm both shapes in the server's plan cache and pools
	prepared()
	a := testing.AllocsPerRun(200, adhoc)
	p := testing.AllocsPerRun(200, prepared)
	t.Logf("wire point query: %.1f allocs ad hoc, %.1f prepared", a, p)
	if p > a {
		t.Errorf("a remote Stmt.Run allocates %.1f times, more than the %.1f of the ad-hoc query", p, a)
	}
	if raceEnabled {
		return // the budgets count on the pooled drain batches coming back
	}
	// Absolute budgets, client and server together: the remote cursor
	// is the engine's own Rows, and the Conn keeps the stream's decode
	// buffer and result schema from one query to the next.
	if a > 69 || p > 68 {
		t.Errorf("wire point query allocates %.1f times ad hoc and %.1f prepared, budget is 69 and 68", a, p)
	}
}

// TestBatchedScanAllocsPerTuple drives a full batched Smooth Scan at
// 100% selectivity (the paper's worst case and the benchmark's
// configuration) and asserts the whole run — operator construction,
// buffer-pool refill, region morphing, batch delivery — stays at or
// under 0.2 allocations per produced tuple.
func TestBatchedScanAllocsPerTuple(t *testing.T) {
	const numRows = 20_000
	dev := disk.NewDevice(disk.HDD)
	tab, err := workload.BuildMicro(dev, workload.MicroConfig{NumRows: numRows, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pool := bufferpool.New(dev, int(tab.File.NumPages()/10)+64)
	pred := tab.PredForSelectivity(1)
	batch := tuple.NewBatchFor(tab.File.Schema(), exec.DefaultBatchSize)

	scan := func() int64 {
		pool.Reset()
		dev.ResetStats()
		ss, err := core.NewSmoothScan(tab.File, pool, tab.Index, pred, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := ss.Open(); err != nil {
			t.Fatal(err)
		}
		var n int64
		for {
			k, err := ss.NextBatch(batch)
			if err != nil {
				t.Fatal(err)
			}
			if k == 0 {
				break
			}
			n += int64(k)
		}
		ss.Close()
		return n
	}
	if got := scan(); got != numRows {
		t.Fatalf("scan produced %d tuples, want %d", got, numRows)
	}
	allocs := testing.AllocsPerRun(5, func() { scan() })
	perTuple := allocs / numRows
	t.Logf("batched scan: %.0f allocs/run, %.5f allocs/tuple", allocs, perTuple)
	if perTuple > 0.2 {
		t.Errorf("batched scan allocates %.3f per tuple, budget is 0.2", perTuple)
	}
}

// TestBatchDecodeAllocFree pins the innermost decode loop at exactly
// zero allocations once the batch is warm.
func TestBatchDecodeAllocFree(t *testing.T) {
	dev := disk.NewDevice(disk.HDD)
	tab, err := workload.BuildMicro(dev, workload.MicroConfig{NumRows: 2_000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pool := bufferpool.New(dev, int(tab.File.NumPages())+8)
	pages, err := tab.File.GetRun(pool, 0, tab.File.NumPages(), nil)
	if err != nil {
		t.Fatal(err)
	}
	batch := tuple.NewGrowableBatch(tab.File.Schema().NumCols())
	decodeAll := func() {
		batch.Reset()
		for _, page := range pages {
			tab.File.DecodeBatch(page, 0, heap.PageTupleCount(page), batch)
		}
	}
	decodeAll() // warm the growable batch
	if allocs := testing.AllocsPerRun(10, decodeAll); allocs != 0 {
		t.Errorf("page decode allocated %.1f times per run, want 0", allocs)
	}
}
