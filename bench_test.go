package smoothscan

// Operator-level micro-benchmarks, the ablation studies of Smooth
// Scan's design knobs, and end-to-end benchmarks of the public API.
// The paper's exhibits are benchmarked where they live, by
// internal/harness's BenchmarkExperiments.
//
// Run them all:
//
//	go test -bench=. -benchmem
//
// The interesting output is the per-benchmark custom metrics
// (simulated cost units), not ns/op: the simulation is deterministic,
// so the simulated metrics are exactly reproducible while wall time
// varies with the host.

import (
	"context"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"smoothscan/internal/bufferpool"
	"smoothscan/internal/core"
	"smoothscan/internal/disk"
	"smoothscan/internal/exec"
	"smoothscan/internal/heap"
	"smoothscan/internal/tuple"
	"smoothscan/internal/workload"
)

// --- operator-level micro-benchmarks (wall-clock performance of the
// engine itself, complementing the simulated-cost experiments) ---

func benchTable(b *testing.B, rows int64) (*workload.Table, *disk.Device, *bufferpool.Pool) {
	b.Helper()
	dev := disk.NewDevice(disk.HDD)
	tab, err := workload.BuildMicro(dev, workload.MicroConfig{NumRows: rows, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	return tab, dev, bufferpool.New(dev, int(tab.File.NumPages()/10)+64)
}

// BenchmarkSmoothScanThroughput measures tuples/second through the
// morphing operator at 100% selectivity. Allocations are reported:
// the batched pipeline's budget is well under 0.2 allocs/tuple (see
// TestBatchedScanAllocsPerTuple).
func BenchmarkSmoothScanThroughput(b *testing.B) {
	tab, dev, pool := benchTable(b, 100_000)
	b.ReportAllocs()
	b.ResetTimer()
	var produced int64
	for i := 0; i < b.N; i++ {
		pool.Reset()
		dev.ResetStats()
		ss, err := core.NewSmoothScan(tab.File, pool, tab.Index, tab.PredForSelectivity(1), core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		n, err := exec.Count(ss)
		if err != nil {
			b.Fatal(err)
		}
		produced += n
	}
	b.ReportMetric(float64(produced)/b.Elapsed().Seconds(), "tuples/s")
}

// BenchmarkSmoothScanSelectivities reports simulated cost across the
// selectivity range in one run (sub-benchmarks per point).
func BenchmarkSmoothScanSelectivities(b *testing.B) {
	for _, pct := range []float64{0.01, 1, 20, 100} {
		b.Run(strings.ReplaceAll(strconv.FormatFloat(pct, 'f', -1, 64), ".", "_")+"pct", func(b *testing.B) {
			tab, dev, pool := benchTable(b, 100_000)
			var simTime float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pool.Reset()
				dev.ResetStats()
				ss, err := core.NewSmoothScan(tab.File, pool, tab.Index, tab.PredForSelectivity(pct/100), core.Config{})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := exec.Count(ss); err != nil {
					b.Fatal(err)
				}
				simTime = dev.Stats().Time()
			}
			b.ReportMetric(simTime, "simcost")
		})
	}
}

// BenchmarkAblationMaxRegionCap sweeps the morphing-region cap — the
// design choice the paper fixes at 2K pages (16 MB) after its own
// sensitivity analysis.
func BenchmarkAblationMaxRegionCap(b *testing.B) {
	for _, capPages := range []int64{16, 128, 1024, 2048, 8192} {
		b.Run(strconv.FormatInt(capPages, 10), func(b *testing.B) {
			tab, dev, pool := benchTable(b, 100_000)
			var simTime float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pool.Reset()
				dev.ResetStats()
				ss, err := core.NewSmoothScan(tab.File, pool, tab.Index, tab.PredForSelectivity(0.5),
					core.Config{MaxRegionPages: capPages})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := exec.Count(ss); err != nil {
					b.Fatal(err)
				}
				simTime = dev.Stats().Time()
			}
			b.ReportMetric(simTime, "simcost")
		})
	}
}

// BenchmarkAblationOrderedDelivery compares the ordered (Result
// Cache) and unordered variants — the cost of preserving the
// interesting order.
func BenchmarkAblationOrderedDelivery(b *testing.B) {
	for _, ordered := range []bool{false, true} {
		name := "unordered"
		if ordered {
			name = "ordered"
		}
		b.Run(name, func(b *testing.B) {
			tab, dev, pool := benchTable(b, 100_000)
			var simTime float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pool.Reset()
				dev.ResetStats()
				ss, err := core.NewSmoothScan(tab.File, pool, tab.Index, tab.PredForSelectivity(0.2),
					core.Config{Ordered: ordered})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := exec.Count(ss); err != nil {
					b.Fatal(err)
				}
				simTime = dev.Stats().Time()
			}
			b.ReportMetric(simTime, "simcost")
		})
	}
}

// BenchmarkBTreeSeek measures index descent + first-entry latency.
func BenchmarkBTreeSeek(b *testing.B) {
	tab, _, pool := benchTable(b, 200_000)
	rng := rand.New(rand.NewSource(9))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, err := tab.Index.SeekGE(pool, rng.Int63n(workload.DefaultDomain))
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := it.Next(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBufferPoolGet measures the page-cache hot path.
func BenchmarkBufferPoolGet(b *testing.B) {
	tab, dev, _ := benchTable(b, 50_000)
	pool := bufferpool.New(dev, 128)
	numPages := tab.File.NumPages()
	rng := rand.New(rand.NewSource(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pool.Get(tab.File.Space(), rng.Int63n(numPages)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchDecode measures raw page decoding into a reused batch:
// the innermost loop of every batched scan (no I/O, no operator
// overhead). It reports tuples/s and must stay allocation-free.
func BenchmarkBatchDecode(b *testing.B) {
	dev := disk.NewDevice(disk.HDD)
	tab, err := workload.BuildMicro(dev, workload.MicroConfig{NumRows: 10_000, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	pool := bufferpool.New(dev, int(tab.File.NumPages())+8)
	pages, err := tab.File.GetRun(pool, 0, tab.File.NumPages(), nil)
	if err != nil {
		b.Fatal(err)
	}
	batch := tuple.NewBatchFor(tab.File.Schema(), 4096)
	b.ReportAllocs()
	b.ResetTimer()
	var decoded int64
	for i := 0; i < b.N; i++ {
		batch.Reset()
		for _, page := range pages {
			count := heap.PageTupleCount(page)
			if batch.Cap()-batch.Len() < count {
				batch.Reset()
			}
			tab.File.DecodeBatch(page, 0, count, batch)
			decoded += int64(count)
		}
	}
	b.ReportMetric(float64(decoded)/b.Elapsed().Seconds(), "tuples/s")
}

// BenchmarkParallelSmoothScan measures wall-clock tuples/second of the
// partitioned parallel Smooth Scan at P = 1/2/4/8 workers, 100%
// selectivity (the decode-bound regime where intra-query parallelism
// pays). P=1 is the classic serial operator. Two custom metrics are
// reported per sub-benchmark: tuples/s (wall clock) and simcost (the
// simulated device cost of one cold scan — parallel runs may differ
// from serial only in random/sequential classification; the delta is
// visible by comparing the sub-benchmarks).
func BenchmarkParallelSmoothScan(b *testing.B) {
	const (
		numRows = 200_000
		domain  = 100_000
	)
	db, err := Open(Options{PoolPages: 2048})
	if err != nil {
		b.Fatal(err)
	}
	tb, err := db.CreateTable("t", "id", "val", "p1", "p2", "p3", "p4", "p5", "p6", "p7", "p8")
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	vals := make([]int64, 10)
	for i := int64(0); i < numRows; i++ {
		vals[0] = i
		for c := 1; c < 10; c++ {
			vals[c] = rng.Int63n(domain)
		}
		if err := tb.Append(vals...); err != nil {
			b.Fatal(err)
		}
	}
	if err := tb.Finish(); err != nil {
		b.Fatal(err)
	}
	if err := db.CreateIndex("t", "val"); err != nil {
		b.Fatal(err)
	}
	for _, p := range []int{1, 2, 4, 8} {
		b.Run("P="+strconv.Itoa(p), func(b *testing.B) {
			b.ReportAllocs()
			var produced int64
			var simTime float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := db.ColdCache(); err != nil {
					b.Fatal(err)
				}
				if err := db.ResetStats(); err != nil {
					b.Fatal(err)
				}
				rows, err := db.Scan("t", "val", 0, domain, ScanOptions{Parallelism: p})
				if err != nil {
					b.Fatal(err)
				}
				for rows.Next() {
					produced++
				}
				if rows.Err() != nil {
					b.Fatal(rows.Err())
				}
				if err := rows.Close(); err != nil {
					b.Fatal(err)
				}
				simTime = db.Stats().Time()
			}
			b.ReportMetric(float64(produced)/b.Elapsed().Seconds(), "tuples/s")
			b.ReportMetric(simTime, "simcost")
		})
	}
}

// BenchmarkShardedScan measures wall-clock tuples/second of the
// scatter-gather full scan at N = 1/2/4 range-partitioned shards,
// unordered fan-in (the shard-parallel analogue of
// BenchmarkParallelSmoothScan, through the ShardedDB facade). Two
// custom metrics per sub-benchmark: tuples/s (wall clock) and simcost
// (deterministic simulated device cost of one cold gather). On a
// single-processor runner the tuples/s ratio across N carries no
// scaling signal.
func BenchmarkShardedScan(b *testing.B) {
	const (
		numRows = 100_000
		domain  = 100_000
	)
	for _, n := range []int{1, 2, 4} {
		b.Run("N="+strconv.Itoa(n), func(b *testing.B) {
			s, err := OpenSharded(n, Options{PoolPages: 1024})
			if err != nil {
				b.Fatal(err)
			}
			part := RangePartitioning("val", EqualWidthBounds(0, domain, n)...)
			tb, err := s.CreateShardedTable("t", part, "id", "val", "p1", "p2", "p3", "p4", "p5", "p6", "p7", "p8")
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(17))
			vals := make([]int64, 10)
			for i := int64(0); i < numRows; i++ {
				vals[0] = i
				for c := 1; c < 10; c++ {
					vals[c] = rng.Int63n(domain)
				}
				if err := tb.Append(vals...); err != nil {
					b.Fatal(err)
				}
			}
			if err := tb.Finish(); err != nil {
				b.Fatal(err)
			}
			if err := s.CreateIndex("t", "val"); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			var produced int64
			var simTime float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.ColdCache(); err != nil {
					b.Fatal(err)
				}
				rows, err := s.Query("t").Where("val", Between(0, domain)).Run(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				for rows.Next() {
					produced++
				}
				if rows.Err() != nil {
					b.Fatal(rows.Err())
				}
				if err := rows.Close(); err != nil {
					b.Fatal(err)
				}
				simTime = rows.ExecStats().IO.Time()
			}
			b.ReportMetric(float64(produced)/b.Elapsed().Seconds(), "tuples/s")
			b.ReportMetric(simTime, "simcost")
		})
	}
}

// BenchmarkHashJoinThroughput measures joined tuples/second through
// the batched hash join (build 20k rows, probe 200k, ~1 match per
// probe row) over in-memory inputs — the operator's own overhead,
// without scan I/O.
func BenchmarkHashJoinThroughput(b *testing.B) {
	const buildRows, probeRows = 20_000, 200_000
	rng := rand.New(rand.NewSource(23))
	build := make([]tuple.Row, buildRows)
	for i := range build {
		build[i] = tuple.IntsRow(int64(i), rng.Int63n(1000))
	}
	probe := make([]tuple.Row, probeRows)
	for i := range probe {
		probe[i] = tuple.IntsRow(rng.Int63n(buildRows), int64(i))
	}
	left := exec.NewValues(tuple.Ints(2), probe)
	right := exec.NewValues(tuple.Ints(2), build)
	b.ReportAllocs()
	b.ResetTimer()
	var produced int64
	for i := 0; i < b.N; i++ {
		j := exec.NewHashJoinBatch(left, right, nil, 0, 0, false)
		n, err := exec.Count(j)
		if err != nil {
			b.Fatal(err)
		}
		produced += n
	}
	b.ReportMetric(float64(produced)/b.Elapsed().Seconds(), "tuples/s")
}

// BenchmarkPreparedExec measures the prepare → bind → execute
// lifecycle against ad-hoc compilation on a warm ~1%-selectivity
// two-conjunct query: "adhoc-uncached" recompiles the structure every
// query (plan cache disabled), "adhoc-cached" hits the DB-wide plan
// cache, "prepared" binds a shared Stmt, "sharded-prepared" binds one
// on a four-shard ShardedDB. The interesting metrics are
// allocs/op (the bind phase allocates a fraction of a full compile —
// see TestPreparedBindAllocs for the enforced 50% floor) and tuples/s.
func BenchmarkPreparedExec(b *testing.B) {
	// fill, build and drain take the sub-benchmark's own *testing.B:
	// Fatal must run on the goroutine of the benchmark it fails. fill
	// loads and indexes t through either engine's loader.
	fill := func(b *testing.B, tb interface {
		Append(...int64) error
		Finish() error
	}, eng interface {
		CreateIndex(table, column string) error
		Analyze(table string, columns ...string) error
	}) {
		b.Helper()
		for i := int64(0); i < 50_000; i++ {
			if err := tb.Append(i, (i*7919)%10_000, (i*104729)%50, i%1000); err != nil {
				b.Fatal(err)
			}
		}
		if err := tb.Finish(); err != nil {
			b.Fatal(err)
		}
		for _, col := range []string{"val", "cat"} {
			if err := eng.CreateIndex("t", col); err != nil {
				b.Fatal(err)
			}
		}
		if err := eng.Analyze("t", "val", "cat"); err != nil {
			b.Fatal(err)
		}
	}
	build := func(b *testing.B, planCache int) *DB {
		b.Helper()
		db, err := Open(Options{PoolPages: 2048, PlanCache: planCache})
		if err != nil {
			b.Fatal(err)
		}
		tb, err := db.CreateTable("t", "id", "val", "cat", "payload")
		if err != nil {
			b.Fatal(err)
		}
		fill(b, tb, db)
		return db
	}
	drain := func(b *testing.B, rows *Rows, err error) int64 {
		b.Helper()
		if err != nil {
			b.Fatal(err)
		}
		var n int64
		for rows.Next() {
			n++
		}
		if rows.Err() != nil {
			b.Fatal(rows.Err())
		}
		rows.Close()
		return n
	}
	const lo, hi = 4_000, 4_100
	ctx := context.Background()

	b.Run("adhoc-uncached", func(b *testing.B) {
		db := build(b, -1)
		b.ReportAllocs()
		b.ResetTimer()
		var produced int64
		for i := 0; i < b.N; i++ {
			rows, err := db.Query("t").
				Where("val", Between(lo, hi)).
				Where("cat", Lt(25)).
				Run(ctx)
			produced += drain(b, rows, err)
		}
		b.ReportMetric(float64(produced)/b.Elapsed().Seconds(), "tuples/s")
	})
	b.Run("adhoc-cached", func(b *testing.B) {
		db := build(b, 0)
		b.ReportAllocs()
		b.ResetTimer()
		var produced int64
		for i := 0; i < b.N; i++ {
			rows, err := db.Query("t").
				Where("val", Between(lo, hi)).
				Where("cat", Lt(25)).
				Run(ctx)
			produced += drain(b, rows, err)
		}
		b.ReportMetric(float64(produced)/b.Elapsed().Seconds(), "tuples/s")
	})
	b.Run("prepared", func(b *testing.B) {
		db := build(b, 0)
		stmt, err := db.Prepare(db.Query("t").
			Where("val", Between(Param("lo"), Param("hi"))).
			Where("cat", Lt(25)))
		if err != nil {
			b.Fatal(err)
		}
		bind := Bind{"lo": lo, "hi": hi}
		b.ReportAllocs()
		b.ResetTimer()
		var produced int64
		for i := 0; i < b.N; i++ {
			rows, err := stmt.Run(ctx, bind)
			produced += drain(b, rows, err)
		}
		b.ReportMetric(float64(produced)/b.Elapsed().Seconds(), "tuples/s")
	})
	b.Run("sharded-prepared", func(b *testing.B) {
		// Hash-partitioned on id, so the val range prunes nothing: every
		// Run binds the coordinator template and scatters the bound
		// query to all four shards.
		s, err := OpenSharded(4, Options{PoolPages: 512})
		if err != nil {
			b.Fatal(err)
		}
		tb, err := s.CreateShardedTable("t", HashPartitioning("id", 4), "id", "val", "cat", "payload")
		if err != nil {
			b.Fatal(err)
		}
		fill(b, tb, s)
		stmt, err := s.Prepare(s.Query("t").
			Where("val", Between(Param("lo"), Param("hi"))).
			Where("cat", Lt(25)))
		if err != nil {
			b.Fatal(err)
		}
		bind := Bind{"lo": lo, "hi": hi}
		b.ReportAllocs()
		b.ResetTimer()
		var produced int64
		for i := 0; i < b.N; i++ {
			rows, err := stmt.Run(ctx, bind)
			produced += drain(b, rows, err)
		}
		b.ReportMetric(float64(produced)/b.Elapsed().Seconds(), "tuples/s")
	})
}

// BenchmarkResultCacheHit measures serving a repeated ~2%-selectivity
// query from the semantic result-cache tier (docs/CACHING.md): the
// first execution scans and stores, every timed iteration after it is
// a pure in-memory replay of the materialized result — the tier's
// zero-device-I/O fast path.
func BenchmarkResultCacheHit(b *testing.B) {
	db, err := Open(Options{PoolPages: 2048, ResultCacheBytes: 16 << 20})
	if err != nil {
		b.Fatal(err)
	}
	tb, err := db.CreateTable("t", "id", "val", "payload")
	if err != nil {
		b.Fatal(err)
	}
	for i := int64(0); i < 50_000; i++ {
		if err := tb.Append(i, (i*7919)%10_000, i%1000); err != nil {
			b.Fatal(err)
		}
	}
	if err := tb.Finish(); err != nil {
		b.Fatal(err)
	}
	if err := db.CreateIndex("t", "val"); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	run := func() (int64, bool) {
		rows, err := db.Query("t").Where("val", Between(4_000, 4_200)).Run(ctx)
		if err != nil {
			b.Fatal(err)
		}
		var n int64
		for rows.Next() {
			n++
		}
		if rows.Err() != nil {
			b.Fatal(rows.Err())
		}
		rows.Close()
		return n, rows.ExecStats().ResultCache.Hit
	}
	run() // populate the cache
	if _, hit := run(); !hit {
		b.Fatal("repeat query was not served from the result cache")
	}
	b.ReportAllocs()
	b.ResetTimer()
	var produced int64
	for i := 0; i < b.N; i++ {
		n, hit := run()
		if !hit {
			b.Fatal("result-cache entry lost mid-benchmark")
		}
		produced += n
	}
	b.ReportMetric(float64(produced)/b.Elapsed().Seconds(), "tuples/s")
}

// BenchmarkPublicAPIScan exercises the full public stack end to end.
func BenchmarkPublicAPIScan(b *testing.B) {
	db, err := Open(Options{PoolPages: 256})
	if err != nil {
		b.Fatal(err)
	}
	tb, err := db.CreateTable("t", "id", "val")
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	for i := int64(0); i < 50_000; i++ {
		if err := tb.Append(i, rng.Int63n(10_000)); err != nil {
			b.Fatal(err)
		}
	}
	if err := tb.Finish(); err != nil {
		b.Fatal(err)
	}
	if err := db.CreateIndex("t", "val"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.ColdCache()
		rows, err := db.Scan("t", "val", 100, 200, ScanOptions{})
		if err != nil {
			b.Fatal(err)
		}
		for rows.Next() {
		}
		if rows.Err() != nil {
			b.Fatal(rows.Err())
		}
		rows.Close()
	}
}
