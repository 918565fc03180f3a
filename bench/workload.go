package main

import (
	"fmt"
	"math"
	"math/rand"

	"smoothscan"
	"smoothscan/internal/server"
	"smoothscan/ssclient"
)

// scale fixes the work of a round by count. A round replays one
// seed-derived operation list; the run repeats rounds until its
// --seconds are used up, so counts per round are exact and every
// timing is a median over rounds.
type scale struct {
	rows int
	// queries per round; the *_wire lists are prefixes of the local ones
	scanQ, scanWireQ   int
	pointQ, pointWireQ int
	// mixed_rw: cycles of [queries, inserts], Compact every Nth cycle
	mixedCycles, mixedQueries, mixedInserts, compactEvery int
	// write tail of the read-only workloads: chunks x inserts
	tailChunks, tailChunk int
}

// Rounds are sized at roughly one to two seconds on the reference box
// (2 vCPU Xeon 2.1 GHz) and hold at least 200 queries, so the
// per-round p95 has ten samples beyond it.
var fullScale = scale{
	rows:  200_000,
	scanQ: 200, scanWireQ: 120,
	pointQ: 60_000, pointWireQ: 10_000,
	mixedCycles: 8, mixedQueries: 200, mixedInserts: 100, compactEvery: 4,
	tailChunks: 20, tailChunk: 500,
}

// quickScale is the go test size: every code path, seconds in total.
var quickScale = scale{
	rows:  2_000,
	scanQ: 24, scanWireQ: 12,
	pointQ: 400, pointWireQ: 100,
	mixedCycles: 4, mixedQueries: 24, mixedInserts: 8, compactEvery: 2,
	tailChunks: 2, tailChunk: 10,
}

const (
	scanWidth   = domain / 5   // 20 % selectivity
	pointWidth  = 1            // one value, about rows/domain rows
	mixedWidth  = domain / 100 // 1 % selectivity
	mixedRanges = 64
	mixedStride = 1500 // the 64 fixed ranges start every 1500 values
	mixedZipfS  = 1.3
)

type opKind uint8

const (
	opQuery opKind = iota
	opInsert
	opCompact
)

// op is one operation of a round with the oracle's answer attached.
type op struct {
	kind   opKind
	lo, hi int64   // query: lo <= val < hi
	row    []int64 // insert
	// what the oracle says the query returns
	wantRows   int64
	wantDigest uint64
}

// Salts keep the operation streams independent of the data stream
// while staying a pure function of --seed.
const (
	saltScan  = 0x5ca1ab1e
	saltPoint = 0x0ddba11
	saltMixed = 0x7e57ab1e
	saltTail  = 0x7a11
)

func opRand(seed, salt int64) *rand.Rand { return rand.New(rand.NewSource(seed*1_000_003 + salt)) }

// rangeOps draws n queries of the given width, uniformly placed.
func rangeOps(ds *dataset, seed, salt int64, n int, width int64) []op {
	rng := opRand(seed, salt)
	ops := make([]op, n)
	for i := range ops {
		lo := rng.Int63n(domain - width + 1)
		o := op{kind: opQuery, lo: lo, hi: lo + width}
		o.wantRows, o.wantDigest = ds.expect(o.lo, o.hi, 0)
		ops[i] = o
	}
	return ops
}

// insertRow draws the k-th row inserted after the load.
func insertRow(ds *dataset, rng *rand.Rand, k int) []int64 {
	r := make([]int64, numCols)
	r[0] = int64(ds.n + k)
	for c := 1; c < numCols; c++ {
		r[c] = rng.Int63n(domain)
	}
	return r
}

// zipfCounts apportions n draws over the mixedRanges ranges in
// Zipf(mixedZipfS) proportion. The fractions a cycle cannot place are
// carried into the next, so the rare ranges take turns. How often each
// range is asked per cycle — and with it the result cache's hit ratio —
// is thus the same for every seed; the seed only orders the queries.
// Drawing the ranges at random instead moved simcost_per_query by 4 %
// from seed to seed.
func zipfCounts(n int, carry []float64) []int {
	var z float64
	for k := range carry {
		z += math.Pow(float64(k+1), -mixedZipfS)
	}
	counts := make([]int, len(carry))
	placed := 0
	for k := range carry {
		carry[k] += float64(n) * math.Pow(float64(k+1), -mixedZipfS) / z
		counts[k] = int(carry[k])
		carry[k] -= float64(counts[k])
		placed += counts[k]
	}
	for ; placed < n; placed++ {
		best := 0
		for k := range carry {
			if carry[k] > carry[best] {
				best = k
			}
		}
		counts[best]++
		carry[best]--
	}
	return counts
}

// mixedOps builds one mixed_rw round: cycles of 1 % queries over 64
// fixed ranges in Zipf proportion, shuffled, followed by single-row
// inserts, with a Compact after every compactEvery-th cycle. Each
// query's expectation counts the inserts that precede it.
func mixedOps(ds *dataset, seed int64, sc scale) []op {
	rng := opRand(seed, saltMixed)
	carry := make([]float64, mixedRanges)
	ds.extra = ds.extra[:0]
	var ops []op
	for c := 1; c <= sc.mixedCycles; c++ {
		first := len(ops)
		for k, n := range zipfCounts(sc.mixedQueries, carry) {
			lo := int64(k) * mixedStride
			for ; n > 0; n-- {
				o := op{kind: opQuery, lo: lo, hi: lo + mixedWidth}
				o.wantRows, o.wantDigest = ds.expect(o.lo, o.hi, len(ds.extra))
				ops = append(ops, o)
			}
		}
		cycle := ops[first:]
		rng.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
		for i := 0; i < sc.mixedInserts; i++ {
			r := insertRow(ds, rng, len(ds.extra))
			ds.noteInsert(r)
			ops = append(ops, op{kind: opInsert, row: r})
		}
		if c%sc.compactEvery == 0 {
			ops = append(ops, op{kind: opCompact})
		}
	}
	return ops
}

type placement uint8

const (
	placeLocal placement = iota
	placeWire
	placeSharded
)

// workload is one benchmark workload: where the engine sits, how its
// caches are sized and which operation list a round replays.
type workload struct {
	Name string
	Why  string

	place       placement
	poolPages   int
	resultCache int64
	// rebuild sets up a fresh engine before every round (mixed_rw: the
	// inserts of a round must not carry into the next).
	rebuild bool
	ops     func(ds *dataset, seed int64, sc scale) []op
}

var workloads = []workload{
	{
		Name:  "scan_local",
		Why:   "20% range scans on an in-process DB, data 5x the buffer pool: heap, tuple, core, plan and facade do the work; wire, shard and caches do none",
		place: placeLocal, poolPages: 512,
		ops: func(ds *dataset, seed int64, sc scale) []op {
			return rangeOps(ds, seed, saltScan, sc.scanQ, scanWidth)
		},
	},
	{
		Name:  "scan_wire",
		Why:   "the same scans over SSWP loopback on one connection: encode, flush, fetch windows and decode dominate; minus scan_local it is the wire's share per tuple",
		place: placeWire, poolPages: 512,
		ops: func(ds *dataset, seed int64, sc scale) []op {
			return rangeOps(ds, seed, saltScan, sc.scanWireQ, scanWidth)
		},
	},
	{
		Name:  "scan_sharded",
		Why:   "the same scans on two hash-partitioned in-process shards, nothing pruned: scatter/gather and the parallel fan-in do the extra work",
		place: placeSharded, poolPages: 256,
		ops: func(ds *dataset, seed int64, sc scale) []op {
			return rangeOps(ds, seed, saltScan, sc.scanQ, scanWidth)
		},
	},
	{
		Name:  "point_local",
		Why:   "2-row lookups with everything in the pool: per-query fixed cost (builder, plan cache, bind, open, btree seek, batch allocation); per-tuple layers idle",
		place: placeLocal, poolPages: 4096,
		ops: func(ds *dataset, seed int64, sc scale) []op {
			return rangeOps(ds, seed, saltPoint, sc.pointQ, pointWidth)
		},
	},
	{
		Name:  "point_wire",
		Why:   "the same lookups over SSWP loopback: frames and round trips per query; row encode/decode is negligible here and dominant in scan_wire",
		place: placeWire, poolPages: 4096,
		ops: func(ds *dataset, seed int64, sc scale) []op {
			return rangeOps(ds, seed, saltPoint, sc.pointWireQ, pointWidth)
		},
	},
	{
		Name:  "mixed_rw",
		Why:   "Zipf-repeated 1% queries with the result cache on, beside inserts that invalidate it and periodic Compact: p50 is cache replay, p95 re-execution over a growing index delta",
		place: placeLocal, poolPages: 4096, resultCache: 16 << 20, rebuild: true,
		ops: mixedOps,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// env is a set-up engine: queries go through the backend-neutral
// Engine, writes through the concrete type that owns the data.
type env struct {
	eng     smoothscan.Engine
	insert  func(vals []int64) error
	compact func() error

	db   *smoothscan.DB        // local and wire placements
	sdb  *smoothscan.ShardedDB // sharded placement
	srv  *server.Server        // wire placement
	conn *ssclient.Conn
}

// close releases the engine; for the wire placement it hangs up and
// waits for the server's goroutines to exit.
func (e *env) close() {
	if e.conn != nil {
		e.conn.Close()
	}
	if e.srv != nil {
		e.srv.Close()
	}
	if e.sdb != nil {
		e.sdb.Close()
	}
}

// appender is the bulk-load surface TableBuilder and
// ShardedTableBuilder share.
type appender interface {
	Append(vals ...int64) error
	Finish() error
}

func loadRows(ds *dataset, tb appender) error {
	for i := 0; i < ds.n; i++ {
		if err := tb.Append(ds.row(i)...); err != nil {
			return err
		}
	}
	return tb.Finish()
}

// buildDB loads the dataset into a fresh single-node DB through the
// public API and indexes val.
func buildDB(ds *dataset, opts smoothscan.Options) (*smoothscan.DB, error) {
	db, err := smoothscan.Open(opts)
	if err != nil {
		return nil, err
	}
	tb, err := db.CreateTable(tableName, columnNames...)
	if err != nil {
		return nil, err
	}
	if err := loadRows(ds, tb); err != nil {
		return nil, err
	}
	return db, db.CreateIndex(tableName, indexedCol)
}

// buildSharded loads the dataset hash-partitioned on val over n
// in-process shards, so no range query can prune a shard.
func buildSharded(ds *dataset, n int, opts smoothscan.Options) (*smoothscan.ShardedDB, error) {
	sdb, err := smoothscan.OpenSharded(n, opts)
	if err != nil {
		return nil, err
	}
	tb, err := sdb.CreateShardedTable(tableName, smoothscan.HashPartitioning(indexedCol, n), columnNames...)
	if err != nil {
		return nil, err
	}
	if err := loadRows(ds, tb); err != nil {
		return nil, err
	}
	return sdb, sdb.CreateIndex(tableName, indexedCol)
}

// serve puts db behind an in-process SSWP server on a loopback port
// and dials one connection to it.
func serve(db *smoothscan.DB) (*server.Server, *ssclient.Conn, error) {
	srv := server.New(db, server.Config{})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return nil, nil, err
	}
	conn, err := ssclient.Dial(srv.Addr().String())
	if err != nil {
		srv.Close()
		return nil, nil, err
	}
	return srv, conn, nil
}

// open builds the workload's engine over ds.
func (w workload) open(ds *dataset) (*env, error) {
	opts := smoothscan.Options{PoolPages: w.poolPages, ResultCacheBytes: w.resultCache}
	if w.place == placeSharded {
		sdb, err := buildSharded(ds, 2, opts)
		if err != nil {
			return nil, fmt.Errorf("build sharded: %w", err)
		}
		return &env{
			eng: sdb, sdb: sdb,
			insert:  func(v []int64) error { return sdb.Insert(tableName, v...) },
			compact: func() error { return sdb.Compact(tableName) },
		}, nil
	}
	db, err := buildDB(ds, opts)
	if err != nil {
		return nil, fmt.Errorf("build db: %w", err)
	}
	e := &env{
		eng: db, db: db,
		insert:  func(v []int64) error { return db.Insert(tableName, v...) },
		compact: func() error { return db.Compact(tableName) },
	}
	if w.place == placeWire {
		if e.srv, e.conn, err = serve(db); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		e.eng = e.conn
	}
	return e, nil
}
