package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"time"

	"smoothscan"
	"smoothscan/internal/access"
	"smoothscan/internal/btree"
	"smoothscan/internal/bufferpool"
	"smoothscan/internal/core"
	"smoothscan/internal/disk"
	"smoothscan/internal/exec"
	"smoothscan/internal/heap"
	"smoothscan/internal/plan"
	"smoothscan/internal/rescache"
	"smoothscan/internal/server"
	"smoothscan/internal/tuple"
	"smoothscan/internal/wire"
	iworkload "smoothscan/internal/workload"
	"smoothscan/ssclient"
)

// The ladder replays the scan shape (20 % ranges, pool a quarter of
// the heap) and the point shape (one-value ranges, everything pooled)
// through every layer boundary from page decode up to SSWP loopback,
// calling each layer's exported functions from here. A layer's self
// time is its rung minus the rung below — the from-outside form of
// span-minus-children — and the micro-rungs (codec, seek, caches)
// isolate single calls. Every rung replays the same leading predicates
// of the workloads' own lists, and the rungs of a shape are climbed
// round-robin — one repetition of each per cycle — so that the rungs a
// difference is taken between have seen the same phases of a noisy
// machine; differences are medians over cycles of the paired values.

// ladderRungs is how many timed rungs share the ladder's time.
const ladderRungs = 36

// rungBracket is how many calibration slices separate two repetitions.
const rungBracket = 3

type ladder struct {
	seed   int64
	sc     scale
	slice  time.Duration // time per rung
	rec    *recorder
	cal    *calibrator
	ctx    context.Context
	ds     *dataset
	scanQ  []op // leading scan-shape predicates
	pointQ []op // leading point-shape predicates
	out    map[string]float64
	fails  int64
	first  error
	tried  int64
}

func (l *ladder) fail(err error) {
	l.fails++
	if l.first == nil {
		l.first = err
	}
}

// rung is one timed step of the ladder: rep replays its predicates
// through one layer.
type rung struct {
	name string
	rep  func() error
}

// times holds each rung's repetitions, in nanoseconds at nominal
// machine speed; index i of every rung belongs to cycle i.
type times map[string][]float64

// climb runs the rungs round-robin until their joint share of the
// ladder's time is used: one cycle to warm up (pools fill, the heap
// grows to its working size), then three timed cycles at least.
// Calibration slices bracket every repetition and its time is divided
// by their speed index; each timed repetition is one span.
func (l *ladder) climb(rungs ...rung) times {
	d := make(times, len(rungs))
	budget := time.Duration(len(rungs)) * l.slice
	start := time.Now()
	before := l.cal.probe(rungBracket)
	for cycle := -1; cycle < 3 || time.Since(start) < budget; cycle++ {
		for _, r := range rungs {
			t0 := time.Now()
			err := r.rep()
			t1 := time.Now()
			after := l.cal.probe(rungBracket)
			speed := (before + after) / 2
			before = after
			l.tried++
			if err != nil {
				l.fail(fmt.Errorf("ladder %s: %w", r.name, err))
			}
			if cycle >= 0 {
				d[r.name] = append(d[r.name], float64(t1.Sub(t0).Nanoseconds())/speed)
				l.rec.add("ladder."+r.name, t0, t1, -1, -1)
			}
		}
		if l.fails > 0 {
			break
		}
	}
	return d
}

// per is the median repetition of a rung divided by n (tuples or
// queries per repetition).
func (d times) per(name string, n float64) float64 { return median(d[name]) / n }

// minus is the median over cycles of (a - b) / n: what rung a costs
// over rung b.
func (d times) minus(a, b string, n float64) float64 {
	diff := make([]float64, min(len(d[a]), len(d[b])))
	for i := range diff {
		diff[i] = (d[a][i] - d[b][i]) / n
	}
	return median(diff)
}

// over is the median over cycles of a / b.
func (d times) over(a, b string) float64 {
	ratio := make([]float64, min(len(d[a]), len(d[b])))
	for i := range ratio {
		ratio[i] = d[a][i] / d[b][i]
	}
	return median(ratio)
}

// allocKB runs f once and returns the kilobytes it allocated.
func allocKB(f func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / 1024
}

// tuplesOf sums the oracle's row counts of a predicate list.
func tuplesOf(qs []op) float64 {
	var n int64
	for _, q := range qs {
		n += q.wantRows
	}
	return float64(n)
}

func rangePred(q op) tuple.RangePred { return tuple.RangePred{Col: 1, Lo: q.lo, Hi: q.hi} }

// drainOp opens op, drains it through the batch protocol into b and
// closes it, returning the rows produced.
func drainOp(op exec.Operator, b *tuple.Batch) (int64, error) {
	if err := op.Open(); err != nil {
		return 0, err
	}
	var rows int64
	for {
		n, err := exec.NextBatch(op, b)
		if err != nil {
			op.Close()
			return rows, err
		}
		if n == 0 {
			return rows, op.Close()
		}
		rows += int64(n)
	}
}

// replayOps runs build(q) and drains it for every predicate, checking
// the row count against the oracle.
func replayOps(qs []op, b *tuple.Batch, build func(q op) (exec.Operator, error)) error {
	for _, q := range qs {
		op, err := build(q)
		if err != nil {
			return err
		}
		rows, err := drainOp(op, b)
		if err != nil {
			return err
		}
		if rows != q.wantRows {
			return fmt.Errorf("[%d,%d): %d rows, oracle says %d", q.lo, q.hi, rows, q.wantRows)
		}
	}
	return nil
}

// drainCursor pulls every row with Next and Row, as the workloads do,
// and checks count and digest against the oracle.
func drainCursor(cur smoothscan.Cursor, q op) error {
	var rows int64
	var digest uint64
	for cur.Next() {
		digest += rowHash(cur.Row())
		rows++
	}
	err := cur.Err()
	if cerr := cur.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if rows != q.wantRows || digest != q.wantDigest {
		return fmt.Errorf("[%d,%d): %d rows digest %016x, oracle says %d rows digest %016x", q.lo, q.hi, rows, digest, q.wantRows, q.wantDigest)
	}
	return nil
}

// replayEngine runs every predicate ad hoc through the backend-neutral
// Engine.
func replayEngine(ctx context.Context, eng smoothscan.Engine, qs []op) error {
	for _, q := range qs {
		cur, err := eng.Table(tableName).Where(indexedCol, smoothscan.Between(q.lo, q.hi)).Run(ctx)
		if err != nil {
			return err
		}
		if err := drainCursor(cur, q); err != nil {
			return err
		}
	}
	return nil
}

// replayRows runs every predicate through the concrete *DB builder and
// drains the *Rows with the non-allocating CopyRow.
func replayRows(ctx context.Context, db *smoothscan.DB, qs []op, opts smoothscan.ScanOptions) error {
	buf := make([]int64, numCols)
	for _, q := range qs {
		rows, err := db.Query(tableName).Where(indexedCol, smoothscan.Between(q.lo, q.hi)).WithOptions(opts).Run(ctx)
		if err != nil {
			return err
		}
		var n int64
		for rows.Next() {
			rows.CopyRow(buf)
			n++
		}
		err = rows.Err()
		if cerr := rows.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		if n != q.wantRows {
			return fmt.Errorf("[%d,%d): %d rows, oracle says %d", q.lo, q.hi, n, q.wantRows)
		}
	}
	return nil
}

// fixtures are the engines the ladder climbs: a raw
// workload.BuildMicro table for the rungs below the facade and
// public-API DBs of the same rows for those above. The scan shape's
// pools hold a quarter of the heap, the point shape's all of it. Only
// one shape's DBs are alive at a time, to keep the collector's live
// heap near the workloads' own.
type fixtures struct {
	file              *heap.File
	tree              *btree.Tree
	scanPool, allPool *bufferpool.Pool
	missPool          *bufferpool.Pool // too small to ever hit
	pages             [][]byte

	db       *smoothscan.DB        // this shape's pool size, default options
	noCache  *smoothscan.DB        // point shape: PlanCache -1
	one, two *smoothscan.ShardedDB // two: scan shape only
	srv      *server.Server        // serves db
	conn     *ssclient.Conn
}

// closeShape releases the current shape's engines.
func (f *fixtures) closeShape() {
	if f.conn != nil {
		f.conn.Close()
	}
	if f.srv != nil {
		f.srv.Close()
	}
	for _, s := range []*smoothscan.ShardedDB{f.one, f.two} {
		if s != nil {
			s.Close()
		}
	}
	f.db, f.noCache, f.one, f.two, f.srv, f.conn = nil, nil, nil, nil, nil, nil
}

// buildRaw loads the BuildMicro table and its pools.
func (l *ladder) buildRaw() (*fixtures, error) {
	f := &fixtures{}
	dev := disk.NewDevice(disk.HDD)
	tab, err := iworkload.BuildMicro(dev, iworkload.MicroConfig{NumRows: int64(l.sc.rows), Seed: l.seed})
	if err != nil {
		return f, err
	}
	f.file, f.tree = tab.File, tab.Index
	numPages := int(f.file.NumPages())
	f.scanPool = bufferpool.New(dev, numPages/4+1)
	f.allPool = bufferpool.New(dev, 2*numPages+64)
	f.missPool = bufferpool.New(dev, numPages/4+1)
	f.pages, err = f.file.GetRun(f.allPool, 0, int64(numPages), nil)
	return f, err
}

// buildShape replaces the fixtures' engines with those of one shape: a
// DB (also served over loopback), one shard over it, and either two
// shards (scan) or a DB without plan cache (point).
func (l *ladder) buildShape(f *fixtures, scan bool) error {
	f.closeShape()
	numPages := int(f.file.NumPages())
	opts := smoothscan.Options{PoolPages: 2*numPages + 64}
	if scan {
		opts.PoolPages = numPages/4 + 1
	}
	var err error
	if f.db, err = buildDB(l.ds, opts); err != nil {
		return err
	}
	if f.one, err = buildSharded(l.ds, 1, opts); err != nil {
		return err
	}
	if scan {
		f.two, err = buildSharded(l.ds, 2, smoothscan.Options{PoolPages: opts.PoolPages/2 + 1})
	} else {
		opts.PlanCache = -1
		f.noCache, err = buildDB(l.ds, opts)
	}
	if err != nil {
		return err
	}
	f.srv, f.conn, err = serve(f.db)
	return err
}

// runLadder measures every ladder metric within roughly budget and
// returns them by name, with the count of repetitions tried and
// failed.
func runLadder(seed int64, sc scale, budget time.Duration, rec *recorder) (map[string]float64, int64, int64, error) {
	l := &ladder{
		seed: seed, sc: sc, slice: budget / ladderRungs, rec: rec,
		ctx: context.Background(), out: make(map[string]float64), cal: newCalibrator(),
	}
	l.ds = generate(seed, sc.rows)
	nScan, nPoint := 8, 1000
	if sc.rows == quickScale.rows {
		nScan, nPoint = 4, 100
	}
	l.scanQ = rangeOps(l.ds, seed, saltScan, nScan, scanWidth)
	l.pointQ = rangeOps(l.ds, seed, saltPoint, nPoint, pointWidth)

	f, err := l.buildRaw()
	defer f.closeShape()
	if err == nil {
		err = l.buildShape(f, true)
	}
	if err == nil {
		l.scanShape(f)
		err = l.buildShape(f, false)
	}
	if err != nil {
		l.fail(err)
		return l.out, l.tried, l.fails, l.first
	}
	l.pointShape(f)
	l.micro(f)
	f.closeShape()
	l.writes()
	l.resultCacheTier()
	return l.out, l.tried, l.fails, l.first
}

// scanShape climbs the 20 % shape: page decode, the morphing operator
// and its alternatives, the plan tree, *Rows, Engine, one and two
// shards, the wire.
func (l *ladder) scanShape(f *fixtures) {
	o := l.out
	file, tree := f.file, f.tree
	batch := tuple.NewBatchFor(file.Schema(), exec.DefaultBatchSize)
	pred := rangePred(l.scanQ[0])
	spec := func(q op, par int) plan.ScanSpec {
		return plan.ScanSpec{File: file, Pool: f.scanPool, Tree: tree, Pred: rangePred(q), Path: plan.PathSmooth, Parallelism: par, Ctx: l.ctx}
	}
	planTree := func(q op) (exec.Operator, error) {
		sc, err := plan.Build(spec(q, 1))
		if err != nil {
			return nil, err
		}
		return sc.Op, nil
	}
	// startup opens a P-worker plan tree, takes the first batch and
	// closes: what the workers cost before a row arrives.
	startup := func(par int) func() error {
		return func() error {
			for _, q := range l.scanQ {
				sc, err := plan.Build(spec(q, par))
				if err != nil {
					return err
				}
				if err := sc.Op.Open(); err != nil {
					return err
				}
				if _, err := exec.NextBatch(sc.Op, batch); err != nil {
					sc.Op.Close()
					return err
				}
				if err := sc.Op.Close(); err != nil {
					return err
				}
			}
			return nil
		}
	}
	pool0, srv0 := f.scanPool.Stats(), f.srv.Stats()
	d := l.climb(
		rung{"heap.decode", func() error {
			for _, page := range f.pages {
				batch.Reset()
				file.DecodeBatch(page, 0, heap.PageTupleCount(page), batch)
			}
			return nil
		}},
		rung{"heap.decode_matching", func() error {
			for _, page := range f.pages {
				batch.Reset()
				file.DecodeBatchMatching(page, 0, heap.PageTupleCount(page), pred, nil, nil, batch)
			}
			return nil
		}},
		rung{"core.scan", func() error {
			return replayOps(l.scanQ, batch, func(q op) (exec.Operator, error) {
				return core.NewSmoothScan(file, f.scanPool, tree, rangePred(q), core.Config{})
			})
		}},
		rung{"access.full", func() error {
			return replayOps(l.scanQ, batch, func(q op) (exec.Operator, error) {
				return access.NewFullScan(file, f.scanPool, rangePred(q)), nil
			})
		}},
		rung{"access.index", func() error {
			return replayOps(l.scanQ, batch, func(q op) (exec.Operator, error) {
				return access.NewIndexScan(file, f.scanPool, tree, rangePred(q)), nil
			})
		}},
		rung{"plan.tree", func() error { return replayOps(l.scanQ, batch, planTree) }},
		rung{"parallel.startup_p1", startup(1)},
		rung{"parallel.startup_p2", startup(2)},
		rung{"facade.copyrow", func() error { return replayRows(l.ctx, f.db, l.scanQ, smoothscan.ScanOptions{}) }},
		rung{"parallel.p2", func() error {
			return replayRows(l.ctx, f.db, l.scanQ, smoothscan.ScanOptions{Parallelism: 2})
		}},
		rung{"facade.cursor_row", func() error { return replayEngine(l.ctx, f.db, l.scanQ) }},
		rung{"shard.n1", func() error { return replayEngine(l.ctx, f.one, l.scanQ) }},
		rung{"shard.n2", func() error { return replayEngine(l.ctx, f.two, l.scanQ) }},
		rung{"server.scan", func() error { return replayEngine(l.ctx, f.conn, l.scanQ) }},
	)
	pool1, srv1 := f.scanPool.Stats(), f.srv.Stats()

	stored, tuples := float64(file.NumTuples()), tuplesOf(l.scanQ)
	o["heap.decode_ns_per_tuple"] = d.per("heap.decode", stored)
	o["heap.decode_matching_ns_per_tuple"] = d.per("heap.decode_matching", stored)
	o["core.scan_ns_per_tuple"] = d.per("core.scan", tuples)
	o["access.full_ns_per_tuple"] = d.per("access.full", tuples)
	o["access.index_ns_per_tuple"] = d.per("access.index", tuples)
	o["plan.tree_ns_per_tuple"] = d.per("plan.tree", tuples)
	o["parallel.startup_ns"] = d.minus("parallel.startup_p2", "parallel.startup_p1", float64(len(l.scanQ)))
	o["facade.copyrow_ns_per_tuple"] = d.per("facade.copyrow", tuples)
	o["facade.self_ns_per_tuple"] = d.minus("facade.copyrow", "plan.tree", tuples)
	o["parallel.p2_speedup"] = d.over("facade.copyrow", "parallel.p2")
	o["facade.cursor_row_ns_per_tuple"] = d.per("facade.cursor_row", tuples)
	o["shard.n1_overhead_ns_per_tuple"] = d.minus("shard.n1", "facade.cursor_row", tuples)
	o["shard.n2_speedup"] = d.over("shard.n1", "shard.n2")
	o["server.overhead_ns_per_tuple"] = d.minus("server.scan", "facade.cursor_row", tuples)
	// The pool also served the full, index, plan-tree and start-up
	// rungs; all of them walk the same heap through it.
	o["bufferpool.hit_ratio"] = bufferpool.Stats{Hits: pool1.Hits - pool0.Hits, Misses: pool1.Misses - pool0.Misses}.HitRate()
	o["server.rows_per_batch"] = float64(srv1.RowsSent-srv0.RowsSent) / float64(max(srv1.BatchesSent-srv0.BatchesSent, 1))
	o["server.batches_per_query"] = float64(srv1.BatchesSent-srv0.BatchesSent) / float64(max(srv1.QueriesServed-srv0.QueriesServed, 1))
	l.scanCounters(f)
}

// pointShape climbs the one-value shape, where per-query fixed cost is
// all there is: index descent, the operator, plan construction, the
// three ways to run a query through the facade, one shard, the wire.
func (l *ladder) pointShape(f *fixtures) {
	o := l.out
	file, tree := f.file, f.tree
	batch := tuple.NewBatchFor(file.Schema(), exec.DefaultBatchSize)
	prepared, err := f.db.PrepareQuery(f.db.Table(tableName).
		Where(indexedCol, smoothscan.Between(smoothscan.Param("lo"), smoothscan.Param("hi"))))
	if err != nil {
		l.fail(err)
		return
	}
	pc0 := f.db.PlanCacheStats()
	d := l.climb(
		rung{"btree.seek", func() error {
			for _, q := range l.pointQ {
				it, err := tree.SeekGE(f.allPool, q.lo)
				if err != nil {
					return err
				}
				if _, _, err := it.Next(); err != nil {
					return err
				}
			}
			return nil
		}},
		rung{"core.point", func() error {
			return replayOps(l.pointQ, batch, func(q op) (exec.Operator, error) {
				return core.NewSmoothScan(file, f.allPool, tree, rangePred(q), core.Config{})
			})
		}},
		rung{"plan.build", func() error {
			for _, q := range l.pointQ {
				_, err := plan.Build(plan.ScanSpec{File: file, Pool: f.allPool, Tree: tree, Pred: rangePred(q), Path: plan.PathSmooth})
				if err != nil {
					return err
				}
			}
			return nil
		}},
		rung{"facade.adhoc", func() error { return replayEngine(l.ctx, f.db, l.pointQ) }},
		rung{"facade.prepared", func() error {
			for _, q := range l.pointQ {
				cur, err := prepared.Run(l.ctx, smoothscan.Bind{"lo": q.lo, "hi": q.hi})
				if err != nil {
					return err
				}
				if err := drainCursor(cur, q); err != nil {
					return err
				}
			}
			return nil
		}},
		rung{"facade.adhoc_nocache", func() error { return replayEngine(l.ctx, f.noCache, l.pointQ) }},
		rung{"shard.n1_point", func() error { return replayEngine(l.ctx, f.one, l.pointQ) }},
		rung{"server.point", func() error { return replayEngine(l.ctx, f.conn, l.pointQ) }},
	)
	pc1 := f.db.PlanCacheStats()

	n := float64(len(l.pointQ))
	o["btree.seek_ns"] = d.per("btree.seek", n)
	o["core.point_ns_per_query"] = d.per("core.point", n)
	o["plan.build_ns"] = d.per("plan.build", n)
	o["facade.adhoc_run_ns"] = d.per("facade.adhoc", n)
	o["facade.prepared_run_ns"] = d.per("facade.prepared", n)
	o["facade.adhoc_nocache_run_ns"] = d.per("facade.adhoc_nocache", n)
	o["shard.n1_overhead_ns_per_query"] = d.minus("shard.n1_point", "facade.adhoc", n)
	o["server.overhead_ns_per_query"] = d.minus("server.point", "facade.adhoc", n)
	hits, misses := pc1.Hits-pc0.Hits, pc1.Misses-pc0.Misses
	o["plan.cache_hit_ratio"] = float64(hits) / float64(max(hits+misses, 1))
	o["ssclient.alloc_kb_per_query"] = allocKB(func() {
		if err := replayEngine(l.ctx, f.conn, l.pointQ); err != nil {
			l.fail(err)
		}
	}) / n
}

// micro times single calls: the buffer pool, a leaf walk, the two
// caches, the batch codec, one frame across a loopback socket, dial
// and prepare.
func (l *ladder) micro(f *fixtures) {
	o := l.out
	file, tree := f.file, f.tree
	numPages := file.NumPages()
	rng := rand.New(rand.NewSource(l.seed))
	const calls = 4096
	nextMiss := int64(0)

	const keys = 64
	pc := plan.NewCache(128)
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("scan(%s) where %s between ?%d and ?%d order - limit - opts{smooth elastic eager}", tableName, indexedCol, i, i+1)
		pc.Put(names[i], i)
	}
	// A 1 % result, the size mixed_rw caches.
	rcRows := max(l.sc.rows/100, 1)
	rcFlat := make([]uint64, rcRows*numCols)
	rc := rescache.New(16<<20, 0)
	epochs := map[string]uint64{tableName: 7}
	epochOf := func(string) uint64 { return 7 }
	for _, k := range names {
		rc.Store(k, rcFlat, rcRows, numCols, epochs)
	}

	// One server-sized batch: the leading rows of a scan-shape result,
	// in table order.
	batchRows := max(int(o["server.rows_per_batch"]), 1)
	flat := make([]int64, 0, batchRows*numCols)
	for i := 0; i < l.ds.n && len(flat) < batchRows*numCols; i++ {
		if r := l.ds.row(i); r[1] >= l.scanQ[0].lo && r[1] < l.scanQ[0].hi {
			flat = append(flat, r...)
		}
	}
	n := len(flat) / numCols
	var enc wire.Encoder
	enc.AppendBatch(flat, n, numCols)
	payload := append([]byte(nil), enc.B...)
	buf := make([]int64, len(flat))
	const codecReps = 32
	frame, hangUp, err := loopbackFrame(payload)
	if err != nil {
		l.fail(err)
		return
	}
	defer hangUp()
	addr := f.srv.Addr().String()
	const prepares = 16 // under the session's statement-table cap, so nothing is evicted

	d := l.climb(
		// Get on a resident page, and on a pool too small to ever hit
		// (a cyclic walk over four times its capacity).
		rung{"bufferpool.get_hit", func() error {
			for i := 0; i < calls; i++ {
				if _, err := f.allPool.Get(file.Space(), rng.Int63n(numPages)); err != nil {
					return err
				}
			}
			return nil
		}},
		rung{"bufferpool.get_miss", func() error {
			for i := 0; i < calls; i++ {
				if _, err := f.missPool.Get(file.Space(), nextMiss); err != nil {
					return err
				}
				nextMiss = (nextMiss + 1) % numPages
			}
			return nil
		}},
		// Walk the leaf entries of the scan shape's key ranges.
		rung{"btree.next", func() error {
			for _, q := range l.scanQ {
				it, err := tree.SeekGE(f.allPool, q.lo)
				if err != nil {
					return err
				}
				var n int64
				for {
					e, ok, err := it.Next()
					if err != nil {
						return err
					}
					if !ok || e.Key >= q.hi {
						break
					}
					n++
				}
				if n != q.wantRows {
					return fmt.Errorf("[%d,%d): %d entries, oracle says %d", q.lo, q.hi, n, q.wantRows)
				}
			}
			return nil
		}},
		rung{"plan.cache_get", func() error {
			for i := 0; i < calls; i++ {
				if _, ok := pc.Get(names[i%keys]); !ok {
					return fmt.Errorf("plan cache lost key %d", i%keys)
				}
			}
			return nil
		}},
		rung{"rescache.lookup", func() error {
			for i := 0; i < calls; i++ {
				if _, ok := rc.Lookup(names[i%keys], epochOf); !ok {
					return fmt.Errorf("result cache lost key %d", i%keys)
				}
			}
			return nil
		}},
		rung{"rescache.store", func() error {
			for i := 0; i < calls; i++ {
				if !rc.Store(names[i%keys], rcFlat, rcRows, numCols, epochs) {
					return fmt.Errorf("result cache refused key %d", i%keys)
				}
			}
			return nil
		}},
		rung{"wire.encode", func() error {
			for i := 0; i < codecReps; i++ {
				enc.B = enc.B[:0]
				enc.AppendBatch(flat, n, numCols)
			}
			return nil
		}},
		rung{"wire.decode", func() error {
			for i := 0; i < codecReps; i++ {
				got, rows, width, err := wire.DecodeBatchPayload(payload, buf)
				if err != nil {
					return err
				}
				if rows != n || width != numCols || got[len(got)-1] != flat[len(flat)-1] {
					return fmt.Errorf("batch codec round trip: %d x %d, want %d x %d", rows, width, n, numCols)
				}
			}
			return nil
		}},
		rung{"wire.loopback_frame", func() error {
			for i := 0; i < codecReps; i++ {
				if err := frame(); err != nil {
					return err
				}
			}
			return nil
		}},
		rung{"ssclient.dial", func() error {
			c, err := ssclient.Dial(addr)
			if err != nil {
				return err
			}
			return c.Close()
		}},
		rung{"ssclient.prepare", func() error {
			for i := 0; i < prepares; i++ {
				st, err := f.conn.PrepareQuery(f.conn.Table(tableName).
					Where(indexedCol, smoothscan.Between(smoothscan.Param("lo"), smoothscan.Param("hi"))))
				if err != nil {
					return err
				}
				if err := st.Close(); err != nil {
					return err
				}
			}
			return nil
		}},
	)
	o["bufferpool.get_hit_ns"] = d.per("bufferpool.get_hit", calls)
	o["bufferpool.get_miss_ns"] = d.per("bufferpool.get_miss", calls)
	o["btree.next_ns_per_entry"] = d.per("btree.next", tuplesOf(l.scanQ))
	o["plan.cache_get_ns"] = d.per("plan.cache_get", calls)
	o["rescache.lookup_ns"] = d.per("rescache.lookup", calls)
	o["rescache.store_ns_per_row"] = d.per("rescache.store", calls*float64(rcRows))
	o["wire.encode_ns_per_tuple"] = d.per("wire.encode", codecReps*float64(n))
	o["wire.decode_ns_per_tuple"] = d.per("wire.decode", codecReps*float64(n))
	o["wire.bytes_per_tuple"] = float64(len(payload)) / float64(n)
	o["wire.loopback_frame_ns"] = d.per("wire.loopback_frame", codecReps)
	o["ssclient.dial_us"] = d.per("ssclient.dial", 1e3)
	o["ssclient.prepare_us"] = d.per("ssclient.prepare", prepares*1e3)
	o["server.residual_ns_per_tuple"] = o["server.overhead_ns_per_tuple"] - o["wire.encode_ns_per_tuple"] -
		o["wire.decode_ns_per_tuple"] - o["wire.loopback_frame_ns"]/float64(n)
}

// loopbackFrame connects a loopback TCP pair with a reader goroutine
// standing in for the peer. frame times nothing itself: it writes one
// frame of payload and returns when ReadFrame has it on the other
// side. hangUp closes the pair and waits for the reader to exit.
func loopbackFrame(payload []byte) (frame func() error, hangUp func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	peer, err := ln.Accept()
	if err != nil {
		client.Close()
		return nil, nil, err
	}
	got := make(chan error) // unbuffered: the writer waits for each frame's arrival
	go func() {
		for {
			_, p, err := wire.ReadFrame(peer)
			if err == nil && len(p) != len(payload) {
				err = fmt.Errorf("frame of %d bytes, sent %d", len(p), len(payload))
			}
			got <- err
			if err != nil {
				return
			}
		}
	}()
	frame = func() error {
		if err := wire.WriteFrame(client, wire.MsgBatch, payload); err != nil {
			return err
		}
		return <-got
	}
	// Hanging up fails the reader's ReadFrame; it reports that one last
	// error and returns.
	hangUp = func() {
		client.Close()
		<-got
		peer.Close()
	}
	return frame, hangUp, nil
}

// scanCounters makes one untimed pass over the scan shape for what is
// counted rather than timed: the morphing operator's own statistics,
// and allocation per query at the operator and across two shards.
func (l *ladder) scanCounters(f *fixtures) {
	o := l.out
	batch := tuple.NewBatchFor(f.file.Schema(), exec.DefaultBatchSize)
	nScan := float64(len(l.scanQ))
	var fetched, withRes, produced, peak int64
	o["core.alloc_kb_per_query"] = allocKB(func() {
		for _, q := range l.scanQ {
			ss, err := core.NewSmoothScan(f.file, f.scanPool, f.tree, rangePred(q), core.Config{})
			if err != nil {
				l.fail(err)
				return
			}
			if _, err := drainOp(ss, batch); err != nil {
				l.fail(err)
				return
			}
			st := ss.Stats()
			fetched += st.PagesFetched
			withRes += st.PagesWithResults
			produced += st.Produced
			peak = max(peak, st.PeakRegionPages)
		}
	}) / nScan
	o["core.pages_fetched_per_query"] = float64(fetched) / nScan
	o["core.morph_accuracy"] = float64(withRes) / float64(max(fetched, 1))
	o["core.examined_per_result"] = float64(fetched*int64(f.file.TuplesPerPage())) / float64(max(produced, 1))
	o["core.peak_region_pages"] = float64(peak)
	// The operator examines every tuple of the pages it fetches and
	// keeps one in examined_per_result of them.
	o["core.self_ns_per_tuple"] = o["core.scan_ns_per_tuple"] - o["heap.decode_matching_ns_per_tuple"]*o["core.examined_per_result"]

	var active int
	o["shard.alloc_kb_per_query"] = allocKB(func() {
		for _, q := range l.scanQ {
			rows, err := f.two.Query(tableName).Where(indexedCol, smoothscan.Between(q.lo, q.hi)).Run(l.ctx)
			if err != nil {
				l.fail(err)
				return
			}
			for rows.Next() {
			}
			if err := rows.Close(); err != nil {
				l.fail(err)
				return
			}
			for _, sh := range rows.ExecStats().Shards {
				if !sh.Pruned {
					active++
				}
			}
		}
	}) / nScan
	o["shard.active_shards_per_query"] = float64(active) / nScan
}

// writes alternates batches of single-row inserts with the Compact
// that merges them, on a fits-in-pool DB, counting the pages the
// inserts hand the device.
func (l *ladder) writes() {
	o := l.out
	db, err := buildDB(l.ds, smoothscan.Options{PoolPages: 2*(l.sc.rows/100) + 64})
	if err != nil {
		l.fail(err)
		return
	}
	rng := opRand(l.seed, saltTail)
	n := l.sc.tailChunk
	var written int64
	inserted := 0
	d := l.climb(
		rung{"facade.insert", func() error {
			io0 := db.Stats()
			for i := 0; i < n; i++ {
				if err := db.Insert(tableName, insertRow(l.ds, rng, inserted)...); err != nil {
					return err
				}
				inserted++
			}
			written += db.Stats().PagesWritten - io0.PagesWritten
			return nil
		}},
		rung{"facade.compact", func() error { return db.Compact(tableName) }},
	)
	o["facade.insert_ns"] = d.per("facade.insert", float64(n))
	o["facade.compact_ms"] = d.per("facade.compact", 1e6)
	o["disk.pages_written_per_insert"] = float64(written) / float64(max(inserted, 1))
}

// resultCacheTier replays a short mixed_rw round — the result cache
// on, Zipf-repeated queries beside invalidating inserts — and splits
// its latencies into hits and misses.
func (l *ladder) resultCacheTier() {
	o := l.out
	w, _ := findWorkload("mixed_rw")
	sc := l.sc
	sc.mixedCycles = min(sc.mixedCycles, 4)
	r := newRunner(w, sc, l.seed)
	defer r.close()
	r.splitHits = true
	start := time.Now()
	if _, err := r.setup(); err != nil {
		l.fail(err)
		return
	}
	rr := r.round()
	l.rec.add("ladder.rescache.tier", start, time.Now(), -1, -1)
	l.tried += r.attempted
	if r.failed > 0 {
		l.fails += r.failed
		if l.first == nil {
			l.first = r.firstErr
		}
	}
	o["rescache.hit_ratio"] = float64(rr.hits) / float64(max(rr.queries, 1))
	o["rescache.hit_p50_us"] = rr.hitP50
	o["rescache.miss_p50_us"] = rr.missP50
	o["rescache.invalidated_per_cycle"] = float64(r.e.db.ResultCacheStats().InvalidatedStale) / float64(sc.mixedCycles)
}
