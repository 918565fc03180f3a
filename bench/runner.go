package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"smoothscan"
)

// runner drives one workload as a closed loop: one goroutine, one
// connection where there is a wire, the next operation issued only
// when the previous one has been drained, checked and closed.
type runner struct {
	w    workload
	sc   scale
	seed int64
	ctx  context.Context

	ds  *dataset
	ops []op
	e   *env
	rec *recorder // nil: spans off
	cal *calibrator

	// per-round latency samples in microseconds, reused across rounds
	lat, first, ins  []float64
	hitLat, missLat  []float64
	splitHits        bool // also keep result-cache hit and miss latencies apart
	prefixN          int  // queries folded into roundResult.prefixDigest
	nextQuery        int32
	tracedDrainNs    int64
	tracedDrainTuple int64

	attempted, failed int64
	firstErr          error
}

func newRunner(w workload, sc scale, seed int64) *runner {
	return &runner{w: w, sc: sc, seed: seed, ctx: context.Background(), cal: newCalibrator()}
}

func (r *runner) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// close releases the current engine, if any.
func (r *runner) close() {
	if r.e != nil {
		r.e.close()
		r.e = nil
	}
}

// setup generates the table and the round's operation list from the
// seed, builds the workload's engine over it and warms it up with one
// query for the whole table (which also checks the load against the
// oracle, and leaves a pool that can hold the table holding it) and
// the leading tenth of the list. It returns how long all of that took, in
// seconds at nominal machine speed (calibration slices bracket it);
// releasing the previous engine is not part of it.
func (r *runner) setup() (float64, error) {
	r.close()
	r.cal.reset(time.Now())
	r.cal.burst(setupBracket)
	t0 := time.Now()
	r.ds = generate(r.seed, r.sc.rows)
	r.ops = r.w.ops(r.ds, r.seed, r.sc)
	e, err := r.w.open(r.ds)
	if err != nil {
		return 0, err
	}
	r.e = e
	all := op{kind: opQuery, lo: 0, hi: domain}
	all.wantRows, all.wantDigest = r.ds.expect(all.lo, all.hi, 0)
	r.query(&all, nil)
	// Warm-up stops at the first write so every warmed query still
	// matches the expectation computed for the timed round.
	warm := len(r.ops) / 10
	if warm < 1 {
		warm = 1
	}
	for i := 0; i < warm && r.ops[i].kind == opQuery; i++ {
		r.query(&r.ops[i], nil)
	}
	d := time.Since(t0)
	r.cal.burst(setupBracket)
	return d.Seconds() / r.cal.index(), nil
}

// setupBracket is how many calibration slices run on each side of a
// set-up, and tailBracket on each side of a write-tail chunk.
const (
	setupBracket = 5
	tailBracket  = 3
)

// roundAcc accumulates one round's counts.
type roundAcc struct {
	queries, tuples, inserts, hits int64
	simcost                        float64
	pagesRead, randAcc, seqAcc     int64
	prefixDigest                   uint64
}

// query runs one range query through the backend-neutral Engine the
// way an application does — an ad-hoc builder with literal bounds and
// default ScanOptions, rows pulled with Next and Row — and checks row
// count and digest against the oracle. acc is nil during warm-up. It
// returns the time the query's Close returned.
func (r *runner) query(o *op, acc *roundAcc) time.Time {
	r.attempted++
	t0 := time.Now()
	cur, err := r.e.eng.Table(tableName).Where(indexedCol, smoothscan.Between(o.lo, o.hi)).Run(r.ctx)
	if err != nil {
		r.fail(fmt.Errorf("run [%d,%d): %w", o.lo, o.hi, err))
		return time.Now()
	}
	var t1, t3 time.Time
	if r.rec != nil {
		t1 = time.Now()
	}
	more := cur.Next()
	t2 := time.Now()
	var rows int64
	var digest uint64
	for more {
		digest += rowHash(cur.Row())
		rows++
		more = cur.Next()
	}
	if r.rec != nil {
		t3 = time.Now()
	}
	err = cur.Err()
	if cerr := cur.Close(); err == nil {
		err = cerr
	}
	t4 := time.Now()

	switch {
	case err != nil:
		r.fail(fmt.Errorf("drain [%d,%d): %w", o.lo, o.hi, err))
		return t4
	case rows != o.wantRows || digest != o.wantDigest:
		r.fail(fmt.Errorf("oracle mismatch on [%d,%d): got %d rows digest %016x, want %d rows digest %016x",
			o.lo, o.hi, rows, digest, o.wantRows, o.wantDigest))
		return t4
	}
	if acc == nil {
		return t4
	}
	st := cur.ExecStats()
	us := float64(t4.Sub(t0).Nanoseconds()) / 1e3
	r.lat = append(r.lat, us)
	r.first = append(r.first, float64(t2.Sub(t0).Nanoseconds())/1e3)
	if r.splitHits {
		if st.ResultCache.Hit {
			r.hitLat = append(r.hitLat, us)
		} else {
			r.missLat = append(r.missLat, us)
		}
	}
	if acc.queries < int64(r.prefixN) {
		acc.prefixDigest = acc.prefixDigest*0x100000001b3 + digest + uint64(rows)
	}
	acc.queries++
	acc.tuples += rows
	if st.ResultCache.Hit {
		acc.hits++
	}
	acc.simcost += st.IO.Time()
	acc.pagesRead += st.IO.PagesRead
	acc.randAcc += st.IO.RandomAccesses
	acc.seqAcc += st.IO.SeqAccesses
	if r.rec != nil {
		q := r.nextQuery
		r.nextQuery++
		p := r.rec.add("query", t0, t4, -1, q)
		r.rec.add("run", t0, t1, p, q)
		r.rec.add("first_row", t1, t2, p, q)
		r.rec.add("drain", t2, t3, p, q)
		r.rec.add("close", t3, t4, p, q)
		r.tracedDrainNs += t3.Sub(t2).Nanoseconds()
		r.tracedDrainTuple += rows
	}
	return t4
}

// write times one single-row Insert or one Compact and returns the
// time it finished.
func (r *runner) write(o *op, acc *roundAcc) time.Time {
	r.attempted++
	name := "insert"
	t0 := time.Now()
	var err error
	if o.kind == opInsert {
		err = r.e.insert(o.row)
	} else {
		name = "compact"
		err = r.e.compact()
	}
	t1 := time.Now()
	if err != nil {
		r.fail(fmt.Errorf("%s: %w", name, err))
		return t1
	}
	if o.kind == opInsert {
		r.ins = append(r.ins, float64(t1.Sub(t0).Nanoseconds())/1e3)
		acc.inserts++
	}
	if r.rec != nil {
		r.rec.add(name, t0, t1, -1, r.nextQuery)
		r.nextQuery++
	}
	return t1
}

// roundResult is one round's measurements. Every time in it is at
// nominal machine speed: the clock's reading divided by speed, the
// round's speed index (see calib.go). Latencies are in microseconds.
type roundResult struct {
	traced bool
	secs   float64 // the round's duration, calibration slices excluded
	speed  float64
	roundAcc
	p50, p95, p99, firstP50 float64
	insP50                  float64 // 0 when the round has no inserts
	hitP50, missP50         float64 // only with splitHits
	mallocs, allocBytes     uint64
	gcCycles                uint32
	gcPauseNs               uint64
}

// round replays the operation list once, a calibration slice slipped
// in every few milliseconds. A collection is forced before the clock
// starts so every round begins from the same heap state; allocation
// and GC counters are read outside the timed window.
func (r *runner) round() roundResult {
	r.lat, r.first, r.ins = r.lat[:0], r.first[:0], r.ins[:0]
	r.hitLat, r.missLat = r.hitLat[:0], r.missLat[:0]
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	var acc roundAcc
	t0 := time.Now()
	r.cal.reset(t0)
	for i := range r.ops {
		if o := &r.ops[i]; o.kind == opQuery {
			r.cal.tick(r.query(o, &acc))
		} else {
			r.cal.tick(r.write(o, &acc))
		}
	}
	wall := time.Since(t0) - r.cal.spent
	runtime.ReadMemStats(&m1)
	speed := r.cal.index()
	rr := roundResult{
		traced:     r.rec != nil,
		secs:       wall.Seconds() / speed,
		speed:      speed,
		roundAcc:   acc,
		mallocs:    m1.Mallocs - m0.Mallocs,
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		gcCycles:   m1.NumGC - m0.NumGC,
		gcPauseNs:  m1.PauseTotalNs - m0.PauseTotalNs,
	}
	sort.Float64s(r.lat)
	rr.p50, rr.p95, rr.p99 = percentile(r.lat, 0.50)/speed, percentile(r.lat, 0.95)/speed, percentile(r.lat, 0.99)/speed
	rr.firstP50 = sortedPercentile(r.first, 0.50) / speed
	rr.insP50 = sortedPercentile(r.ins, 0.50) / speed
	rr.hitP50 = sortedPercentile(r.hitLat, 0.50) / speed
	rr.missP50 = sortedPercentile(r.missLat, 0.50) / speed
	return rr
}

// writeTail gives the read-only workloads their insert latency: after
// the last round, chunks of single-row inserts go to the engine that
// owns the data, and one query through the workload's Engine proves
// the rows visible. It returns the median of the chunks' p50s, each
// at nominal machine speed.
func (r *runner) writeTail() float64 {
	rng := opRand(r.seed, saltTail)
	var chunkP50 []float64
	var acc roundAcc
	for c := 0; c < r.sc.tailChunks; c++ {
		r.ins = r.ins[:0]
		r.cal.reset(time.Now())
		r.cal.burst(tailBracket)
		for i := 0; i < r.sc.tailChunk; i++ {
			o := op{kind: opInsert, row: insertRow(r.ds, rng, len(r.ds.extra))}
			r.ds.noteInsert(o.row)
			r.write(&o, &acc)
		}
		r.cal.burst(tailBracket)
		chunkP50 = append(chunkP50, sortedPercentile(r.ins, 0.50)/r.cal.index())
	}
	check := op{kind: opQuery, lo: 0, hi: scanWidth}
	check.wantRows, check.wantDigest = r.ds.expect(check.lo, check.hi, len(r.ds.extra))
	r.query(&check, nil)
	return median(chunkP50)
}

// percentile is the nearest-rank percentile of an ascending slice
// (0 for an empty one).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// sortedPercentile sorts v in place and returns its percentile.
func sortedPercentile(v []float64, p float64) float64 {
	sort.Float64s(v)
	return percentile(v, p)
}

// median returns the middle of v (the mean of the two middles for an
// even count) without disturbing it.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// overRounds applies f to every round and returns the values.
func overRounds(rounds []roundResult, f func(roundResult) float64) []float64 {
	out := make([]float64, len(rounds))
	for i, rr := range rounds {
		out[i] = f(rr)
	}
	return out
}

// setupReps is how many times a run sets its workload up; setup_s is
// the median, the last engine is the one measured.
const setupReps = 5

// runRounds repeats rounds until the time spent in them reaches
// budget, rebuilding the engine before each round when the workload
// demands it. Set-up durations land in setups. With a recorder, every
// other round runs with spans on, and there are two rounds at least.
func (r *runner) runRounds(budget time.Duration, setups *[]float64, rec *recorder) ([]roundResult, error) {
	var rounds []roundResult
	var measured time.Duration
	minRounds := 1
	if rec != nil {
		minRounds = 2
	}
	for {
		if r.w.rebuild || r.e == nil {
			d, err := r.setup()
			if err != nil {
				return nil, err
			}
			*setups = append(*setups, d)
		}
		r.rec = nil
		if len(rounds)%2 == 1 {
			r.rec = rec
		}
		start := time.Now()
		rounds = append(rounds, r.round())
		measured += time.Since(start)
		r.rec = nil
		// Stop when another round would overshoot by more than half.
		if len(rounds) >= minRounds && measured+measured/time.Duration(2*len(rounds)) >= budget {
			return rounds, nil
		}
	}
}

// runEndToEnd is the untraced run: set up, replay rounds for the
// given time, and reduce them to the end-to-end metrics.
func runEndToEnd(w workload, sc scale, seed int64, seconds float64) (*runResult, error) {
	r := newRunner(w, sc, seed)
	defer r.close()
	r.prefixN = sharedPrefix(w, sc)
	var setups []float64
	if !w.rebuild {
		for i := 0; i < setupReps; i++ {
			d, err := r.setup()
			if err != nil {
				return nil, err
			}
			setups = append(setups, d)
		}
	}
	rounds, err := r.runRounds(time.Duration(seconds*float64(time.Second)), &setups, nil)
	if err != nil {
		return nil, err
	}

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapInuse) / (1 << 20)

	perRound := map[string][]float64{
		"speed_index":      overRounds(rounds, func(rr roundResult) float64 { return rr.speed }),
		"query_p50_us":     overRounds(rounds, func(rr roundResult) float64 { return rr.p50 }),
		"query_p95_us":     overRounds(rounds, func(rr roundResult) float64 { return rr.p95 }),
		"first_row_p50_us": overRounds(rounds, func(rr roundResult) float64 { return rr.firstP50 }),
		"queries_per_s":    overRounds(rounds, func(rr roundResult) float64 { return float64(rr.queries) / rr.secs }),
		"tuples_per_s":     overRounds(rounds, func(rr roundResult) float64 { return float64(rr.tuples) / rr.secs }),
		"allocs_per_query": overRounds(rounds, func(rr roundResult) float64 { return float64(rr.mallocs) / float64(rr.queries) }),
		"alloc_kb_per_query": overRounds(rounds, func(rr roundResult) float64 {
			return float64(rr.allocBytes) / 1024 / float64(rr.queries)
		}),
	}
	if w.rebuild {
		perRound["insert_p50_us"] = overRounds(rounds, func(rr roundResult) float64 { return rr.insP50 })
	}

	res := newRunResult(w, sc, seed, false)
	res.PerRound = perRound
	res.SpeedIndex = median(perRound["speed_index"])
	for name, vals := range perRound {
		if name != "speed_index" {
			res.set(name, median(vals))
		}
	}
	if !w.rebuild {
		res.set("insert_p50_us", r.writeTail())
	}
	res.set("setup_s", median(setups))
	// Simulated cost is a count: the first round always starts from the
	// same state (set-up plus warm-up), so its value repeats exactly
	// however many rounds the time allowed.
	res.set("simcost_per_query", rounds[0].simcost/float64(rounds[0].queries))
	res.set("heap_inuse_mb", heapMB)
	res.Rounds = len(rounds)
	res.PrefixDigest = fmt.Sprintf("%016x", rounds[0].prefixDigest)
	res.finish(r)
	return res, nil
}

// sharedPrefix is how many leading queries of a round the workload
// shares with its siblings (scan_* with scan_wire, point_* with
// point_wire); their combined digest must agree across the family.
func sharedPrefix(w workload, sc scale) int {
	switch w.Name {
	case "scan_local", "scan_wire", "scan_sharded":
		return sc.scanWireQ
	case "point_local", "point_wire":
		return sc.pointWireQ
	}
	return 0
}
