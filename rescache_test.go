package smoothscan_test

// Semantic result-cache tests at the public API boundary, across all
// three execution fronts (local DB, ShardedDB coordinator, SSWP
// server). The mechanism itself — keying, epochs, eviction — is
// unit-tested in internal/rescache; what these tests pin is the
// wiring contract: a repeat execution is served with exactly zero
// device I/O and ExecStats.ResultCache.Hit set, a returned Insert is
// never followed by a pre-write result (enforced under -race), and a
// disabled tier is indistinguishable from the pre-tier engine.

import (
	"context"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"smoothscan"
	"smoothscan/internal/disk"
	"smoothscan/internal/loadgen"
	"smoothscan/internal/server"
)

// drainCount drains a cursor, returning the row count and the fully
// populated ExecStats.
func drainCount(t *testing.T, cur *smoothscan.Rows, err error) (int, smoothscan.ExecStats) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for cur.Next() {
		n++
	}
	if cur.Err() != nil {
		t.Fatal(cur.Err())
	}
	st := cur.ExecStats()
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	return n, st
}

// TestResultCacheLocalLifecycle walks the full local lifecycle:
// miss → store → hit (zero device I/O, identical rows, Explain
// marker) → Insert invalidates → miss with the new row → re-cache →
// ColdCache purges.
func TestResultCacheLocalLifecycle(t *testing.T) {
	db, err := smoothscan.Open(smoothscan.Options{PoolPages: 128, ResultCacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := db.CreateTable("t", "id", "val")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 4000; i++ {
		if err := tb.Append(i, i%100); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("t", "val"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	run := func() ([][]int64, smoothscan.ExecStats, *smoothscan.Plan, smoothscan.IOStats) {
		before := db.Stats()
		rows, err := db.Query("t").Where("val", smoothscan.Between(10, 20)).Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		var out [][]int64
		for rows.Next() {
			r := rows.Row()
			out = append(out, append([]int64(nil), r...))
		}
		if rows.Err() != nil {
			t.Fatal(rows.Err())
		}
		st := rows.ExecStats()
		plan := rows.Plan()
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
		return out, st, plan, db.Stats().Sub(before)
	}

	r1, st1, p1, _ := run()
	if st1.ResultCache.Hit {
		t.Fatal("first run reported a cache hit")
	}
	if p1.CachedResult {
		t.Fatal("first run's plan marked CachedResult")
	}
	if len(r1) == 0 {
		t.Fatal("empty baseline result")
	}

	r2, st2, p2, dev2 := run()
	if !st2.ResultCache.Hit {
		t.Fatalf("repeat run missed: %+v (cache %+v)", st2.ResultCache, db.ResultCacheStats())
	}
	// The acceptance bar: a served execution performs exactly zero
	// device I/O, at both the ExecStats and the device-counter level.
	if st2.IO.Requests != 0 || st2.IO.PagesRead != 0 || st2.IO.IOTime != 0 {
		t.Fatalf("cache hit performed I/O per ExecStats: %+v", st2.IO)
	}
	if dev2.Requests != 0 || dev2.PagesRead != 0 {
		t.Fatalf("cache hit touched the device: %+v", dev2)
	}
	if st2.ResultCache.Bytes <= 0 || st2.ResultCache.Age < 0 {
		t.Fatalf("hit metadata not populated: %+v", st2.ResultCache)
	}
	if !p2.CachedResult {
		t.Fatal("hit's plan not marked CachedResult")
	}
	if !strings.Contains(p2.String(), "served from result cache") {
		t.Fatalf("plan rendering missing cache marker:\n%s", p2)
	}
	if len(r1) != len(r2) {
		t.Fatalf("row count drifted: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		for j := range r1[i] {
			if r1[i][j] != r2[i][j] {
				t.Fatalf("row %d differs between executions", i)
			}
		}
	}

	// A write to the read table invalidates; the next run re-executes
	// and sees the new row, then re-caches.
	if err := db.Insert("t", 100000, 15); err != nil {
		t.Fatal(err)
	}
	r3, st3, _, _ := run()
	if st3.ResultCache.Hit {
		t.Fatal("post-insert run served a stale entry")
	}
	if len(r3) != len(r1)+1 {
		t.Fatalf("post-insert rows %d, want %d", len(r3), len(r1)+1)
	}
	_, st4, _, _ := run()
	if !st4.ResultCache.Hit {
		t.Fatal("re-cache after invalidation failed")
	}

	// ColdCache purges the tier along with the buffer pool.
	if err := db.ColdCache(); err != nil {
		t.Fatal(err)
	}
	_, st5, _, _ := run()
	if st5.ResultCache.Hit {
		t.Fatal("run after ColdCache served a cached result")
	}

	cs := db.ResultCacheStats()
	if cs.Hits < 2 || cs.Stores < 2 || cs.InvalidatedStale < 1 {
		t.Fatalf("implausible counters: %+v", cs)
	}
}

// TestResultCacheAdhocPreparedShared pins the semantic-keying
// contract: an ad-hoc query with inline literals and a prepared
// statement bound to the same values share one entry, in either
// population order.
func TestResultCacheAdhocPreparedShared(t *testing.T) {
	db, err := loadgen.BuildDB(4000, 500, 11, smoothscan.Options{PoolPages: 128, ResultCacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Ad-hoc populates; the prepared statement's first run hits.
	cur, err := db.Query(loadgen.Table).Where(loadgen.IndexedCol, smoothscan.Between(40, 60)).Run(ctx)
	n1, st1 := drainCount(t, cur, err)
	if st1.ResultCache.Hit {
		t.Fatal("populating ad-hoc run hit")
	}
	stmt, err := db.Prepare(db.Query(loadgen.Table).Where(loadgen.IndexedCol,
		smoothscan.Between(smoothscan.Param("lo"), smoothscan.Param("hi"))))
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	cur, err = stmt.Run(ctx, smoothscan.Bind{"lo": 40, "hi": 60})
	n2, st2 := drainCount(t, cur, err)
	if !st2.ResultCache.Hit {
		t.Fatalf("prepared run with ad-hoc's values missed: %+v", db.ResultCacheStats())
	}
	if n1 != n2 {
		t.Fatalf("shared entry served %d rows to prepared, ad-hoc saw %d", n2, n1)
	}

	// The reverse: prepared populates a different range; ad-hoc hits.
	cur, err = stmt.Run(ctx, smoothscan.Bind{"lo": 200, "hi": 230})
	if _, st := drainCount(t, cur, err); st.ResultCache.Hit {
		t.Fatal("populating prepared run hit")
	}
	cur, err = db.Query(loadgen.Table).Where(loadgen.IndexedCol, smoothscan.Between(200, 230)).Run(ctx)
	n4, st4 := drainCount(t, cur, err)
	if !st4.ResultCache.Hit {
		t.Fatalf("ad-hoc run with prepared's values missed: %+v", db.ResultCacheStats())
	}
	cur, err = stmt.Run(ctx, smoothscan.Bind{"lo": 200, "hi": 230})
	n3, st3 := drainCount(t, cur, err)
	if !st3.ResultCache.Hit || n3 != n4 {
		t.Fatalf("prepared re-run: hit=%v rows=%d want %d", st3.ResultCache.Hit, n3, n4)
	}

	// Different bind values are a different key.
	cur, err = stmt.Run(ctx, smoothscan.Bind{"lo": 40, "hi": 61})
	if _, st := drainCount(t, cur, err); st.ResultCache.Hit {
		t.Fatal("distinct bind values shared an entry")
	}

	// Comparison spellings that fold to the same half-open range share
	// an entry: Eq(x) is Between(x, x+1).
	cur, err = db.Query(loadgen.Table).Where(loadgen.IndexedCol, smoothscan.Eq(250)).Run(ctx)
	if _, st := drainCount(t, cur, err); st.ResultCache.Hit {
		t.Fatal("populating Eq run hit")
	}
	cur, err = db.Query(loadgen.Table).Where(loadgen.IndexedCol, smoothscan.Between(250, 251)).Run(ctx)
	if _, st := drainCount(t, cur, err); !st.ResultCache.Hit {
		t.Fatalf("Between(x, x+1) did not share Eq(x)'s entry: %+v", db.ResultCacheStats())
	}
}

// TestResultCacheSharded exercises the coordinator-level tier: a hit
// is served above scatter-gather, touches no shard device and replays
// exactly the rows the miss gathered, a write routed to any shard
// invalidates (epoch = sum of shard epochs), and the prepared path
// shares entries with ad-hoc just as locally.
func TestResultCacheSharded(t *testing.T) {
	s, err := smoothscan.OpenSharded(3, smoothscan.Options{PoolPages: 64, ResultCacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tb, err := s.CreateShardedTable("ev", smoothscan.HashPartitioning("id", 3), "id", "val")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 3000; i++ {
		if err := tb.Append(i, i%97); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.Finish(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// devices sums the shard devices' lifetime counters.
	devices := func() smoothscan.IOStats {
		var total smoothscan.IOStats
		for i := 0; i < s.NumShards(); i++ {
			total = disk.Add(total, s.Shard(i).Stats())
		}
		return total
	}
	// run returns the gathered rows sorted: the shards' fan-in order is
	// arbitrary, so a hit and a miss compare as sorted row lists.
	run := func() ([][]int64, smoothscan.ExecStats, smoothscan.IOStats) {
		before := devices()
		cur, err := s.Query("ev").Where("val", smoothscan.Between(10, 20)).Run(ctx)
		rows := drainCursor(t, cur, err)
		sortRows(rows)
		return rows, cur.ExecStats(), devices().Sub(before)
	}

	r1, st1, _ := run()
	if st1.ResultCache.Hit {
		t.Fatal("first run hit")
	}
	if len(r1) == 0 {
		t.Fatal("empty baseline result")
	}
	r2, st2, io2 := run()
	if !st2.ResultCache.Hit {
		t.Fatalf("repeat run missed: %+v", s.ResultCacheStats())
	}
	if io2.Requests != 0 || io2.PagesRead != 0 {
		t.Fatalf("coordinator hit touched a shard device: %+v", io2)
	}
	if !slices.EqualFunc(r1, r2, slices.Equal) {
		t.Fatalf("hit rows differ from the miss's: %d vs %d rows", len(r2), len(r1))
	}

	if err := s.Insert("ev", 9999, 15); err != nil {
		t.Fatal(err)
	}
	r3, st3, _ := run()
	if st3.ResultCache.Hit {
		t.Fatal("post-insert run served a stale entry")
	}
	want := append(slices.Clone(r1), []int64{9999, 15})
	sortRows(want)
	if !slices.EqualFunc(r3, want, slices.Equal) {
		t.Fatalf("post-insert rows: %d, want the %d pre-insert rows plus (9999, 15)", len(r3), len(r1))
	}
	r4, st4, _ := run()
	if !st4.ResultCache.Hit || !slices.EqualFunc(r4, r3, slices.Equal) {
		t.Fatalf("re-cache failed: hit=%v, %d rows vs the miss's %d", st4.ResultCache.Hit, len(r4), len(r3))
	}

	// Prepared sharing through the sharded front, and the plan marker.
	stmt, err := s.Prepare(s.Query("ev").Where("val",
		smoothscan.Between(smoothscan.Param("lo"), smoothscan.Param("hi"))))
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	cur, err := stmt.Run(ctx, smoothscan.Bind{"lo": 30, "hi": 40})
	if _, st := drainCount(t, cur, err); st.ResultCache.Hit {
		t.Fatal("populating prepared run hit")
	}
	pr, err := stmt.Run(ctx, smoothscan.Bind{"lo": 30, "hi": 40})
	if err != nil {
		t.Fatal(err)
	}
	for pr.Next() {
	}
	if pr.Err() != nil {
		t.Fatal(pr.Err())
	}
	if !pr.ExecStats().ResultCache.Hit {
		t.Fatal("repeat prepared run missed")
	}
	plan := pr.Plan()
	if err := pr.Close(); err != nil {
		t.Fatal(err)
	}
	if plan == nil || !plan.CachedResult || !plan.Sharded.CachedResult {
		t.Fatalf("sharded plan not marked cached:\n%v", plan)
	}
	if !strings.Contains(plan.String(), "served from result cache") {
		t.Fatalf("sharded plan rendering missing cache marker:\n%s", plan)
	}
}

// TestResultCacheRemote pins hit parity across the wire: when the
// server runs with the tier enabled, a remote client's repeat query
// sees ResultCache.Hit with a zero-I/O summary, and the cache
// counters surface through ServerStats.
func TestResultCacheRemote(t *testing.T) {
	db, err := loadgen.BuildDB(4000, 500, 13, smoothscan.Options{PoolPages: 128, ResultCacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, server.Config{})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := smoothscan.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	run := func() (int, smoothscan.ExecStats) {
		cur, err := c.Table(loadgen.Table).Where(loadgen.IndexedCol, smoothscan.Between(70, 90)).Run(ctx)
		return drainCount(t, cur, err)
	}
	n1, st1 := run()
	if st1.ResultCache.Hit {
		t.Fatal("first remote run hit")
	}
	n2, st2 := run()
	if !st2.ResultCache.Hit {
		t.Fatalf("repeat remote run missed: %+v", st2.ResultCache)
	}
	if st2.IO.Requests != 0 || st2.IO.PagesRead != 0 {
		t.Fatalf("remote hit's summary reports device I/O: %+v", st2.IO)
	}
	if st2.ResultCache.Bytes <= 0 {
		t.Fatalf("remote hit metadata not carried over the wire: %+v", st2.ResultCache)
	}
	if n1 != n2 {
		t.Fatalf("row count drifted across the wire: %d vs %d", n1, n2)
	}

	ss, err := c.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if ss.ResultCacheHits < 1 || ss.ResultCacheEntries < 1 || ss.ResultCacheBytes <= 0 {
		t.Fatalf("ServerStats cache counters not populated: hits=%d entries=%d bytes=%d",
			ss.ResultCacheHits, ss.ResultCacheEntries, ss.ResultCacheBytes)
	}
}

// TestResultCacheDisabledIdentity pins that the default configuration
// (ResultCacheBytes == 0) never reports hits, never populates the
// counters, and never marks a plan cached — the observable face of
// the byte-identical guarantee `make equiv` enforces end to end.
func TestResultCacheDisabledIdentity(t *testing.T) {
	db, err := loadgen.BuildDB(4000, 500, 17, smoothscan.Options{PoolPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var counts [2]int
	for i := 0; i < 2; i++ {
		rows, err := db.Query(loadgen.Table).Where(loadgen.IndexedCol, smoothscan.Between(10, 30)).Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for rows.Next() {
			counts[i]++
		}
		if rows.Err() != nil {
			t.Fatal(rows.Err())
		}
		st := rows.ExecStats()
		plan := rows.Plan()
		rows.Close()
		if st.ResultCache.Hit || st.ResultCache.Bytes != 0 || st.ResultCache.Age != 0 {
			t.Fatalf("run %d reported cache activity while disabled: %+v", i, st.ResultCache)
		}
		if plan.CachedResult || strings.Contains(plan.String(), "served from result cache") {
			t.Fatalf("run %d plan marked cached while disabled", i)
		}
	}
	if counts[0] != counts[1] {
		t.Fatalf("row counts differ: %d vs %d", counts[0], counts[1])
	}
	if cs := db.ResultCacheStats(); cs != (smoothscan.ResultCacheStats{}) {
		t.Fatalf("disabled tier accumulated counters: %+v", cs)
	}
}

// raceEngine is the surface the invalidation-race harness needs: the
// uniform Engine plus the write entry point, satisfied by *DB and
// *ShardedDB.
type raceEngine interface {
	smoothscan.Engine
	Insert(table string, vals ...int64) error
}

// runInvalidationRace drives concurrent readers against a writer and
// checks the tier's core invariant: once an Insert has returned, no
// subsequent Run may be served a pre-write result. The writer
// publishes its progress only after each Insert returns; every reader
// snapshots that count before opening its cursor, so a result with
// fewer than base+snapshot matching rows can only mean a stale cache
// entry was served. Run with -race, which also patrols the entry
// bookkeeping under contention. mkRow builds a full-width row (with
// "val" inside the queried [10, 20] range) for the given fresh id.
func runInvalidationRace(t *testing.T, e raceEngine, table string, mkRow func(id int64) []int64) {
	ctx := context.Background()
	const inserts = 24
	const readers = 3

	count := func() int {
		cur, err := e.Table(table).Where("val", smoothscan.Between(10, 20)).Run(ctx)
		n, _ := drainCount(t, cur, err)
		return n
	}
	base := count()
	if base == 0 {
		t.Fatal("empty baseline")
	}

	var landed atomic.Int64 // inserts fully returned
	var done atomic.Bool
	errc := make(chan error, 1)
	go func() {
		defer done.Store(true)
		for i := int64(0); i < inserts; i++ {
			if err := e.Insert(table, mkRow(1_000_000+i)...); err != nil {
				select {
				case errc <- err:
				default:
				}
				return
			}
			landed.Add(1)
		}
	}()

	read := func() {
		floor := int(landed.Load())
		if got := count(); got < base+floor {
			t.Errorf("stale result: %d rows, but %d inserts had returned (floor %d)",
				got, floor, base+floor)
		}
	}
	doneReading := make(chan struct{})
	for r := 0; r < readers; r++ {
		go func() {
			defer func() { doneReading <- struct{}{} }()
			for !done.Load() {
				read()
			}
			read() // one pass after the writer finished
		}()
	}
	for r := 0; r < readers; r++ {
		<-doneReading
	}
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if got := count(); got != base+inserts {
		t.Fatalf("final count %d, want %d", got, base+inserts)
	}
}

// TestResultCacheInvalidationRaceLocal runs the Run-vs-Insert race
// against the local tier.
func TestResultCacheInvalidationRaceLocal(t *testing.T) {
	db, err := loadgen.BuildDB(2000, 100, 19, smoothscan.Options{PoolPages: 128, ResultCacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	runInvalidationRace(t, db, loadgen.Table, func(id int64) []int64 {
		// loadgen rows are (id, val, p1..p8).
		return []int64{id, 15, 0, 0, 0, 0, 0, 0, 0, 0}
	})
}

// TestResultCacheInvalidationRaceSharded runs the same race against
// the coordinator tier, where invalidation flows through the
// sum-of-shard-epochs view and the write lands on one shard only.
func TestResultCacheInvalidationRaceSharded(t *testing.T) {
	s, err := smoothscan.OpenSharded(3, smoothscan.Options{PoolPages: 64, ResultCacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tb, err := s.CreateShardedTable("ev", smoothscan.HashPartitioning("id", 3), "id", "val")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 2000; i++ {
		if err := tb.Append(i, i%97); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.Finish(); err != nil {
		t.Fatal(err)
	}
	runInvalidationRace(t, s, "ev", func(id int64) []int64 {
		return []int64{id, 15}
	})
}
