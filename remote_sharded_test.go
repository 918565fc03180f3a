package smoothscan_test

// Remote-sharded equivalence and failover tests: the same sharded
// query surface, backed once by in-process shards and once by remote
// shard drivers speaking the wire protocol to per-shard ssserver
// instances loaded with identical data. Row results must match exactly
// (in sequence when the gather is ordered); error classes must survive
// the wire; a killed shard node must surface a typed
// ErrShardUnavailable without hanging or leaking goroutines.

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"smoothscan"
	"smoothscan/internal/server"
)

const (
	rsRowCount = 6000
	rsDomain   = 2000
)

// rsTableRows generates the deterministic fixture: id (dense, unique),
// val (uniform, indexed, the partition column), g (low cardinality),
// p (payload).
func rsTableRows() [][]int64 {
	rng := rand.New(rand.NewSource(211))
	rows := make([][]int64, rsRowCount)
	for i := range rows {
		val := rng.Int63n(rsDomain)
		rows[i] = []int64{int64(i), val, val % 16, rng.Int63n(1_000_000)}
	}
	return rows
}

// rsDimRows is a dimension table keyed by a dense id, partitioned on a
// non-join column when the broadcast strategy is wanted.
func rsDimRows() [][]int64 {
	rng := rand.New(rand.NewSource(223))
	rows := make([][]int64, 500)
	for i := range rows {
		rows[i] = []int64{int64(i), int64(i) % 8, rng.Int63n(100)}
	}
	return rows
}

func rsPartitioning(scheme string, n int) smoothscan.Partitioning {
	if scheme == "hash" {
		return smoothscan.HashPartitioning("val", n)
	}
	return smoothscan.RangePartitioning("val", smoothscan.EqualWidthBounds(0, rsDomain, n)...)
}

// loadRemoteShardedTables loads the fixture tables into a sharded DB.
// The fact table "t" partitions by the given scheme; the dimension "d"
// partitions by d_w, so t⋈d on g = d_cat always broadcasts (on
// val = d_w it runs partition-wise under hash partitioning).
func loadRemoteShardedTables(t *testing.T, s *smoothscan.ShardedDB, parts map[string]smoothscan.Partitioning) {
	t.Helper()
	tb, err := s.CreateShardedTable("t", parts["t"], "id", "val", "g", "p")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rsTableRows() {
		if err := tb.Append(r...); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateIndex("t", "val"); err != nil {
		t.Fatal(err)
	}
	db, err := s.CreateShardedTable("d", parts["d"], "d_id", "d_cat", "d_w")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rsDimRows() {
		if err := db.Append(r...); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateIndex("d", "d_id"); err != nil {
		t.Fatal(err)
	}
}

// remoteShardedFixture pairs an in-process sharded baseline with a
// remote-backed twin over identical data, plus the per-shard servers
// so failover tests can kill them.
type remoteShardedFixture struct {
	local  *smoothscan.ShardedDB
	remote *smoothscan.ShardedDB
	// backing holds the server-side per-shard DBs, in shard order.
	backing []*smoothscan.DB
	srvs    []*server.Server
	addrs   []string
	parts   map[string]smoothscan.Partitioning
}

func rsParts(scheme string, n int) map[string]smoothscan.Partitioning {
	return map[string]smoothscan.Partitioning{
		"t": rsPartitioning(scheme, n),
		// Partitioned off the g = d_cat join key: that join broadcasts.
		"d": smoothscan.HashPartitioning("d_w", n),
	}
}

func buildRemoteSharded(t *testing.T, n int, scheme string) *remoteShardedFixture {
	t.Helper()
	parts := rsParts(scheme, n)
	local, err := smoothscan.OpenSharded(n, smoothscan.Options{PoolPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	loadRemoteShardedTables(t, local, parts)

	// The remote topology serves a second, identically-loaded shard
	// set: one ssserver per shard.
	nodes, err := smoothscan.OpenSharded(n, smoothscan.Options{PoolPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	loadRemoteShardedTables(t, nodes, parts)
	fx := &remoteShardedFixture{local: local, parts: parts}
	var placements []smoothscan.Placement
	for i := 0; i < n; i++ {
		db := nodes.Shard(i)
		srv := server.New(db, server.Config{FaultAdmin: true})
		if err := srv.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		fx.backing = append(fx.backing, db)
		fx.srvs = append(fx.srvs, srv)
		fx.addrs = append(fx.addrs, srv.Addr().String())
		placements = append(placements, smoothscan.Placement{Addr: srv.Addr().String()})
	}
	remote, err := smoothscan.OpenShardedRemote(placements, parts, smoothscan.Options{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { remote.Close() })
	fx.remote = remote
	return fx
}

func drainSharded(t *testing.T, rows *smoothscan.Rows, err error) [][]int64 {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
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

func runDrain(t *testing.T, q *smoothscan.Query, ctx context.Context) [][]int64 {
	t.Helper()
	rows, err := q.Run(ctx)
	return drainSharded(t, rows, err)
}

func stmtDrain(t *testing.T, st *smoothscan.Stmt, ctx context.Context, b smoothscan.Bind) [][]int64 {
	t.Helper()
	rows, err := st.Run(ctx, b)
	return drainSharded(t, rows, err)
}

// rsCase is one query shape, expressed once (both engines are
// *ShardedDB). exact cases compare row sequences; the rest compare
// multisets.
type rsCase struct {
	name  string
	exact bool
	q     func(s *smoothscan.ShardedDB) *smoothscan.Query
}

func rsCases() []rsCase {
	return []rsCase{
		{"scan", false, func(s *smoothscan.ShardedDB) *smoothscan.Query {
			return s.Query("t").Where("val", smoothscan.Between(600, 1200))
		}},
		{"index", false, func(s *smoothscan.ShardedDB) *smoothscan.Query {
			return s.Query("t").Where("val", smoothscan.Between(100, 220)).
				WithOptions(smoothscan.ScanOptions{Path: smoothscan.PathIndex})
		}},
		{"ordered", true, func(s *smoothscan.ShardedDB) *smoothscan.Query {
			return s.Query("t").Where("val", smoothscan.Between(600, 1200)).OrderBy("id")
		}},
		{"select", false, func(s *smoothscan.ShardedDB) *smoothscan.Query {
			return s.Query("t").Select("val", "p").Where("val", smoothscan.Ge(1500))
		}},
		{"agg", true, func(s *smoothscan.ShardedDB) *smoothscan.Query {
			return s.Query("t").GroupBy("g", smoothscan.Count(), smoothscan.Sum("p"), smoothscan.Min("val"), smoothscan.Max("val"))
		}},
		{"agg-where-ord", true, func(s *smoothscan.ShardedDB) *smoothscan.Query {
			return s.Query("t").Where("val", smoothscan.Between(300, 1700)).
				GroupBy("g", smoothscan.Sum("p")).OrderBy("g")
		}},
		{"topn", true, func(s *smoothscan.ShardedDB) *smoothscan.Query {
			return s.Query("t").Where("val", smoothscan.Ge(800)).OrderBy("id").Limit(53)
		}},
		{"join-broadcast", false, func(s *smoothscan.ShardedDB) *smoothscan.Query {
			return s.Query("t").Join("d", "g", "d_cat").Where("val", smoothscan.Between(200, 500))
		}},
		{"join-agg", true, func(s *smoothscan.ShardedDB) *smoothscan.Query {
			return s.Query("t").Join("d", "g", "d_cat").GroupBy("g", smoothscan.Count(), smoothscan.Sum("d_w"))
		}},
		{"empty-range", true, func(s *smoothscan.ShardedDB) *smoothscan.Query {
			return s.Query("t").Where("val", smoothscan.Between(500, 500))
		}},
	}
}

func TestRemoteShardedEquivalenceGrid(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{1, 2, 4} {
		for _, scheme := range []string{"range", "hash"} {
			fx := buildRemoteSharded(t, n, scheme)
			for _, c := range rsCases() {
				c := c
				t.Run(strings.Join([]string{scheme, "N" + strconv.Itoa(n), c.name}, "/"), func(t *testing.T) {
					lrows, lerr := c.q(fx.local).Run(ctx)
					want := drainSharded(t, lrows, lerr)
					rrows, rerr := c.q(fx.remote).Run(ctx)
					got := drainSharded(t, rrows, rerr)
					requireSameRows(t, want, got, c.exact)
				})
			}
		}
	}
}

func TestRemoteShardedPrepared(t *testing.T) {
	ctx := context.Background()
	fx := buildRemoteSharded(t, 4, "range")
	build := func(s *smoothscan.ShardedDB) *smoothscan.Query {
		return s.Query("t").
			Where("val", smoothscan.Between(smoothscan.Param("lo"), smoothscan.Param("hi"))).
			OrderBy("id")
	}
	lst, err := fx.local.Prepare(build(fx.local))
	if err != nil {
		t.Fatal(err)
	}
	rst, err := fx.remote.Prepare(build(fx.remote))
	if err != nil {
		t.Fatal(err)
	}
	defer rst.Close()
	if lp, rp := lst.Params(), rst.Params(); strings.Join(lp, ",") != strings.Join(rp, ",") {
		t.Fatalf("params differ: local %v, remote %v", lp, rp)
	}
	// Narrow binds prune to a shard subset; wide ones touch all —
	// re-binding the same statements each time.
	for _, b := range []smoothscan.Bind{
		{"lo": 0, "hi": 400},
		{"lo": 900, "hi": 1100},
		{"lo": 0, "hi": rsDomain},
		{"lo": 1700, "hi": 1600}, // empty
	} {
		lrows, lerr := lst.Run(ctx, b)
		want := drainSharded(t, lrows, lerr)
		rrows, rerr := rst.Run(ctx, b)
		got := drainSharded(t, rrows, rerr)
		requireSameRows(t, want, got, true)
	}
}

// rsUnsharded loads the fixture tables into one unsharded DB: the
// oracle sharded statements over the same rows must agree with.
func rsUnsharded(t *testing.T) *smoothscan.DB {
	t.Helper()
	db, err := smoothscan.Open(smoothscan.Options{PoolPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range []struct {
		name, index string
		cols        []string
		rows        [][]int64
	}{
		{"t", "val", []string{"id", "val", "g", "p"}, rsTableRows()},
		{"d", "d_id", []string{"d_id", "d_cat", "d_w"}, rsDimRows()},
	} {
		tb, err := db.CreateTable(ts.name, ts.cols...)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range ts.rows {
			if err := tb.Append(r...); err != nil {
				t.Fatal(err)
			}
		}
		if err := tb.Finish(); err != nil {
			t.Fatal(err)
		}
		if err := db.CreateIndex(ts.name, ts.index); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// stratShape is one prepared query shape of TestShardedStmtStrategies.
// build spells the query with arg(name) in every parameter position:
// Param for the statements, the bound value for the literal twin.
type stratShape struct {
	name     string
	strategy string
	exact    bool
	build    func(q *smoothscan.Query, arg func(string) any) *smoothscan.Query
	binds    []smoothscan.Bind
}

func stratShapes() []stratShape {
	valRange := func(q *smoothscan.Query, arg func(string) any) *smoothscan.Query {
		return q.Where("val", smoothscan.Between(arg("lo"), arg("hi")))
	}
	// Under hash(val) % N, t⋈d on val = d_w is co-partitioned; on
	// g = d_cat it is not, and one side broadcasts. Each join shape
	// carries a parameter on both inputs.
	pwJoin := func(q *smoothscan.Query, arg func(string) any) *smoothscan.Query {
		return valRange(q.Join("d", "val", "d_w"), arg).Where("d_id", smoothscan.Lt(arg("dhi")))
	}
	bcJoin := func(q *smoothscan.Query, arg func(string) any) *smoothscan.Query {
		return valRange(q.Join("d", "g", "d_cat"), arg).Where("d_id", smoothscan.Lt(arg("dhi")))
	}
	// topN aggregates, orders the groups and limits them by $n: the
	// parameter lives only above the gather.
	topN := func(col string, q *smoothscan.Query, arg func(string) any) *smoothscan.Query {
		return q.GroupBy(col, smoothscan.Count(), smoothscan.Sum("p")).OrderBy(col).Limit(arg("n"))
	}
	// Each bind list holds a wide bind, a single-value val range (one
	// shard of t under hash(val)), an empty range and a middling one.
	return []stratShape{
		{"scan", "scan", false, valRange, []smoothscan.Bind{
			{"lo": 0, "hi": rsDomain}, {"lo": 37, "hi": 38}, {"lo": 700, "hi": 600}, {"lo": 300, "hi": 900},
		}},
		{"scan-topn", "scan", true,
			func(q *smoothscan.Query, arg func(string) any) *smoothscan.Query {
				return topN("g", valRange(q, arg), arg)
			},
			[]smoothscan.Bind{
				{"lo": 0, "hi": rsDomain, "n": 5}, {"lo": 37, "hi": 38, "n": 3}, {"lo": 700, "hi": 600, "n": 4}, {"lo": 300, "hi": 900, "n": 100},
			}},
		{"pw", "partition-wise", false, pwJoin, []smoothscan.Bind{
			{"lo": 0, "hi": rsDomain, "dhi": 500}, {"lo": 37, "hi": 38, "dhi": 500}, {"lo": 90, "hi": 10, "dhi": 500}, {"lo": 10, "hi": 80, "dhi": 250},
		}},
		{"pw-topn", "partition-wise", true,
			func(q *smoothscan.Query, arg func(string) any) *smoothscan.Query {
				return topN("d_cat", pwJoin(q, arg), arg)
			},
			[]smoothscan.Bind{
				{"lo": 0, "hi": rsDomain, "dhi": 500, "n": 5}, {"lo": 37, "hi": 38, "dhi": 500, "n": 2}, {"lo": 90, "hi": 10, "dhi": 500, "n": 5}, {"lo": 10, "hi": 80, "dhi": 250, "n": 100},
			}},
		{"bc", "broadcast", false, bcJoin, []smoothscan.Bind{
			{"lo": 0, "hi": rsDomain, "dhi": 40}, {"lo": 37, "hi": 38, "dhi": 40}, {"lo": 700, "hi": 600, "dhi": 40}, {"lo": 300, "hi": 900, "dhi": 16},
		}},
		{"bc-topn", "broadcast", true,
			func(q *smoothscan.Query, arg func(string) any) *smoothscan.Query {
				return topN("d_w", bcJoin(q, arg), arg)
			},
			[]smoothscan.Bind{
				{"lo": 0, "hi": rsDomain, "dhi": 40, "n": 5}, {"lo": 37, "hi": 38, "dhi": 40, "n": 2}, {"lo": 700, "hi": 600, "dhi": 40, "n": 5}, {"lo": 300, "hi": 900, "dhi": 16, "n": 100},
			}},
	}
}

// TestShardedStmtStrategies prepares one statement per scatter strategy
// × shape on an in-process and a remote sharded engine, and requires
// every bind to return the rows of the literal query and of the
// unsharded statement, to run the plan Explain shows, and — for a
// single-value range outside broadcast — to prune to one shard.
func TestShardedStmtStrategies(t *testing.T) {
	ctx := context.Background()
	oracle := rsUnsharded(t)
	local, err := smoothscan.OpenSharded(3, smoothscan.Options{PoolPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	loadRemoteShardedTables(t, local, rsParts("hash", 3))
	engines := []struct {
		name string
		s    *smoothscan.ShardedDB
	}{
		{"in-process-N3", local},
		{"remote-N2", buildRemoteSharded(t, 2, "hash").remote},
	}
	param := func(name string) any { return smoothscan.Param(name) }
	for _, eng := range engines {
		for _, c := range stratShapes() {
			eng, c := eng, c
			t.Run(eng.name+"/"+c.name, func(t *testing.T) {
				un, err := oracle.Prepare(c.build(oracle.Query("t"), param))
				if err != nil {
					t.Fatal(err)
				}
				st, err := eng.s.Prepare(c.build(eng.s.Query("t"), param))
				if err != nil {
					t.Fatal(err)
				}
				for _, b := range c.binds {
					lit := func(name string) any { return b[name] }
					rows, err := st.Run(ctx, b)
					if err != nil {
						t.Fatalf("bind %v: %v", b, err)
					}
					ran := rows.Plan().String()
					got := drainSharded(t, rows, nil)
					requireSameRows(t, stmtDrain(t, un, ctx, b), got, c.exact)
					requireSameRows(t, runDrain(t, c.build(eng.s.Query("t"), lit), ctx), got, c.exact)

					p, err := st.Explain(b)
					if err != nil {
						t.Fatal(err)
					}
					if p.String() != ran {
						t.Errorf("bind %v: Explain differs from the plan Run executed:\n%s\nvs\n%s", b, p.String(), ran)
					}
					if p.Sharded.Strategy != c.strategy {
						t.Errorf("strategy %q, want %q", p.Sharded.Strategy, c.strategy)
					}
					if c.strategy != "broadcast" && b["hi"]-b["lo"] == 1 {
						active := 0
						for _, sp := range p.Sharded.Shards {
							if !sp.Pruned {
								active++
							}
						}
						if active != 1 {
							t.Errorf("bind %v runs %d shards, want 1:\n%s", b, active, p.String())
						}
					}
				}
				for i := 0; i < 2; i++ {
					if err := st.Close(); err != nil {
						t.Fatalf("Close #%d: %v", i+1, err)
					}
				}
			})
		}
	}
}

// TestRemoteShardedStats: the per-shard breakdown of a remote
// execution carries each node's address, its I/O summary shipped over
// the wire, and the shard row counts from the catalog.
func TestRemoteShardedStats(t *testing.T) {
	ctx := context.Background()
	fx := buildRemoteSharded(t, 2, "range")
	rows, err := fx.remote.Query("t").Where("val", smoothscan.Between(0, rsDomain)).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
	}
	if rows.Err() != nil {
		t.Fatal(rows.Err())
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	st := rows.ExecStats()
	if len(st.Shards) != 2 {
		t.Fatalf("want 2 shard stats, got %d", len(st.Shards))
	}
	var totalRows int64
	for i, sh := range st.Shards {
		if sh.Addr != fx.addrs[i] {
			t.Errorf("shard %d: addr %q, want %q", i, sh.Addr, fx.addrs[i])
		}
		if sh.Pruned {
			t.Errorf("shard %d unexpectedly pruned", i)
			continue
		}
		if sh.IO.PagesRead == 0 {
			t.Errorf("shard %d: no pages read in remote I/O summary", i)
		}
		if sh.Unavailable {
			t.Errorf("shard %d flagged unavailable on a healthy run", i)
		}
		totalRows += sh.Rows
	}
	if totalRows != st.RowsReturned || totalRows == 0 {
		t.Errorf("per-shard rows %d != returned %d", totalRows, st.RowsReturned)
	}
	if st.IO.PagesRead == 0 {
		t.Error("summed IO empty")
	}

	counts, err := fx.remote.ShardRows("t")
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, c := range counts {
		n += c
	}
	if n != rsRowCount {
		t.Errorf("ShardRows sums to %d, want %d", n, rsRowCount)
	}

	// The plan names the nodes.
	p, err := fx.remote.Query("t").Where("val", smoothscan.Between(0, 100)).Explain()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.String(), "@"+fx.addrs[0]) {
		t.Errorf("plan does not name shard 0's node:\n%s", p.String())
	}
}

// TestRemoteShardedEarlyClosePoolReuse: an ordered top-5 over two
// remote shards closes each shard's stream while the rest of its result
// is still in flight. Closing must read through to the Cancel's
// acknowledgement so the pooled connection goes back in step; a
// desynchronised one would be marked broken and re-dialed, which each
// node's session count would show.
func TestRemoteShardedEarlyClosePoolReuse(t *testing.T) {
	ctx := context.Background()
	fx := buildRemoteSharded(t, 2, "hash")
	const poolCap = 8 // the remote driver's idle connections per shard
	before := make([]int64, len(fx.srvs))
	for i, srv := range fx.srvs {
		before[i] = srv.Stats().SessionsTotal
	}
	for i := 0; i < 20; i++ {
		q := func(s *smoothscan.ShardedDB) *smoothscan.Query {
			return s.Query("t").Where("val", smoothscan.Ge(int64(i*50))).OrderBy("id").Limit(5)
		}
		want := runDrain(t, q(fx.local), ctx)
		got := runDrain(t, q(fx.remote), ctx)
		if len(want) != 5 {
			t.Fatalf("query %d: in-process sharded run returned %d rows, want 5", i, len(want))
		}
		requireSameRows(t, want, got, true)
	}
	for i, srv := range fx.srvs {
		if grown := srv.Stats().SessionsTotal - before[i]; grown > poolCap {
			t.Errorf("node %d: %d sessions opened over 20 queries, want at most %d (connections re-dialed after desynchronising)",
				i, grown, poolCap)
		}
	}
}

// TestRemoteShardedErrorParity: a typed engine fault injected on one
// node crosses the wire with its error class intact, exactly as for an
// unsharded remote query.
func TestRemoteShardedErrorParity(t *testing.T) {
	ctx := context.Background()
	fx := buildRemoteSharded(t, 2, "range")
	// Rate-1 permanent faults on node 0's device.
	ctl, err := smoothscan.Dial(fx.addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	if err := ctl.SetFaultPolicy(7, smoothscan.FaultRule{Space: smoothscan.AnySpace, Kind: smoothscan.FaultPermanent, Rate: 1}); err != nil {
		t.Fatal(err)
	}
	defer ctl.ClearFaultPolicy()
	if err := fx.remote.ColdCache(); err != nil {
		t.Fatal(err)
	}
	rows, err := fx.remote.Query("t").Where("val", smoothscan.Between(0, rsDomain)).Run(ctx)
	if err == nil {
		for rows.Next() {
		}
		err = rows.Err()
		rows.Close()
	}
	if err == nil {
		t.Fatal("rate-1 permanent faults did not surface an error")
	}
	if !smoothscan.IsFaultError(err) {
		t.Fatalf("error lost its fault class over the wire: %v", err)
	}
	if smoothscan.IsTransientFault(err) {
		t.Fatalf("permanent fault classified transient: %v", err)
	}
	if errors.Is(err, smoothscan.ErrShardUnavailable) {
		t.Fatalf("engine fault misclassified as shard unavailability: %v", err)
	}
}

// TestRemoteShardedFailover: killing a shard node surfaces a typed
// ErrShardUnavailable — before a query (dial retry exhaustion) and
// mid-query (stream death) — flags the shard in ExecStats, leaks no
// goroutines, and recovers once a node is back on the address.
func TestRemoteShardedFailover(t *testing.T) {
	ctx := context.Background()
	fx := buildRemoteSharded(t, 2, "range")
	query := func() *smoothscan.Query {
		return fx.remote.Query("t").Where("val", smoothscan.Between(0, rsDomain))
	}
	// Healthy baseline.
	want := runDrain(t, query(), ctx)

	runtime.GC()
	base := runtime.NumGoroutine()

	// Kill node 1 and run: whether the failure lands at open (fresh
	// dial refused) or mid-stream (pooled connection dead), the error
	// must be ErrShardUnavailable.
	fx.srvs[1].Close()
	rows, err := query().Run(ctx)
	if err == nil {
		for rows.Next() {
		}
		err = rows.Err()
		if cerr := rows.Close(); err == nil {
			err = cerr
		}
		if err != nil && errors.Is(err, smoothscan.ErrShardUnavailable) {
			st := rows.ExecStats()
			if len(st.Shards) == 2 && !st.Shards[1].Unavailable {
				t.Error("dead shard not flagged Unavailable in ExecStats")
			}
		}
	}
	if err == nil {
		t.Fatal("query against a dead shard node succeeded")
	}
	if !errors.Is(err, smoothscan.ErrShardUnavailable) {
		t.Fatalf("want ErrShardUnavailable, got: %v", err)
	}
	smoothscan.WaitGoroutines(t, base)

	// Restart a server for the same backing shard on the same address:
	// the driver re-dials and the query heals.
	srv := server.New(fx.backing[1], server.Config{FaultAdmin: true})
	var serr error
	for attempt := 0; attempt < 50; attempt++ {
		if serr = srv.Start(fx.addrs[1]); serr == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if serr != nil {
		t.Fatalf("rebind %s: %v", fx.addrs[1], serr)
	}
	t.Cleanup(func() { srv.Close() })
	got := runDrain(t, query(), ctx)
	requireSameRows(t, want, got, false)
}

// TestRemoteShardedFailoverPrepared: a shard node dying between a
// statement's runs surfaces ErrShardUnavailable from Run, and the
// statement heals when the node returns (the driver re-dials).
func TestRemoteShardedFailoverPrepared(t *testing.T) {
	ctx := context.Background()
	fx := buildRemoteSharded(t, 2, "range")
	st, err := fx.remote.Prepare(fx.remote.Query("t").
		Where("val", smoothscan.Between(smoothscan.Param("lo"), smoothscan.Param("hi"))))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	bind := smoothscan.Bind{"lo": 0, "hi": rsDomain}
	want := stmtDrain(t, st, ctx, bind)

	runtime.GC()
	base := runtime.NumGoroutine()

	fx.srvs[0].Close()
	rows, err := st.Run(ctx, bind)
	if err == nil {
		for rows.Next() {
		}
		err = rows.Err()
		if cerr := rows.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		t.Fatal("prepared run against a dead shard node succeeded")
	}
	if !errors.Is(err, smoothscan.ErrShardUnavailable) {
		t.Fatalf("want ErrShardUnavailable, got: %v", err)
	}
	smoothscan.WaitGoroutines(t, base)

	srv := server.New(fx.backing[0], server.Config{FaultAdmin: true})
	var serr error
	for attempt := 0; attempt < 50; attempt++ {
		if serr = srv.Start(fx.addrs[0]); serr == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if serr != nil {
		t.Fatalf("rebind %s: %v", fx.addrs[0], serr)
	}
	t.Cleanup(func() { srv.Close() })
	got := stmtDrain(t, st, ctx, bind)
	requireSameRows(t, want, got, false)
}

// TestRemoteShardedBroadcastDrainErrors: the broadcast-side drain (the
// coordinator pulling the replicated input batch by batch before the
// workers start) keeps errors typed — an engine fault on a node stays a
// fault, a dead node is ErrShardUnavailable — releases its cursor on
// the way out, and the same query heals once the cause is gone.
func TestRemoteShardedBroadcastDrainErrors(t *testing.T) {
	ctx := context.Background()
	fx := buildRemoteSharded(t, 2, "range")
	query := func(s *smoothscan.ShardedDB) *smoothscan.Query {
		return s.Query("t").Join("d", "g", "d_cat").Where("val", smoothscan.Between(200, 500))
	}
	runErr := func() error {
		rows, err := query(fx.remote).Run(ctx)
		if err == nil {
			for rows.Next() {
			}
			err = rows.Err()
			if cerr := rows.Close(); err == nil {
				err = cerr
			}
		}
		return err
	}
	want := runDrain(t, query(fx.local), ctx)

	ctl, err := smoothscan.Dial(fx.addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	if err := ctl.SetFaultPolicy(7, smoothscan.FaultRule{Space: smoothscan.AnySpace, Kind: smoothscan.FaultPermanent, Rate: 1}); err != nil {
		t.Fatal(err)
	}
	if err := fx.remote.ColdCache(); err != nil {
		t.Fatal(err)
	}
	if err := runErr(); !smoothscan.IsFaultError(err) || errors.Is(err, smoothscan.ErrShardUnavailable) {
		t.Fatalf("engine fault under a broadcast join surfaced as: %v", err)
	}
	if err := ctl.ClearFaultPolicy(); err != nil {
		t.Fatal(err)
	}
	requireSameRows(t, want, runDrain(t, query(fx.remote), ctx), false)

	runtime.GC()
	base := runtime.NumGoroutine()
	fx.srvs[1].Close()
	if err := runErr(); !errors.Is(err, smoothscan.ErrShardUnavailable) {
		t.Fatalf("dead node under a broadcast join: want ErrShardUnavailable, got: %v", err)
	}
	smoothscan.WaitGoroutines(t, base)
}

// TestRemoteShardedReadOnly: load-time mutators are refused on a
// remote topology — data lives on the nodes.
func TestRemoteShardedReadOnly(t *testing.T) {
	fx := buildRemoteSharded(t, 2, "range")
	if _, err := fx.remote.CreateShardedTable("x", smoothscan.HashPartitioning("a", 2), "a"); err == nil {
		t.Error("CreateShardedTable succeeded on a remote topology")
	}
	if err := fx.remote.Insert("t", 1, 2, 3, 4); err == nil {
		t.Error("Insert succeeded on a remote topology")
	}
	if err := fx.remote.CreateIndex("t", "p"); err == nil {
		t.Error("CreateIndex succeeded on a remote topology")
	}
	if err := fx.remote.Analyze("t", "val"); err == nil {
		t.Error("Analyze succeeded on a remote topology")
	}
}
