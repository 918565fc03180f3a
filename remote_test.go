package smoothscan_test

// Remote-equivalence tests: the same engine, queried in-process and
// through cmd/ssserver's wire protocol, must produce identical
// results. The server here is handed the *same* DB instance the local
// queries run against, so any divergence is the wire layer's fault —
// encoding, batching, cursor paging or error mapping — and not a data
// generation artifact.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"smoothscan"
	"smoothscan/internal/loadgen"
	"smoothscan/internal/server"
	"smoothscan/internal/wire"
)

// remoteFixture is one shared DB served both ways.
type remoteFixture struct {
	db   *smoothscan.DB
	srv  *server.Server
	addr string
}

func buildRemoteFixture(t *testing.T) *remoteFixture {
	t.Helper()
	db, err := loadgen.BuildDB(6000, 1500, 7, smoothscan.Options{PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	// A dimension table keyed by the fact table's indexed column, so
	// the join grid has a matching row for every t.val.
	dt, err := db.CreateTable("d", "d_id", "d_w")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 1500; i++ {
		if err := dt.Append(i, i%7); err != nil {
			t.Fatal(err)
		}
	}
	if err := dt.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("d", "d_id"); err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, server.Config{FaultAdmin: true})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return &remoteFixture{db: db, srv: srv, addr: srv.Addr().String()}
}

func (f *remoteFixture) dial(t *testing.T) *smoothscan.Conn {
	t.Helper()
	c, err := smoothscan.Dial(f.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// drainCursor and collect are the single result path for every
// backend: the local DB, the remote Conn (and a ShardedDB, were one in
// play) all surface the uniform *smoothscan.Rows, so there is no
// per-backend drain code whose differences could mask a divergence.
func drainCursor(t *testing.T, cur *smoothscan.Rows, err error) [][]int64 {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	var out [][]int64
	for cur.Next() {
		out = append(out, slices.Clone(cur.Row()))
	}
	if cur.Err() != nil {
		t.Fatal(cur.Err())
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

func collect(t *testing.T, b *smoothscan.Query) [][]int64 {
	t.Helper()
	cur, err := b.Run(context.Background())
	return drainCursor(t, cur, err)
}

func sortRows(rows [][]int64) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
}

// requireSameRows compares two result sets value for value. Ordered
// plans must match in sequence; unordered ones as multisets (parallel
// fan-in interleaving is legitimately nondeterministic on both sides
// of the wire).
func requireSameRows(t *testing.T, local, remote [][]int64, ordered bool) {
	t.Helper()
	if len(local) != len(remote) {
		t.Fatalf("row counts differ: local %d, remote %d", len(local), len(remote))
	}
	if !ordered {
		sortRows(local)
		sortRows(remote)
	}
	for i := range local {
		if len(local[i]) != len(remote[i]) {
			t.Fatalf("row %d: widths differ: local %d, remote %d", i, len(local[i]), len(remote[i]))
		}
		for j := range local[i] {
			if local[i][j] != remote[i][j] {
				t.Fatalf("row %d col %d: local %d, remote %d", i, j, local[i][j], remote[i][j])
			}
		}
	}
}

// TestRemoteEquivalenceGrid runs the access-path × parallelism ×
// join grid both ways and requires identical results.
func TestRemoteEquivalenceGrid(t *testing.T) {
	f := buildRemoteFixture(t)
	c := f.dial(t)

	paths := []struct {
		name string
		path smoothscan.AccessPath
	}{
		{"smooth", smoothscan.PathSmooth},
		{"index", smoothscan.PathIndex},
		{"full", smoothscan.PathFull},
	}
	const lo, hi = 100, 400
	for _, p := range paths {
		for _, par := range []int{1, 4} {
			for _, join := range []bool{false, true} {
				name := fmt.Sprintf("%s/p%d/join=%v", p.name, par, join)
				t.Run(name, func(t *testing.T) {
					opts := smoothscan.ScanOptions{Path: p.path, Parallelism: par}
					// One query definition, two engines: the Engine
					// interface guarantees the builders are the same calls.
					build := func(e smoothscan.Engine) *smoothscan.Query {
						b := e.Table(loadgen.Table).
							Where(loadgen.IndexedCol, smoothscan.Between(lo, hi)).
							WithOptions(opts)
						if join {
							b = b.Join("d", loadgen.IndexedCol, "d_id")
						}
						return b
					}
					local := collect(t, build(f.db))
					remote := collect(t, build(c))
					if len(local) == 0 {
						t.Fatal("grid case matched no rows; fixture is broken")
					}
					requireSameRows(t, local, remote, false)
				})
			}
		}
	}
}

// TestRemoteEquivalenceOrdered pins the stronger sequence-identical
// property for ordered output, which is deterministic on both sides.
func TestRemoteEquivalenceOrdered(t *testing.T) {
	f := buildRemoteFixture(t)
	c := f.dial(t)
	build := func(e smoothscan.Engine) *smoothscan.Query {
		return e.Table(loadgen.Table).
			Where(loadgen.IndexedCol, smoothscan.Between(200, 900)).
			WithOptions(smoothscan.ScanOptions{Ordered: true})
	}
	requireSameRows(t, collect(t, build(f.db)), collect(t, build(c)), true)
}

// TestRemoteEquivalenceShaped covers the rest of the builder surface —
// Select, GroupBy aggregates, OrderBy, Limit — through both paths.
func TestRemoteEquivalenceShaped(t *testing.T) {
	f := buildRemoteFixture(t)
	c := f.dial(t)

	t.Run("select-order-limit", func(t *testing.T) {
		build := func(e smoothscan.Engine) *smoothscan.Query {
			return e.Table(loadgen.Table).
				Where(loadgen.IndexedCol, smoothscan.Ge(1200)).
				Select("id", loadgen.IndexedCol).
				OrderBy("id").
				Limit(37)
		}
		requireSameRows(t, collect(t, build(f.db)), collect(t, build(c)), true)
	})

	t.Run("groupby-aggregates", func(t *testing.T) {
		build := func(e smoothscan.Engine) *smoothscan.Query {
			return e.Table(loadgen.Table).
				Where(loadgen.IndexedCol, smoothscan.Lt(300)).
				Join("d", loadgen.IndexedCol, "d_id").
				GroupBy("d_w", smoothscan.Count().As("n"), smoothscan.Sum("p1").As("s"), smoothscan.Min("p2"), smoothscan.Max("p3")).
				OrderBy("d_w")
		}
		local := collect(t, build(f.db))
		remote := collect(t, build(c))
		if len(local) == 0 {
			t.Fatal("aggregate case produced no groups")
		}
		requireSameRows(t, local, remote, true)
	})
}

// TestRemotePreparedEquivalence binds the same parameterized template
// through DB.PrepareQuery and Conn.PrepareQuery across several bind
// sets.
func TestRemotePreparedEquivalence(t *testing.T) {
	f := buildRemoteFixture(t)
	c := f.dial(t)

	build := func(e smoothscan.Engine) *smoothscan.Query {
		return e.Table(loadgen.Table).
			Where(loadgen.IndexedCol, smoothscan.Between(smoothscan.Param("lo"), smoothscan.Param("hi"))).
			Limit(smoothscan.Param("n"))
	}
	lstmt, err := f.db.PrepareQuery(build(f.db))
	if err != nil {
		t.Fatal(err)
	}
	rstmt, err := c.PrepareQuery(build(c))
	if err != nil {
		t.Fatal(err)
	}
	lp, rp := lstmt.Params(), rstmt.Params()
	if len(lp) != len(rp) {
		t.Fatalf("parameter lists differ: local %v, remote %v", lp, rp)
	}
	for i := range lp {
		if lp[i] != rp[i] {
			t.Fatalf("parameter lists differ: local %v, remote %v", lp, rp)
		}
	}
	for _, b := range []smoothscan.Bind{
		{"lo": 0, "hi": 120, "n": 1000},
		{"lo": 700, "hi": 730, "n": 5},
		{"lo": 1400, "hi": 1500, "n": 1 << 30},
	} {
		lrows, lerr := lstmt.Run(context.Background(), b)
		local := drainCursor(t, lrows, lerr)
		rrows, rerr := rstmt.Run(context.Background(), b)
		remote := drainCursor(t, rrows, rerr)
		requireSameRows(t, local, remote, false)
	}
	if err := rstmt.Close(); err != nil {
		t.Fatal(err)
	}
	if err := lstmt.Close(); err != nil {
		t.Fatal(err)
	}

	// A builder from one engine cannot be prepared by another.
	if _, err := f.db.PrepareQuery(build(c)); err == nil {
		t.Fatal("DB.PrepareQuery accepted a remote connection's builder")
	}
	if _, err := c.PrepareQuery(build(f.db)); err == nil {
		t.Fatal("Conn.PrepareQuery accepted a local DB's builder")
	}
}

// TestRemotePlanCacheHit pins what ExecStats.PlanCacheHit means across
// the wire, where every run is one Execute and the server probes its
// plan cache for each: an ad-hoc shape misses once and then hits, as it
// does locally, and a remote statement's runs hit because its Prepare
// cached the shape. On a server without a plan cache nothing hits: a
// remote statement's template lives nowhere, so each run compiles it.
// The server's hit and miss counters count the same probes.
func TestRemotePlanCacheHit(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name      string
		planCache int
		hit       bool
	}{{"cache", 0, true}, {"no-cache", -1, false}} {
		t.Run(tc.name, func(t *testing.T) {
			db, err := loadgen.BuildDB(2000, 1000, 7, smoothscan.Options{PoolPages: 128, PlanCache: tc.planCache})
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
			hit := func(cur *smoothscan.Rows, err error) bool {
				t.Helper()
				drainCursor(t, cur, err)
				return cur.ExecStats().PlanCacheHit
			}
			adhoc := func(lo int64) bool {
				return hit(c.Table(loadgen.Table).Where(loadgen.IndexedCol, smoothscan.Between(lo, lo+10)).Run(ctx))
			}
			if adhoc(0) {
				t.Error("first ad-hoc run of a shape hit the plan cache")
			}
			if got := adhoc(100); got != tc.hit {
				t.Errorf("second ad-hoc run of the shape: PlanCacheHit %v, want %v", got, tc.hit)
			}
			stmt, err := c.PrepareQuery(c.Table(loadgen.Table).Where(loadgen.IndexedCol,
				smoothscan.Between(smoothscan.Param("lo"), smoothscan.Param("hi"))))
			if err != nil {
				t.Fatal(err)
			}
			for i := int64(0); i < 3; i++ {
				if got := hit(stmt.Run(ctx, smoothscan.Bind{"lo": i * 10, "hi": i*10 + 10})); got != tc.hit {
					t.Errorf("statement run %d: PlanCacheHit %v, want %v", i, got, tc.hit)
				}
			}
			st, err := c.ServerStats()
			if err != nil {
				t.Fatal(err)
			}
			// Two ad-hoc runs, one Prepare, three statement runs.
			if want := map[bool][2]int64{true: {4, 2}, false: {0, 0}}[tc.hit]; [2]int64{st.PlanCacheHits, st.PlanCacheMisses} != want {
				t.Errorf("server plan cache hits/misses %d/%d, want %d/%d",
					st.PlanCacheHits, st.PlanCacheMisses, want[0], want[1])
			}
		})
	}
}

// TestRemoteStmtLifecycle holds more remote statements on one session
// than any per-session table would have to, runs them in prepare order
// and in reverse, and checks each behaves like the local Stmt of the
// same query: parameters, rows, plan-cache reuse and bind-error text.
// Close is local: idempotent, and the closed statement refuses Run.
func TestRemoteStmtLifecycle(t *testing.T) {
	f := buildRemoteFixture(t)
	c := f.dial(t)
	ctx := context.Background()

	build := func(e smoothscan.Engine) *smoothscan.Query {
		return e.Table(loadgen.Table).
			Where(loadgen.IndexedCol, smoothscan.Between(smoothscan.Param("lo"), smoothscan.Param("hi"))).
			Limit(smoothscan.Param("n"))
	}
	lstmt, err := f.db.PrepareQuery(build(f.db))
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	stmts := make([]*smoothscan.Stmt, n)
	for i := range stmts {
		if stmts[i], err = c.PrepareQuery(build(c)); err != nil {
			t.Fatalf("prepare %d: %v", i, err)
		}
		if lp, rp := lstmt.Params(), stmts[i].Params(); !slices.Equal(lp, rp) {
			t.Fatalf("stmt %d: parameters local %v, remote %v", i, lp, rp)
		}
	}
	bind := func(i int) smoothscan.Bind {
		return smoothscan.Bind{"lo": int64(i * 35), "hi": int64(i*35 + 60), "n": 1000}
	}
	run := func(i int) {
		t.Helper()
		lcur, lerr := lstmt.Run(ctx, bind(i))
		local := drainCursor(t, lcur, lerr)
		rcur, rerr := stmts[i].Run(ctx, bind(i))
		remote := drainCursor(t, rcur, rerr)
		requireSameRows(t, local, remote, false)
		if !rcur.ExecStats().PlanCacheHit {
			t.Errorf("stmt %d: remote run missed the plan cache", i)
		}
	}
	for i := 0; i < n; i++ {
		run(i)
	}
	for i := n - 1; i >= 0; i-- {
		run(i)
	}

	for _, b := range []smoothscan.Bind{
		{"lo": 0, "hi": 10, "n": 5, "typo": 1}, // unknown parameter
		{"lo": 0},                              // unbound parameters
	} {
		_, lerr := lstmt.Run(ctx, b)
		_, rerr := stmts[n-1].Run(ctx, b)
		if lerr == nil || rerr == nil || !strings.HasSuffix(rerr.Error(), ": "+lerr.Error()) {
			t.Errorf("bind %v: remote error %v, want the local %v", b, rerr, lerr)
		}
	}

	if err := stmts[0].Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := stmts[0].Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := stmts[0].Run(ctx, bind(0)); err == nil {
		t.Fatal("Run on a closed Stmt succeeded")
	}
	run(1) // the other statements are untouched
}

// TestRemoteFaultPropagation injects faults via the admin frame and
// checks the typed error classes survive the wire: the same
// errors.Is/IsTransientFault answers a local run would give, never a
// generic I/O error.
func TestRemoteFaultPropagation(t *testing.T) {
	f := buildRemoteFixture(t)
	c := f.dial(t)

	run := func() error {
		rows, err := c.Table(loadgen.Table).
			Where(loadgen.IndexedCol, smoothscan.Between(0, 1500)).
			Run(context.Background())
		if err != nil {
			return err
		}
		for rows.Next() {
		}
		err = rows.Err()
		rows.Close()
		return err
	}

	// Permanent faults on every read: the engine cannot recover, and
	// the client must see the permanent class, not a wire error.
	if err := c.SetFaultPolicy(3, smoothscan.FaultRule{Space: smoothscan.AnySpace, Kind: smoothscan.FaultPermanent, Rate: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.ColdCache(); err != nil {
		t.Fatal(err)
	}
	err := run()
	if err == nil {
		t.Fatal("query under permanent faults succeeded")
	}
	if !errors.Is(err, smoothscan.ErrPermanentFault) {
		t.Fatalf("permanent fault class lost over the wire: %v", err)
	}
	if !smoothscan.IsFaultError(err) || smoothscan.IsTransientFault(err) {
		t.Fatalf("fault predicates wrong for %v", err)
	}
	if c.Broken() {
		t.Fatal("execution error broke the connection")
	}

	// Saturating transient faults exhaust the engine's bounded retry;
	// the client-visible class must be transient, the one retry loops
	// key on.
	if err := c.SetFaultPolicy(3, smoothscan.FaultRule{Space: smoothscan.AnySpace, Kind: smoothscan.FaultTransient, Rate: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.ColdCache(); err != nil {
		t.Fatal(err)
	}
	err = run()
	if err == nil {
		t.Fatal("query under saturating transient faults succeeded")
	}
	if !smoothscan.IsTransientFault(err) {
		t.Fatalf("transient fault class lost over the wire: %v", err)
	}

	// Clearing the policy restores service on the same connection.
	if err := c.ClearFaultPolicy(); err != nil {
		t.Fatal(err)
	}
	if err := c.ColdCache(); err != nil {
		t.Fatal(err)
	}
	if err := run(); err != nil {
		t.Fatalf("query after clearing faults: %v", err)
	}
}

// TestRemoteStmtFaultDegradation: with the server's index space dead, a
// parameterized remote Stmt.Run degrades down the same ladder a local
// Stmt.Run does — it re-binds with the statement's bind values — and
// returns the local run's rows and ExecStats.Degraded.
func TestRemoteStmtFaultDegradation(t *testing.T) {
	f := buildRemoteFixture(t)
	c := f.dial(t)
	ctx := context.Background()
	idx, err := f.db.IndexSpace(loadgen.Table, loadgen.IndexedCol)
	if err != nil {
		t.Fatal(err)
	}
	f.db.SetFaultPolicy(smoothscan.NewFaultPolicy(5, smoothscan.FaultRule{
		Space: idx, Kind: smoothscan.FaultPermanent, Rate: 1,
	}))
	bind := smoothscan.Bind{"lo": 100, "hi": 400}
	for _, opts := range []smoothscan.ScanOptions{
		{Path: smoothscan.PathIndex},
		{Path: smoothscan.PathSmooth, Parallelism: 2},
	} {
		t.Run(fmt.Sprintf("%s-p%d", opts.Path, opts.Parallelism), func(t *testing.T) {
			build := func(e smoothscan.Engine) *smoothscan.Query {
				return e.Table(loadgen.Table).
					Where(loadgen.IndexedCol, smoothscan.Between(smoothscan.Param("lo"), smoothscan.Param("hi"))).
					WithOptions(opts)
			}
			run := func(e smoothscan.Engine) ([][]int64, []string) {
				t.Helper()
				stmt, err := e.PrepareQuery(build(e))
				if err != nil {
					t.Fatal(err)
				}
				defer stmt.Close()
				if err := f.db.ColdCache(); err != nil {
					t.Fatal(err)
				}
				cur, err := stmt.Run(ctx, bind)
				rows := drainCursor(t, cur, err)
				return rows, cur.ExecStats().Degraded
			}
			local, ldeg := run(f.db)
			remote, rdeg := run(c)
			if len(ldeg) == 0 || !strings.Contains(ldeg[len(ldeg)-1], "full scan") {
				t.Fatalf("local run did not degrade to a full scan: %v", ldeg)
			}
			if !slices.Equal(ldeg, rdeg) {
				t.Errorf("remote Degraded %v, want the local %v", rdeg, ldeg)
			}
			requireSameRows(t, local, remote, false)
		})
	}
}

// TestRemoteRowsDoubleClose exercises the documented Close contracts
// on the live path: double Close of Rows mid-stream and after drain.
func TestRemoteRowsDoubleClose(t *testing.T) {
	f := buildRemoteFixture(t)
	c := f.dial(t)

	rows, err := c.Table(loadgen.Table).
		Where(loadgen.IndexedCol, smoothscan.Between(0, 1500)).
		Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no rows: %v", rows.Err())
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("mid-stream Close: %v", err)
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if rows.Next() {
		t.Fatal("Next advanced after Close")
	}

	// The connection is resynchronised; a drained stream closes clean
	// too, and its ExecStats carries the server's summary.
	rows2, err := c.Table(loadgen.Table).
		Where(loadgen.IndexedCol, smoothscan.Between(0, 100)).
		Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	n := int64(0)
	for rows2.Next() {
		n++
	}
	if rows2.Err() != nil {
		t.Fatal(rows2.Err())
	}
	if got := rows2.ExecStats().RowsReturned; got != n {
		t.Fatalf("ExecStats after the drain reports %d rows, want %d", got, n)
	}
	if err := rows2.Close(); err != nil {
		t.Fatalf("Close after drain: %v", err)
	}
	if err := rows2.Close(); err != nil {
		t.Fatalf("double Close after drain: %v", err)
	}
}

// TestRemoteContextCancel cancels a client context mid-stream and
// checks the error surfaces as context.Canceled while the connection
// is written off (the stream cannot be resynchronised without the
// server's cancel acknowledgement, which the aborted context skips
// waiting for).
func TestRemoteContextCancel(t *testing.T) {
	f := buildRemoteFixture(t)
	c := f.dial(t)

	ctx, cancel := context.WithCancel(context.Background())
	rows, err := c.Table(loadgen.Table).
		Where(loadgen.IndexedCol, smoothscan.Between(0, 1500)).
		WithOptions(smoothscan.ScanOptions{Path: smoothscan.PathFull, Parallelism: 4}).
		Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no rows before cancel: %v", rows.Err())
	}
	cancel()
	for rows.Next() {
	}
	if !errors.Is(rows.Err(), context.Canceled) {
		t.Fatalf("cancelled stream error: %v, want context.Canceled", rows.Err())
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("Close after cancel: %v", err)
	}
}

// TestCursorNoCurrentRow pins the end of the cursor contract on every
// engine, whose cursor is the one *smoothscan.Rows: Next is false after
// Close (and after the end) with Err unchanged, and while no row is
// current — before the first Next, after the end, after Close — Col
// reports false, CopyRow copies nothing and Column fails with ErrNoRow
// instead of panicking.
func TestCursorNoCurrentRow(t *testing.T) {
	f := buildRemoteFixture(t)
	sharded, err := loadgen.BuildShardedDB(6000, 1500, 7, 2, smoothscan.Options{PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	remote := f.dial(t)
	engines := []struct {
		name string
		e    smoothscan.Engine
	}{{"local", f.db}, {"sharded", sharded}, {"remote", remote}}
	states := []struct {
		name     string
		arrange  func(t *testing.T, cur *smoothscan.Rows)
		nextDone bool // Next must now report false, Err nil
	}{
		{"before-first-next", func(*testing.T, *smoothscan.Rows) {}, false},
		{"closed-mid-stream", func(t *testing.T, cur *smoothscan.Rows) {
			// The fixture's 6000 rows span several batches, so a
			// buffered batch is still pending here.
			if !cur.Next() {
				t.Fatalf("no first row: %v", cur.Err())
			}
			if err := cur.Close(); err != nil {
				t.Fatal(err)
			}
		}, true},
		{"drained", func(t *testing.T, cur *smoothscan.Rows) {
			for cur.Next() {
			}
		}, true},
		{"drained-and-closed", func(t *testing.T, cur *smoothscan.Rows) {
			for cur.Next() {
			}
			if err := cur.Close(); err != nil {
				t.Fatal(err)
			}
		}, true},
	}
	for _, eng := range engines {
		for _, st := range states {
			t.Run(eng.name+"/"+st.name, func(t *testing.T) {
				cur, err := eng.e.Table(loadgen.Table).
					Where(loadgen.IndexedCol, smoothscan.Between(0, 1500)).Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				defer cur.Close()
				st.arrange(t, cur)
				if st.nextDone && cur.Next() {
					t.Error("Next returned true")
				}
				if err := cur.Err(); err != nil {
					t.Errorf("Err = %v", err)
				}
				if v, ok := cur.Col(loadgen.IndexedCol); ok || v != 0 {
					t.Errorf("Col with no current row = (%d, %v), want (0, false)", v, ok)
				}
				if n := cur.CopyRow(make([]int64, 16)); n != 0 {
					t.Errorf("CopyRow with no current row copied %d values", n)
				}
				if row := cur.Row(); len(row) != 0 {
					t.Errorf("Row with no current row = %v", row)
				}
				if _, err := cur.Column(loadgen.IndexedCol); !errors.Is(err, smoothscan.ErrNoRow) {
					t.Errorf("Column with no current row: %v, want ErrNoRow", err)
				}
			})
		}
	}
}

// TestRemoteExecStatsIsTheSummary: a remote Rows reports the server's
// closing summary as its ExecStats, field for field — plan and result
// cache reuse, retry and fault counters included, none of them
// recomputed on the client. A raw-frame fake server sends a summary
// whose counters no real execution would produce together, so a field
// derived locally instead of copied shows up as a mismatch.
func TestRemoteExecStatsIsTheSummary(t *testing.T) {
	sum := wire.ExecSummary{
		Rows: 2, Retries: 3, FaultsSeen: 4, PlanCacheHit: true,
		Degraded:       []string{"smooth→full"},
		IO:             smoothscan.IOStats{Requests: 5, PagesRead: 6, Faults: 7, Retries: 8},
		ResultCacheHit: true, ResultCacheBytes: 99, ResultCacheAgeNs: 1234,
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var rows wire.Encoder
		rows.AppendBatch([]int64{1, 10, 2, 20}, 2, 2)
		for _, f := range []struct {
			typ     byte
			payload []byte
		}{
			{wire.MsgHelloOK, wire.HelloOK{Version: wire.Version}.Marshal()},
			{wire.MsgExecOK, wire.ExecOK{Cols: []string{"id", "val"}}.Marshal()},
			{wire.MsgBatch, rows.B},
			{wire.MsgEnd, wire.End{Summary: sum}.Marshal()},
		} {
			// HelloOK answers Hello and ExecOK Execute; Batch and End
			// follow ExecOK unasked.
			if f.typ == wire.MsgHelloOK || f.typ == wire.MsgExecOK {
				if _, _, err := wire.ReadFrame(conn); err != nil {
					return
				}
			}
			if wire.WriteFrame(conn, f.typ, f.payload) != nil {
				return
			}
		}
	}()
	c, err := smoothscan.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rows, err := c.Table("t").Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if st := rows.ExecStats(); !reflect.DeepEqual(st, smoothscan.ExecStats{}) {
		t.Errorf("ExecStats before the summary = %+v, want the zero value", st)
	}
	n := 0
	for rows.Next() {
		if v, err := rows.Column("val"); err != nil || v != int64(10*(n+1)) {
			t.Fatalf("row %d: Column(val) = %d, %v", n, v, err)
		}
		n++
	}
	if err := rows.Err(); err != nil || n != 2 {
		t.Fatalf("drained %d rows, err %v; want 2 rows", n, err)
	}
	want := smoothscan.ExecStats{
		IO: sum.IO, RowsReturned: 2, PlanCacheHit: true, Retries: 3, FaultsSeen: 4,
		Degraded:    []string{"smooth→full"},
		ResultCache: smoothscan.ResultCacheExec{Hit: true, Bytes: 99, Age: 1234 * time.Nanosecond},
	}
	if st := rows.ExecStats(); !reflect.DeepEqual(st, want) {
		t.Errorf("ExecStats = %+v\nwant        %+v", st, want)
	}
	if p := rows.Plan(); p != nil {
		t.Errorf("a remote Rows has plan %v, want nil", p)
	}
}
