package smoothscan_test

import (
	"context"
	"errors"
	"net"
	"testing"

	"smoothscan"
	"smoothscan/internal/loadgen"
	"smoothscan/internal/wire"
)

// threeEngines is one of each Engine over the loadgen table: the
// remote fixture's DB, a dialed Conn served by that same DB, and a
// two-shard ShardedDB.
func threeEngines(t *testing.T) (f *remoteFixture, conn *smoothscan.Conn, sharded *smoothscan.ShardedDB) {
	t.Helper()
	f = buildRemoteFixture(t)
	sharded, err := loadgen.BuildShardedDB(6000, 1500, 7, 2, smoothscan.Options{PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	return f, f.dial(t), sharded
}

// TestQueryEngineBinding pins that a query is bound to the engine that
// built it: every engine prepares its own queries and refuses another
// engine's, a Conn included, with one message through Prepare and
// PrepareQuery alike.
func TestQueryEngineBinding(t *testing.T) {
	f, conn, sharded := threeEngines(t)
	other, err := loadgen.BuildDB(6000, 1500, 7, smoothscan.Options{PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	const refusal = "smoothscan: Prepare of a query that was not built on this engine (nil or another engine's)"

	engines := []struct {
		name string
		e    smoothscan.Engine
	}{{"db", f.db}, {"sharded", sharded}, {"other-db", other}, {"conn", conn}}
	for _, mk := range engines {
		for _, prep := range engines {
			st, err := prep.e.PrepareQuery(mk.e.Table(loadgen.Table).Where(loadgen.IndexedCol, smoothscan.Lt(10)))
			if mk.name == prep.name {
				if err != nil {
					t.Errorf("%s.PrepareQuery(its own query): %v", prep.name, err)
				} else {
					st.Close()
				}
			} else if err == nil || err.Error() != refusal {
				t.Errorf("%s.PrepareQuery(%s query) = %v, want %q", prep.name, mk.name, err, refusal)
			}
		}
		if _, err := mk.e.PrepareQuery(nil); err == nil || err.Error() != refusal {
			t.Errorf("%s.PrepareQuery(nil) = %v, want %q", mk.name, err, refusal)
		}
	}
	// The concrete Prepare entry points refuse with the same message.
	for name, err := range map[string]error{
		"DB.Prepare(sharded query)":   func() error { _, err := f.db.Prepare(sharded.Query(loadgen.Table)); return err }(),
		"DB.Prepare(conn query)":      func() error { _, err := f.db.Prepare(conn.Table(loadgen.Table)); return err }(),
		"ShardedDB.Prepare(db query)": func() error { _, err := sharded.Prepare(f.db.Query(loadgen.Table)); return err }(),
	} {
		if err == nil || err.Error() != refusal {
			t.Errorf("%s = %v, want %q", name, err, refusal)
		}
	}
}

// TestRemoteExplainErrors: the wire carries no plans, so Explain on a
// Conn's query and statement is an error, not a panic or an empty plan.
func TestRemoteExplainErrors(t *testing.T) {
	f := buildRemoteFixture(t)
	c := f.dial(t)
	q := c.Table(loadgen.Table).Where(loadgen.IndexedCol, smoothscan.Between(smoothscan.Param("lo"), 100))
	if p, err := c.Table(loadgen.Table).Explain(); err == nil || p != nil {
		t.Errorf("remote Query.Explain = %v, %v; want an error", p, err)
	}
	st, err := c.PrepareQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if p, err := st.Explain(smoothscan.Bind{"lo": 1}); err == nil || p != nil {
		t.Errorf("remote Stmt.Explain = %v, %v; want an error", p, err)
	}
}

// TestStmtCloseRefusesRun: on every engine a closed statement refuses
// Run, and Close stays idempotent.
func TestStmtCloseRefusesRun(t *testing.T) {
	f, conn, sharded := threeEngines(t)
	for _, tc := range []struct {
		name string
		e    smoothscan.Engine
	}{{"db", f.db}, {"sharded", sharded}, {"conn", conn}} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := tc.e.PrepareQuery(tc.e.Table(loadgen.Table).
				Where(loadgen.IndexedCol, smoothscan.Between(smoothscan.Param("lo"), smoothscan.Param("hi"))))
			if err != nil {
				t.Fatal(err)
			}
			bind := smoothscan.Bind{"lo": 0, "hi": 20}
			rows, err := st.Run(context.Background(), bind)
			drainCursor(t, rows, err)
			for i := 0; i < 2; i++ {
				if err := st.Close(); err != nil {
					t.Fatalf("Close %d: %v", i+1, err)
				}
			}
			if rows, err := st.Run(context.Background(), bind); err == nil {
				rows.Close()
				t.Fatal("Run on a closed Stmt succeeded")
			}
		})
	}
}

// exportedSentinels is every error value the package exports for
// errors.Is.
var exportedSentinels = []error{
	smoothscan.ErrNoTable, smoothscan.ErrUnknownColumn, smoothscan.ErrNoIndex,
	smoothscan.ErrNotSelected, smoothscan.ErrScansOpen, smoothscan.ErrArgType,
	smoothscan.ErrUnboundParam, smoothscan.ErrUnknownParam, smoothscan.ErrNoRow,
	smoothscan.ErrNotSharded, smoothscan.ErrShardJoin, smoothscan.ErrShardUnavailable,
	smoothscan.ErrOverloaded, smoothscan.ErrSessionClosed, smoothscan.ErrConnLost, smoothscan.ErrBusy,
	smoothscan.ErrTransientFault, smoothscan.ErrPermanentFault, smoothscan.ErrPageCorrupt,
}

// TestEngineErrorConformance: a query fails alike on every engine. For
// each misuse, errors.Is against every exported sentinel gives the same
// answer on the DB, the ShardedDB and the Conn, and the expected
// sentinel is among the matches: the structural errors cross the wire
// as themselves, as the bind errors do.
func TestEngineErrorConformance(t *testing.T) {
	f, conn, sharded := threeEngines(t)
	ctx := context.Background()
	run := func(q *smoothscan.Query) error {
		rows, err := q.Run(ctx)
		if err != nil {
			return err
		}
		for rows.Next() {
		}
		err = rows.Err()
		rows.Close()
		return err
	}
	runStmt := func(e smoothscan.Engine, bind smoothscan.Bind) error {
		st, err := e.PrepareQuery(e.Table(loadgen.Table).
			Where(loadgen.IndexedCol, smoothscan.Between(smoothscan.Param("lo"), smoothscan.Param("hi"))))
		if err != nil {
			return err
		}
		defer st.Close()
		rows, err := st.Run(ctx, bind)
		if err == nil {
			rows.Close()
		}
		return err
	}
	cases := []struct {
		name  string
		want  error
		query func(e smoothscan.Engine) error
	}{
		{"unknown table", smoothscan.ErrNoTable, func(e smoothscan.Engine) error {
			return run(e.Table("nope").Where(loadgen.IndexedCol, smoothscan.Lt(10)))
		}},
		{"unknown Where column", smoothscan.ErrUnknownColumn, func(e smoothscan.Engine) error {
			return run(e.Table(loadgen.Table).Where("ghost", smoothscan.Lt(10)))
		}},
		{"unknown Select column", smoothscan.ErrUnknownColumn, func(e smoothscan.Engine) error {
			return run(e.Table(loadgen.Table).Where(loadgen.IndexedCol, smoothscan.Lt(10)).Select("id", "ghost"))
		}},
		{"unknown OrderBy column", smoothscan.ErrUnknownColumn, func(e smoothscan.Engine) error {
			return run(e.Table(loadgen.Table).Where(loadgen.IndexedCol, smoothscan.Lt(10)).OrderBy("ghost"))
		}},
		{"PathIndex on an unindexed column", smoothscan.ErrNoIndex, func(e smoothscan.Engine) error {
			return run(e.Table(loadgen.Table).Where("p1", smoothscan.Lt(10)).
				WithOptions(smoothscan.ScanOptions{Path: smoothscan.PathIndex}))
		}},
		{"GroupBy on a projected-away column", smoothscan.ErrNotSelected, func(e smoothscan.Engine) error {
			return run(e.Table(loadgen.Table).Where(loadgen.IndexedCol, smoothscan.Lt(10)).
				Select(loadgen.IndexedCol).GroupBy("p1", smoothscan.Count()))
		}},
		{"ad-hoc Param query", smoothscan.ErrUnboundParam, func(e smoothscan.Engine) error {
			return run(e.Table(loadgen.Table).Where(loadgen.IndexedCol, smoothscan.Lt(smoothscan.Param("hi"))))
		}},
		{"missing bind", smoothscan.ErrUnboundParam, func(e smoothscan.Engine) error {
			return runStmt(e, smoothscan.Bind{"lo": 0})
		}},
		{"extra bind", smoothscan.ErrUnknownParam, func(e smoothscan.Engine) error {
			return runStmt(e, smoothscan.Bind{"lo": 0, "hi": 20, "typo": 1})
		}},
	}
	engines := []struct {
		name string
		e    smoothscan.Engine
	}{{"db", f.db}, {"sharded", sharded}, {"conn", conn}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var ref []bool
			for _, eng := range engines {
				err := tc.query(eng.e)
				if !errors.Is(err, tc.want) {
					t.Errorf("%s: %v, want %v", eng.name, err, tc.want)
				}
				is := make([]bool, len(exportedSentinels))
				for i, s := range exportedSentinels {
					is[i] = errors.Is(err, s)
				}
				if ref == nil {
					ref = is
					continue
				}
				for i, s := range exportedSentinels {
					if is[i] != ref[i] {
						t.Errorf("errors.Is(%s's %v, %v) = %v, %s says %v", eng.name, err, s, is[i], engines[0].name, ref[i])
					}
				}
			}
		})
	}
}

// TestConnRefusesScopedFaultRule: the wire carries no space or page
// range, so Conn.SetFaultPolicy refuses a rule scoped by either —
// the whole policy, before anything is sent. A raw-frame fake server
// answers the handshake and reports any frame that follows.
func TestConnRefusesScopedFaultRule(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	sent := make(chan byte, 1)
	go func() {
		defer close(sent)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, _, err := wire.ReadFrame(conn); err != nil {
			return
		}
		if wire.WriteFrame(conn, wire.MsgHelloOK, wire.HelloOK{Version: wire.Version}.Marshal()) != nil {
			return
		}
		if typ, _, err := wire.ReadFrame(conn); err == nil {
			sent <- typ
		}
	}()
	c, err := smoothscan.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	unscoped := smoothscan.FaultRule{Space: smoothscan.AnySpace, Kind: smoothscan.FaultTransient, Rate: 0.5}
	for name, r := range map[string]smoothscan.FaultRule{
		"space":   {Space: 0, Kind: smoothscan.FaultTransient, Rate: 1},
		"page lo": {Space: smoothscan.AnySpace, PageLo: 2, Kind: smoothscan.FaultTransient, Rate: 1},
		"page hi": {Space: smoothscan.AnySpace, PageHi: 8, Kind: smoothscan.FaultPermanent, Rate: 1},
	} {
		if err := c.SetFaultPolicy(1, unscoped, r); err == nil {
			t.Errorf("a rule scoped by %s was accepted", name)
		}
	}
	if c.Broken() {
		t.Error("a refused policy broke the connection")
	}
	c.Close()
	if typ, ok := <-sent; ok {
		t.Errorf("frame %#02x reached the server", typ)
	}
}
