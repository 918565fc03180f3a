package smoothscan

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"smoothscan/internal/optimizer"
)

// buildWideDBWith is buildWideDB with explicit Options (plan-cache
// configuration) — same data, same indexes.
func buildWideDBWith(t testing.TB, opts Options, n, valDomain, catDomain int64) *DB {
	t.Helper()
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := db.CreateTable("t", "id", "val", "cat", "payload")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < n; i++ {
		if err := tb.Append(i, (i*7919)%valDomain, (i*104729)%catDomain, i%1000); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.Finish(); err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"val", "cat"} {
		if err := db.CreateIndex("t", col); err != nil {
			t.Fatal(err)
		}
	}
	db.ResetStats()
	return db
}

// TestStmtRunMatchesLiteralQuery is the equivalence property test:
// across predicate shapes, access paths, parallelism, grouping,
// ordering, limits and joins, executing a prepared statement with
// bound constants returns exactly the rows and charges exactly the
// simulated device cost of the equivalent literal ad-hoc query (run
// on an identically built second DB).
func TestStmtRunMatchesLiteralQuery(t *testing.T) {
	type qcase struct {
		name    string
		literal func(db *DB) *Query
		param   func(db *DB) *Query
		bind    Bind
	}
	cases := []qcase{
		{
			name:    "between",
			literal: func(db *DB) *Query { return db.Query("t").Where("val", Between(100, 900)) },
			param: func(db *DB) *Query {
				return db.Query("t").Where("val", Between(Param("lo"), Param("hi")))
			},
			bind: Bind{"lo": 100, "hi": 900},
		},
		{
			name: "multi-conjunct driving pick",
			literal: func(db *DB) *Query {
				return db.Query("t").Where("val", Between(1000, 4000)).Where("cat", Eq(7)).Where("payload", Lt(500))
			},
			param: func(db *DB) *Query {
				return db.Query("t").Where("val", Between(Param("vlo"), Param("vhi"))).
					Where("cat", Eq(Param("c"))).Where("payload", Lt(500))
			},
			bind: Bind{"vlo": 1000, "vhi": 4000, "c": 7},
		},
		{
			name: "comparison kinds intersect",
			literal: func(db *DB) *Query {
				return db.Query("t").Where("val", Ge(200)).Where("val", Le(800)).Where("val", Gt(199))
			},
			param: func(db *DB) *Query {
				return db.Query("t").Where("val", Ge(Param("a"))).Where("val", Le(Param("b"))).Where("val", Gt(199))
			},
			bind: Bind{"a": 200, "b": 800},
		},
		{
			// A unique sort key: the fan-in's row order varies, so
			// ties on a non-unique key would too.
			name: "ordered parallel",
			literal: func(db *DB) *Query {
				return db.Query("t").Where("val", Between(0, 5000)).
					WithOptions(ScanOptions{Path: PathFull, Parallelism: 4}).OrderBy("id")
			},
			param: func(db *DB) *Query {
				return db.Query("t").Where("val", Between(Param("lo"), Param("hi"))).
					WithOptions(ScanOptions{Path: PathFull, Parallelism: 4}).OrderBy("id")
			},
			bind: Bind{"lo": 0, "hi": 5000},
		},
		{
			name: "group-agg-order-limit",
			literal: func(db *DB) *Query {
				return db.Query("t").Where("val", Between(0, 3000)).Select("cat", "payload").
					GroupBy("cat", Sum("payload"), Count()).OrderBy("cat").Limit(9)
			},
			param: func(db *DB) *Query {
				return db.Query("t").Where("val", Between(Param("lo"), Param("hi"))).Select("cat", "payload").
					GroupBy("cat", Sum("payload"), Count()).OrderBy("cat").Limit(Param("n"))
			},
			bind: Bind{"lo": 0, "hi": 3000, "n": 9},
		},
		{
			name: "forced paths",
			literal: func(db *DB) *Query {
				return db.Query("t").Where("val", Between(500, 600)).
					WithOptions(ScanOptions{Path: PathIndex})
			},
			param: func(db *DB) *Query {
				return db.Query("t").Where("val", Between(Param("lo"), Param("hi"))).
					WithOptions(ScanOptions{Path: PathIndex})
			},
			bind: Bind{"lo": 500, "hi": 600},
		},
		{
			name: "auto path with stats",
			literal: func(db *DB) *Query {
				return db.Query("t").Where("val", Between(0, 9000)).
					WithOptions(ScanOptions{Path: PathAuto})
			},
			param: func(db *DB) *Query {
				return db.Query("t").Where("val", Between(Param("lo"), Param("hi"))).
					WithOptions(ScanOptions{Path: PathAuto})
			},
			bind: Bind{"lo": 0, "hi": 9000},
		},
		{
			name:    "contradiction short-circuit",
			literal: func(db *DB) *Query { return db.Query("t").Where("val", Gt(800)).Where("val", Lt(20)) },
			param: func(db *DB) *Query {
				return db.Query("t").Where("val", Gt(Param("a"))).Where("val", Lt(Param("b")))
			},
			bind: Bind{"a": 800, "b": 20},
		},
		{
			name:    "limit zero",
			literal: func(db *DB) *Query { return db.Query("t").Where("val", Between(0, 500)).Limit(0) },
			param: func(db *DB) *Query {
				return db.Query("t").Where("val", Between(0, 500)).Limit(Param("n"))
			},
			bind: Bind{"n": 0},
		},
	}
	build := func() *DB {
		db := buildWideDBWith(t, Options{}, 30_000, 10_000, 50)
		if err := db.Analyze("t", "val", "cat"); err != nil {
			t.Fatal(err)
		}
		db.ResetStats()
		return db
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dbA, dbB := build(), build()

			litRows := mustRun(t, c.literal(dbA))
			want := collect(t, litRows)

			stmt, err := dbB.Prepare(c.param(dbB))
			if err != nil {
				t.Fatal(err)
			}
			rows, err := stmt.Run(context.Background(), c.bind)
			if err != nil {
				t.Fatal(err)
			}
			got := collect(t, rows)

			if len(got) != len(want) {
				t.Fatalf("prepared returned %d rows, literal %d", len(got), len(want))
			}
			for i := range got {
				for j := range got[i] {
					if got[i][j] != want[i][j] {
						t.Fatalf("row %d differs: %v vs %v", i, got[i], want[i])
					}
				}
			}
			if a, b := dbA.Stats(), dbB.Stats(); a != b {
				t.Errorf("simulated cost differs:\nliteral  %+v\nprepared %+v", a, b)
			}
			if !rows.ExecStats().PlanCacheHit {
				t.Error("Stmt.Run did not report a plan reuse")
			}
		})
	}
}

// TestStmtJoinMatchesLiteral: the equivalence property across a join,
// with per-input predicate pushdown and bind-time build-side choice.
func TestStmtJoinMatchesLiteral(t *testing.T) {
	build := func() *DB {
		db, err := Open(Options{})
		if err != nil {
			t.Fatal(err)
		}
		it, _ := db.CreateTable("items", "i_order", "i_price", "i_date")
		for i := int64(0); i < 20_000; i++ {
			it.Append(i%4_000, (i*37)%1_000, i%2_000)
		}
		it.Finish()
		ot, _ := db.CreateTable("orders", "o_id", "o_date")
		for i := int64(0); i < 4_000; i++ {
			ot.Append(i, (i*13)%2_000)
		}
		ot.Finish()
		for _, ix := range [][2]string{{"items", "i_date"}, {"orders", "o_date"}} {
			if err := db.CreateIndex(ix[0], ix[1]); err != nil {
				t.Fatal(err)
			}
		}
		db.ResetStats()
		return db
	}
	dbA, dbB := build(), build()

	want := collect(t, mustRun(t, dbA.Query("items").
		Where("i_date", Lt(400)).
		Join("orders", "i_order", "o_id").
		Where("o_date", Lt(1_200))))

	stmt, err := dbB.Prepare(dbB.Query("items").
		Where("i_date", Lt(Param("idate"))).
		Join("orders", "i_order", "o_id").
		Where("o_date", Lt(Param("odate"))))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := stmt.Run(context.Background(), Bind{"idate": 400, "odate": 1_200})
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, rows)
	if len(got) != len(want) {
		t.Fatalf("prepared join returned %d rows, literal %d", len(got), len(want))
	}
	for i := range got {
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("row %d differs: %v vs %v", i, got[i], want[i])
			}
		}
	}
	if a, b := dbA.Stats(), dbB.Stats(); a != b {
		t.Errorf("simulated cost differs:\nliteral  %+v\nprepared %+v", a, b)
	}
	if len(rows.ExecStats().Joins) != 1 {
		t.Errorf("join stats = %+v", rows.ExecStats().Joins)
	}
}

// TestStmtDrivingIndexFlip: the same prepared statement picks a
// different driving index per bind set — the bind-time re-planning the
// API redesign is for.
func TestStmtDrivingIndexFlip(t *testing.T) {
	db := buildWideDB(t, 30_000, 10_000, 50)
	if err := db.Analyze("t", "val", "cat"); err != nil {
		t.Fatal(err)
	}
	stmt, err := db.Prepare(db.Query("t").
		Where("val", Between(Param("vlo"), Param("vhi"))).
		Where("cat", Between(Param("clo"), Param("chi"))))
	if err != nil {
		t.Fatal(err)
	}

	leaf := func(p *Plan) *PlanNode {
		n := p.Root
		for len(n.Children) > 0 {
			n = n.Children[0]
		}
		return n
	}

	// Wide val window, narrow cat: cat drives.
	p1, err := stmt.Explain(Bind{"vlo": 1000, "vhi": 4000, "clo": 7, "chi": 8})
	if err != nil {
		t.Fatal(err)
	}
	if d := leaf(p1).Detail; !strings.Contains(d, "$clo<=cat<$chi") {
		t.Errorf("bind set 1 leaf %q, want cat driving with markers", d)
	}
	// Narrow val window, wide cat: val drives.
	p2, err := stmt.Explain(Bind{"vlo": 1000, "vhi": 1050, "clo": 5, "chi": 45})
	if err != nil {
		t.Fatal(err)
	}
	if d := leaf(p2).Detail; !strings.Contains(d, "$vlo<=val<$vhi") {
		t.Errorf("bind set 2 leaf %q, want val driving with markers", d)
	}
	for _, p := range []*Plan{p1, p2} {
		if len(p.Binds) != 4 {
			t.Errorf("Binds = %v", p.Binds)
		}
		if len(p.BindChoices) == 0 {
			t.Errorf("no re-planned-at-bind annotation")
		}
	}
}

// stmtEngine is what the statement lifecycle needs of an engine; *DB
// and *ShardedDB both have it, and both hand out the one *Stmt.
type stmtEngine interface {
	Query(table string) *Query
	Prepare(q *Query) (*Stmt, error)
}

// TestStmtParamErrors covers the statement lifecycle and its error
// paths on every in-process engine through the same *Stmt code:
// Params, unbound, unknown (one message shape), Explain(b) against
// Run(b).Plan(), Close twice, type mismatches, bad parameter names,
// negative bound limit, ad-hoc execution of a parameterized query, and
// Prepare of a query the engine does not own (one shared message).
func TestStmtParamErrors(t *testing.T) {
	other := buildWideDB(t, 100, 10, 4)
	for _, eng := range []struct {
		name string
		e    stmtEngine
	}{
		{"db", buildWideDB(t, 2_000, 1_000, 8)},
		{"sharded-N1", buildGridSharded(t, 1, "range")},
		{"sharded-N3", buildGridSharded(t, 3, "range")},
	} {
		db := eng.e
		t.Run(eng.name, func(t *testing.T) {
			q := func() *Query { return db.Query("t").Where("val", Between(Param("lo"), Param("hi"))) }

			// Ad-hoc Run/Explain of a parameterized query: unbound.
			if _, err := q().Run(context.Background()); !errors.Is(err, ErrUnboundParam) {
				t.Errorf("ad-hoc Run = %v, want ErrUnboundParam", err)
			}
			if _, err := q().Explain(); !errors.Is(err, ErrUnboundParam) {
				t.Errorf("ad-hoc Explain = %v, want ErrUnboundParam", err)
			}

			stmt, err := db.Prepare(q())
			if err != nil {
				t.Fatal(err)
			}
			if got := stmt.Params(); len(got) != 2 || got[0] != "lo" || got[1] != "hi" {
				t.Errorf("Params() = %v", got)
			}
			// Missing one parameter.
			if _, err := stmt.Run(context.Background(), Bind{"lo": 1}); !errors.Is(err, ErrUnboundParam) {
				t.Errorf("partial bind = %v, want ErrUnboundParam", err)
			}
			// Unknown parameter name.
			_, err = stmt.Run(context.Background(), Bind{"lo": 1, "hi": 2, "typo": 3})
			if !errors.Is(err, ErrUnknownParam) {
				t.Errorf("extra bind = %v, want ErrUnknownParam", err)
			} else if want := ErrUnknownParam.Error() + ": $typo (statement has $lo, $hi)"; err.Error() != want {
				t.Errorf("extra bind message %q, want %q", err, want)
			}
			if _, err := stmt.Explain(Bind{"nope": 1}); !errors.Is(err, ErrUnknownParam) {
				t.Errorf("Explain extra bind = %v, want ErrUnknownParam", err)
			}

			// Explain(b) is the plan Run(b) executes.
			b := Bind{"lo": 100, "hi": 400}
			plan, err := stmt.Explain(b)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := stmt.Run(context.Background(), b)
			if err != nil {
				t.Fatal(err)
			}
			if got := rows.Plan().String(); got != plan.String() {
				t.Errorf("Run(b).Plan() diverges from Explain(b):\n%s\nvs\n%s", got, plan)
			}
			if n := len(collect(t, rows)); n == 0 {
				t.Error("bound statement returned no rows")
			}
			for i := 0; i < 2; i++ {
				if err := stmt.Close(); err != nil {
					t.Errorf("Close #%d = %v", i+1, err)
				}
			}

			// Type mismatches are recorded at construction and surface from
			// Run/Explain/Prepare.
			if _, err := db.Query("t").Where("val", Eq("five")).Run(context.Background()); !errors.Is(err, ErrArgType) {
				t.Errorf("Eq(string) = %v, want ErrArgType", err)
			}
			if _, err := db.Query("t").Limit(3.5).Explain(); !errors.Is(err, ErrArgType) {
				t.Errorf("Limit(float) = %v, want ErrArgType", err)
			}
			if _, err := db.Prepare(db.Query("t").Where("val", Gt(uint64(1)<<63))); !errors.Is(err, ErrArgType) {
				t.Errorf("overflowing uint64 = %v, want ErrArgType", err)
			}

			// Bad parameter names.
			if _, err := db.Prepare(db.Query("t").Where("val", Eq(Param("")))); err == nil {
				t.Error("empty parameter name accepted")
			}
			if _, err := db.Prepare(db.Query("t").Where("val", Eq(Param("a|b")))); err == nil {
				t.Error("parameter name with separator accepted")
			}

			// Negative limit bound at bind time.
			ls, err := db.Prepare(db.Query("t").Where("val", Between(0, 10)).Limit(Param("n")))
			if err != nil {
				t.Fatal(err)
			}
			defer ls.Close()
			if _, err := ls.Run(context.Background(), Bind{"n": -1}); err == nil {
				t.Error("negative bound limit accepted")
			}

			// Prepare on a foreign or nil query: one message.
			const refusal = "smoothscan: Prepare of a query that was not built on this engine (nil or another engine's)"
			for name, bad := range map[string]*Query{"foreign": other.Query("t"), "nil": nil} {
				if _, err := db.Prepare(bad); err == nil || err.Error() != refusal {
					t.Errorf("Prepare of a %s query = %v, want %q", name, err, refusal)
				}
			}
		})
	}
}

// TestStmtZeroParams: preparing a literal-only query works; it binds
// with nil and rejects any bind name.
func TestStmtZeroParams(t *testing.T) {
	db := buildWideDB(t, 5_000, 1_000, 8)
	stmt, err := db.Prepare(db.Query("t").Where("val", Between(0, 100)))
	if err != nil {
		t.Fatal(err)
	}
	if got := stmt.Params(); len(got) != 0 {
		t.Errorf("Params() = %v", got)
	}
	rows, err := stmt.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	n := len(collect(t, rows))
	want := len(collect(t, mustRun(t, db.Query("t").Where("val", Between(0, 100)))))
	if n != want {
		t.Errorf("prepared returned %d rows, literal %d", n, want)
	}
	if _, err := stmt.Run(context.Background(), Bind{"x": 1}); !errors.Is(err, ErrUnknownParam) {
		t.Errorf("bind on zero-param stmt = %v, want ErrUnknownParam", err)
	}
}

// TestStmtConcurrentReuse hammers one Stmt from many goroutines with
// differing bind sets — the concurrency contract of the prepared API
// (run under -race by `make race`).
func TestStmtConcurrentReuse(t *testing.T) {
	db := buildWideDB(t, 20_000, 1_000, 8)
	stmt, err := db.Prepare(db.Query("t").
		Where("val", Between(Param("lo"), Param("hi"))).
		Where("payload", Lt(Param("p"))))
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const perG = 20
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				lo := int64((g*perG + i) * 3 % 900)
				b := Bind{"lo": lo, "hi": lo + 100, "p": int64(500 + i)}
				rows, err := stmt.Run(context.Background(), b)
				if err != nil {
					errs <- fmt.Errorf("g%d i%d: %w", g, i, err)
					return
				}
				for rows.Next() {
					if v, _ := rows.Col("val"); v < lo || v >= lo+100 {
						errs <- fmt.Errorf("g%d i%d: val %d outside [%d,%d)", g, i, v, lo, lo+100)
						rows.Close()
						return
					}
				}
				err = rows.Err()
				rows.Close()
				if err != nil {
					errs <- fmt.Errorf("g%d i%d: %w", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPlanCacheAdHoc: ad-hoc queries transparently share templates
// through the DB-wide cache — same shape hits, different literals
// still hit, different shape misses; eviction and the disabled mode
// behave; ExecStats reports the per-query flag.
func TestPlanCacheAdHoc(t *testing.T) {
	db := buildWideDB(t, 5_000, 1_000, 8)

	rows := mustRun(t, db.Query("t").Where("val", Between(0, 100)))
	collect(t, rows)
	if rows.ExecStats().PlanCacheHit {
		t.Error("first execution of a shape reported a cache hit")
	}
	// Different literals, same shape: hit.
	rows = mustRun(t, db.Query("t").Where("val", Between(200, 300)))
	collect(t, rows)
	if !rows.ExecStats().PlanCacheHit {
		t.Error("same-shape query missed the plan cache")
	}
	// Different shape (extra conjunct): miss.
	rows = mustRun(t, db.Query("t").Where("val", Between(0, 100)).Where("cat", Eq(1)))
	collect(t, rows)
	if rows.ExecStats().PlanCacheHit {
		t.Error("different-shape query hit the plan cache")
	}
	st := db.PlanCacheStats()
	if st.Hits != 1 || st.Misses != 2 || st.Entries != 2 {
		t.Errorf("cache stats = %+v", st)
	}

	// Eq(x) and Between(x, x+1) canonicalise to the same folded shape.
	collect(t, mustRun(t, db.Query("t").Where("cat", Eq(3))))
	r2 := mustRun(t, db.Query("t").Where("cat", Between(3, 4)))
	collect(t, r2)
	if !r2.ExecStats().PlanCacheHit {
		t.Error("Eq/Between same-range queries did not share a template")
	}

	// Prepare registers in the same cache: an ad-hoc query of the same
	// canonical shape (different literal) hits the prepared template.
	if _, err := db.Prepare(db.Query("t").Where("payload", Lt(500))); err != nil {
		t.Fatal(err)
	}
	r3 := mustRun(t, db.Query("t").Where("payload", Lt(700)))
	collect(t, r3)
	if !r3.ExecStats().PlanCacheHit {
		t.Error("ad-hoc query did not hit the template Prepare registered")
	}
}

// TestPlanCacheEvictionAndDisable: a capacity-1 cache evicts, a
// negative Options.PlanCache disables caching entirely.
func TestPlanCacheEvictionAndDisable(t *testing.T) {
	db := buildWideDBWith(t, Options{PlanCache: 1}, 2_000, 1_000, 8)
	collect(t, mustRun(t, db.Query("t").Where("val", Between(0, 10))))
	collect(t, mustRun(t, db.Query("t").Where("cat", Eq(1))))    // evicts the first
	r := mustRun(t, db.Query("t").Where("val", Between(20, 30))) // miss again
	collect(t, r)
	if r.ExecStats().PlanCacheHit {
		t.Error("evicted shape still hit")
	}
	if st := db.PlanCacheStats(); st.Evictions == 0 || st.Capacity != 1 {
		t.Errorf("cache stats = %+v", st)
	}

	off := buildWideDBWith(t, Options{PlanCache: -1}, 2_000, 1_000, 8)
	collect(t, mustRun(t, off.Query("t").Where("val", Between(0, 10))))
	r = mustRun(t, off.Query("t").Where("val", Between(0, 10)))
	collect(t, r)
	if r.ExecStats().PlanCacheHit {
		t.Error("disabled cache reported a hit")
	}
	if st := off.PlanCacheStats(); st != (PlanCacheStats{}) {
		t.Errorf("disabled cache stats = %+v", st)
	}
	// Prepared statements still work without the cache.
	stmt, err := off.Prepare(off.Query("t").Where("val", Eq(Param("x"))))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := stmt.Run(context.Background(), Bind{"x": 5})
	if err != nil {
		t.Fatal(err)
	}
	collect(t, rows)
	if !rows.ExecStats().PlanCacheHit {
		t.Error("stmt run without cache did not report template reuse")
	}
}

// TestAdHocShapesConcurrent runs distinct ad-hoc and prepared shapes
// on one DB from several goroutines, with a plan cache smaller than the
// shape set (so templates are evicted and rebuilt while others bind
// them) and the result cache on. Several shapes share a template and
// differ only in their literals, and some share a result entry with a
// differently spelled twin; each run must return what the shape
// returned serially: the same sequence for a shape with OrderBy, the
// same row multiset for one without, whose order may follow what the
// buffer pool holds. Every key is encoded per execution, so a buffer
// shared between executions would show up here, under -race.
func TestAdHocShapesConcurrent(t *testing.T) {
	db := buildWideDBWith(t, Options{PlanCache: 4, ResultCacheBytes: 1 << 20}, 4_000, 1_000, 8)
	byVal, err := db.Prepare(db.Query("t").Where("val", Between(Param("lo"), Param("hi"))))
	if err != nil {
		t.Fatal(err)
	}
	byCat, err := db.Prepare(db.Query("t").Where("cat", Eq(Param("c"))).OrderBy("id").Limit(Param("n")))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	shapes := []struct {
		ordered bool // the shape has OrderBy
		run     func() (*Rows, error)
	}{
		{false, func() (*Rows, error) { return db.Query("t").Where("val", Between(0, 50)).Run(ctx) }},
		{false, func() (*Rows, error) { return db.Query("t").Where("val", Between(400, 480)).Run(ctx) }},
		{false, func() (*Rows, error) { return db.Query("t").Where("val", Eq(7)).Run(ctx) }},
		{false, func() (*Rows, error) { return db.Query("t").Where("val", Between(7, 8)).Run(ctx) }},
		{false, func() (*Rows, error) { return db.Query("t").Where("val", Lt(30)).Where("cat", Ge(6)).Run(ctx) }},
		{true, func() (*Rows, error) { return db.Query("t").Where("cat", Eq(2)).OrderBy("id").Limit(9).Run(ctx) }},
		{true, func() (*Rows, error) {
			return db.Query("t").Where("val", Ge(900)).Select("id", "val").OrderBy("val").Run(ctx)
		}},
		{false, func() (*Rows, error) {
			return db.Query("t").Where("val", Le(200)).GroupBy("cat", Count(), Sum("val")).Run(ctx)
		}},
		{false, func() (*Rows, error) {
			return db.Query("t").Where("val", Between(100, 300)).WithOptions(ScanOptions{Path: PathFull}).Run(ctx)
		}},
		{false, func() (*Rows, error) { return byVal.Run(ctx, Bind{"lo": 0, "hi": 50}) }},
		{false, func() (*Rows, error) { return byVal.Run(ctx, Bind{"lo": 600, "hi": 610}) }},
		{true, func() (*Rows, error) { return byCat.Run(ctx, Bind{"c": 2, "n": 9}) }},
		{true, func() (*Rows, error) { return byCat.Run(ctx, Bind{"c": 5, "n": 3}) }},
	}
	// run returns a shape's rows: in delivery order for an ordered
	// shape, sorted for one without OrderBy.
	run := func(i int) ([][]int64, error) {
		rows, err := shapes[i].run()
		if err != nil {
			return nil, err
		}
		defer rows.Close()
		var out [][]int64
		for rows.Next() {
			out = append(out, slices.Clone(rows.Row()))
		}
		if !shapes[i].ordered {
			slices.SortFunc(out, slices.Compare)
		}
		return out, rows.Err()
	}
	want := make([][][]int64, len(shapes))
	for i := range shapes {
		if want[i], err = run(i); err != nil {
			t.Fatalf("shape %d: %v", i, err)
		}
	}
	// Empty the result cache: the concurrent runs store afresh.
	if err := db.ColdCache(); err != nil {
		t.Fatal(err)
	}

	const workers, rounds = 4, 20
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				i := (w*7 + r*5) % len(shapes)
				got, err := run(i)
				if err != nil {
					t.Errorf("shape %d: %v", i, err)
					return
				}
				if !slices.EqualFunc(got, want[i], slices.Equal) {
					t.Errorf("shape %d: %d rows concurrently, %d serially", i, len(got), len(want[i]))
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := db.PlanCacheStats(); st.Evictions == 0 {
		t.Errorf("plan cache never evicted (%+v); the test wants templates rebuilt under load", st)
	}
}

// TestPreparedBindAllocs: the bind phase allocates less than half of
// what a full structural compile does — the point of splitting the
// lifecycle (the acceptance floor is 50%; the split is far below it).
func TestPreparedBindAllocs(t *testing.T) {
	db := buildWideDBWith(t, Options{PlanCache: -1}, 10_000, 1_000, 50)
	if err := db.Analyze("t", "val", "cat"); err != nil {
		t.Fatal(err)
	}
	q := func() *Query {
		return db.Query("t").
			Where("val", Between(Param("lo"), Param("hi"))).
			Where("cat", Eq(Param("c"))).
			Select("id", "val", "cat").
			OrderBy("val").
			Limit(100)
	}
	stmt, err := db.Prepare(q())
	if err != nil {
		t.Fatal(err)
	}
	b := Bind{"lo": 100, "hi": 400, "c": 7}

	lq := db.Query("t").
		Where("val", Between(100, 400)).
		Where("cat", Eq(7)).
		Select("id", "val", "cat").
		OrderBy("val").
		Limit(100)

	compileAllocs := testing.AllocsPerRun(200, func() {
		db.mu.RLock()
		if _, err := db.bind(statement{q: lq}, nil); err != nil {
			t.Fatal(err)
		}
		db.mu.RUnlock()
	})
	// The bind phase alone, as Stmt.Run calls it (annotation strings
	// are rendered lazily in plan(), not here).
	bindAllocs := testing.AllocsPerRun(200, func() {
		db.mu.RLock()
		vals, err := optimizer.ParamValues(stmt.pt, b)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := optimizer.Bind(db.dev, db.planTable, stmt.pt, stmt.lits, vals); err != nil {
			t.Fatal(err)
		}
		db.mu.RUnlock()
	})
	t.Logf("full compile: %.1f allocs/query, bind phase: %.1f allocs/query (%.0f%%)",
		compileAllocs, bindAllocs, 100*bindAllocs/compileAllocs)
	if bindAllocs > compileAllocs*0.5 {
		t.Errorf("bind phase allocates %.1f, more than 50%% of the %.1f a full compile does",
			bindAllocs, compileAllocs)
	}
}

// TestStmtExplainGolden pins the parameterized Explain rendering —
// bind markers, bind header, re-planned-at-bind annotations — against
// committed goldens. Regenerate with UPDATE_GOLDEN=1 go test -run
// StmtExplainGolden .
func TestStmtExplainGolden(t *testing.T) {
	db := buildWideDB(t, 30_000, 10_000, 50)
	if err := db.Analyze("t", "val", "cat"); err != nil {
		t.Fatal(err)
	}
	stmt, err := db.Prepare(db.Query("t").
		Where("val", Between(Param("vlo"), Param("vhi"))).
		Where("cat", Between(Param("clo"), Param("chi"))).
		Select("id", "val", "cat").
		OrderBy("val").
		Limit(Param("n")))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		golden string
		bind   Bind
	}{
		{"explain_prepared_cat_drives.golden", Bind{"vlo": 1000, "vhi": 4000, "clo": 7, "chi": 8, "n": 10}},
		{"explain_prepared_val_drives.golden", Bind{"vlo": 1000, "vhi": 1050, "clo": 5, "chi": 45, "n": 10}},
	}
	for _, c := range cases {
		p, err := stmt.Explain(c.bind)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, c.golden, p.String())
	}

	// A parameterized merge-join plan with mixed literal/param bounds.
	jdb, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	it, _ := jdb.CreateTable("items", "i_order", "i_price")
	for i := int64(0); i < 8_000; i++ {
		it.Append(i%2_000, (i*37)%1_000)
	}
	it.Finish()
	ot, _ := jdb.CreateTable("orders", "o_id", "o_prio")
	for i := int64(0); i < 2_000; i++ {
		ot.Append(i, i%10)
	}
	ot.Finish()
	if err := jdb.CreateIndex("items", "i_price"); err != nil {
		t.Fatal(err)
	}
	js, err := jdb.Prepare(jdb.Query("items").
		Where("i_price", Ge(Param("minprice"))).
		Join("orders", "i_order", "o_id").
		Where("o_prio", Lt(5)))
	if err != nil {
		t.Fatal(err)
	}
	p, err := js.Explain(Bind{"minprice": 900})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "explain_prepared_join.golden", p.String())
}

// checkGolden compares got against testdata/<name>, regenerating the
// file when UPDATE_GOLDEN is set.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (set UPDATE_GOLDEN=1 to generate)", err)
	}
	if got != string(want) {
		t.Errorf("%s mismatch:\n--- want ---\n%s\n--- got ---\n%s", name, want, got)
	}
}
