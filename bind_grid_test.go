package smoothscan_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smoothscan"
)

// The bind grid pins every estimate-driven plan decision the bind phase
// makes — driving conjunct, PathAuto's pick before and after Analyze,
// range folding, the empty short-circuits, merge vs hash and the build
// side, free ORDER BY, the parallelism clamp, the broadcast side — by
// recording, per shape and engine, the Explain text of the query run ad
// hoc and prepared (with its "re-planned at bind" line) and the
// operators the run reported with their row counts. The golden file was
// recorded once and is never regenerated by a refactor of the binder:
// a diff here is a changed plan.

// bindGridLoad fills t(id, a, b, c, d) and u(k, w) on any engine that
// can create tables; a and b are indexed on t, k on u.
func bindGridLoad(t *testing.T, create func(name string, cols ...string) (func(...int64) error, func() error)) {
	t.Helper()
	rng := rand.New(rand.NewSource(20261020))
	app, fin := create("t", "id", "a", "b", "c", "d")
	for i := int64(0); i < 8000; i++ {
		if err := app(i, rng.Int63n(3000), rng.Int63n(100), rng.Int63n(10000), rng.Int63n(50)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fin(); err != nil {
		t.Fatal(err)
	}
	app, fin = create("u", "k", "w")
	for i := int64(0); i < 3000; i++ {
		if err := app(i, rng.Int63n(1000)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fin(); err != nil {
		t.Fatal(err)
	}
}

type bindGridShape struct {
	name  string
	q     func(e smoothscan.Engine) *smoothscan.Query
	binds []smoothscan.Bind // prepared only: one run per bind set
}

func bindGridShapes() []bindGridShape {
	P := smoothscan.Param
	return []bindGridShape{
		{name: "one indexed conjunct", q: func(e smoothscan.Engine) *smoothscan.Query {
			return e.Table("t").Where("a", smoothscan.Between(100, 400))
		}},
		{name: "one unindexed conjunct", q: func(e smoothscan.Engine) *smoothscan.Query {
			return e.Table("t").Where("c", smoothscan.Between(100, 400))
		}},
		{name: "two indexed conjuncts", q: func(e smoothscan.Engine) *smoothscan.Query {
			return e.Table("t").Where("a", smoothscan.Between(100, 1500)).Where("b", smoothscan.Eq(7))
		}},
		{name: "indexed and unindexed conjuncts", q: func(e smoothscan.Engine) *smoothscan.Query {
			return e.Table("t").Where("c", smoothscan.Lt(5000)).Where("a", smoothscan.Between(100, 130))
		}},
		{name: "two unindexed conjuncts", q: func(e smoothscan.Engine) *smoothscan.Query {
			return e.Table("t").Where("c", smoothscan.Lt(300)).Where("d", smoothscan.Ge(10))
		}},
		{name: "auto narrow", q: func(e smoothscan.Engine) *smoothscan.Query {
			return e.Table("t").Where("a", smoothscan.Between(0, 2)).WithOptions(smoothscan.ScanOptions{Path: smoothscan.PathAuto})
		}},
		{name: "auto wide with residual", q: func(e smoothscan.Engine) *smoothscan.Query {
			return e.Table("t").Where("a", smoothscan.Between(0, 2500)).Where("d", smoothscan.Lt(5)).
				WithOptions(smoothscan.ScanOptions{Path: smoothscan.PathAuto})
		}},
		{name: "eq lt between fold", q: func(e smoothscan.Engine) *smoothscan.Query {
			return e.Table("t").Where("a", smoothscan.Eq(300)).Where("a", smoothscan.Lt(500)).Where("a", smoothscan.Between(200, 400))
		}},
		{name: "contradiction", q: func(e smoothscan.Engine) *smoothscan.Query {
			return e.Table("t").Where("a", smoothscan.Lt(10)).Where("a", smoothscan.Gt(20))
		}},
		{name: "limit 0", q: func(e smoothscan.Engine) *smoothscan.Query {
			return e.Table("t").Where("a", smoothscan.Between(0, 100)).Limit(0)
		}},
		{name: "parallel full scan", q: func(e smoothscan.Engine) *smoothscan.Query {
			return e.Table("t").Where("c", smoothscan.Lt(200)).WithOptions(smoothscan.ScanOptions{Path: smoothscan.PathFull, Parallelism: 4})
		}},
		{name: "hash join", q: func(e smoothscan.Engine) *smoothscan.Query {
			return e.Table("t").Where("a", smoothscan.Between(0, 600)).Join("u", "a", "k").Where("w", smoothscan.Lt(100))
		}},
		{name: "hash join build left", q: func(e smoothscan.Engine) *smoothscan.Query {
			return e.Table("t").Where("a", smoothscan.Between(0, 30)).Join("u", "a", "k")
		}},
		{name: "merge join", q: func(e smoothscan.Engine) *smoothscan.Query {
			return e.Table("t").Where("a", smoothscan.Between(500, 900)).WithOptions(smoothscan.ScanOptions{Path: smoothscan.PathIndex}).
				JoinWithOptions("u", "a", "k", smoothscan.ScanOptions{Path: smoothscan.PathIndex}).Where("k", smoothscan.Between(400, 800))
		}},
		{name: "broadcast join", q: func(e smoothscan.Engine) *smoothscan.Query {
			return e.Table("t").Where("a", smoothscan.Between(0, 900)).Join("u", "b", "k").Select("id", "b", "w")
		}},
		{name: "group by ordered by group key", q: func(e smoothscan.Engine) *smoothscan.Query {
			return e.Table("t").Where("a", smoothscan.Between(0, 1200)).GroupBy("b", smoothscan.Count(), smoothscan.Sum("c")).OrderBy("b")
		}},
		{name: "order by driving column", q: func(e smoothscan.Engine) *smoothscan.Query {
			return e.Table("t").Where("a", smoothscan.Between(100, 300)).OrderBy("a").Limit(50)
		}},
		{name: "order by another column", q: func(e smoothscan.Engine) *smoothscan.Query {
			return e.Table("t").Where("a", smoothscan.Between(100, 300)).Select("id", "c").OrderBy("c")
		}},
		{name: "prepared driving flip", q: func(e smoothscan.Engine) *smoothscan.Query {
			return e.Table("t").Where("a", smoothscan.Between(P("alo"), P("ahi"))).Where("b", smoothscan.Between(P("blo"), P("bhi"))).Limit(P("n"))
		}, binds: []smoothscan.Bind{
			{"alo": 100, "ahi": 130, "blo": 0, "bhi": 90, "n": 1000},
			{"alo": 0, "ahi": 2800, "blo": 40, "bhi": 41, "n": 1000},
		}},
	}
}

// bindGridRecord appends one execution's plan and operators to sb.
func bindGridRecord(t *testing.T, sb *strings.Builder, label string, p *smoothscan.Plan, rows *smoothscan.Rows, err error) {
	t.Helper()
	fmt.Fprintf(sb, "--- %s\n", label)
	if err != nil {
		fmt.Fprintf(sb, "error: %v\n", err)
		return
	}
	n, sum := 0, int64(0)
	for rows.Next() {
		n++
		for _, v := range rows.Row() {
			sum += v
		}
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("%s: close: %v", label, err)
	}
	sb.WriteString(p.String())
	st := rows.ExecStats()
	fmt.Fprintf(sb, "rows=%d sum=%d\n", n, sum)
	for _, op := range st.Operators {
		fmt.Fprintf(sb, "op %s rows=%d\n", op.Name, op.Rows)
	}
}

// bindGridRun records every shape on e: ad hoc (Rows.Plan) and, for
// shapes without parameters, prepared with an empty bind (Stmt.Explain
// with its bind notes); parameterized shapes once per bind set.
func bindGridRun(t *testing.T, sb *strings.Builder, e smoothscan.Engine, phase string) {
	ctx := context.Background()
	for _, sh := range bindGridShapes() {
		if sh.binds == nil {
			rows, err := sh.q(e).Run(ctx)
			var p *smoothscan.Plan
			if err == nil {
				p = rows.Plan()
			}
			bindGridRecord(t, sb, phase+" / "+sh.name+" / ad hoc", p, rows, err)
		}
		st, err := e.PrepareQuery(sh.q(e))
		if err != nil {
			fmt.Fprintf(sb, "--- %s / %s / prepare\nerror: %v\n", phase, sh.name, err)
			continue
		}
		binds := sh.binds
		if binds == nil {
			binds = []smoothscan.Bind{nil}
		}
		for i, b := range binds {
			label := fmt.Sprintf("%s / %s / prepared #%d", phase, sh.name, i)
			p, err := st.Explain(b)
			if err != nil {
				fmt.Fprintf(sb, "--- %s\nerror: %v\n", label, err)
				continue
			}
			rows, err := st.Run(ctx, b)
			bindGridRecord(t, sb, label, p, rows, err)
		}
		_ = st.Close()
	}
}

func TestBindGridGolden(t *testing.T) {
	var sb strings.Builder

	db, err := smoothscan.Open(smoothscan.Options{Disk: smoothscan.SSD, PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	bindGridLoad(t, func(name string, cols ...string) (func(...int64) error, func() error) {
		tb, err := db.CreateTable(name, cols...)
		if err != nil {
			t.Fatal(err)
		}
		return tb.Append, tb.Finish
	})
	for _, ix := range [][2]string{{"t", "a"}, {"t", "b"}, {"u", "k"}} {
		if err := db.CreateIndex(ix[0], ix[1]); err != nil {
			t.Fatal(err)
		}
	}
	bindGridRun(t, &sb, db, "db")
	if err := db.Analyze("t", "a", "b", "c", "d"); err != nil {
		t.Fatal(err)
	}
	if err := db.Analyze("u", "k", "w"); err != nil {
		t.Fatal(err)
	}
	bindGridRun(t, &sb, db, "db analyzed")

	s, err := smoothscan.OpenSharded(2, smoothscan.Options{Disk: smoothscan.SSD, PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	parts := map[string]smoothscan.Partitioning{
		"t": smoothscan.HashPartitioning("a", 2),
		"u": smoothscan.HashPartitioning("k", 2),
	}
	bindGridLoad(t, func(name string, cols ...string) (func(...int64) error, func() error) {
		tb, err := s.CreateShardedTable(name, parts[name], cols...)
		if err != nil {
			t.Fatal(err)
		}
		return tb.Append, tb.Finish
	})
	for _, ix := range [][2]string{{"t", "a"}, {"t", "b"}, {"u", "k"}} {
		if err := s.CreateIndex(ix[0], ix[1]); err != nil {
			t.Fatal(err)
		}
	}
	bindGridRun(t, &sb, s, "sharded")
	if err := s.Analyze("t", "a", "b", "c", "d"); err != nil {
		t.Fatal(err)
	}
	if err := s.Analyze("u", "k", "w"); err != nil {
		t.Fatal(err)
	}
	bindGridRun(t, &sb, s, "sharded analyzed")

	path := filepath.Join("testdata", "bind_grid.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (set UPDATE_GOLDEN=1 to generate)", err)
	}
	if got := sb.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("bind grid differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("bind grid differs from %s in length: got %d lines, want %d", path, len(gl), len(wl))
	}
}
