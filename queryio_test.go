package smoothscan

import (
	"context"
	"math/rand"
	"sync"
	"testing"
)

// ioEngine is what TestQueryIOIsOwn needs of an engine: *DB and
// *ShardedDB both satisfy it.
type ioEngine interface {
	Engine
	ColdCache() error
}

// ioTable is one table of the query-I/O fixture; part is its
// partitioning on the sharded engine.
type ioTable struct {
	name  string
	cols  []string
	rows  [][]int64
	index string
	part  Partitioning
}

// ioTables are the fixture's tables: g drives the Smooth Scans, h the
// parallel full scan, f ⋈ d the hash join (co-partitioned on the join
// key, so the sharded engine joins shard by shard).
func ioTables() []ioTable {
	rng := rand.New(rand.NewSource(97))
	gen := func(n int) [][]int64 {
		rows := make([][]int64, n)
		for i := range rows {
			rows[i] = []int64{int64(i), rng.Int63n(10_000), rng.Int63n(100)}
		}
		return rows
	}
	specs := joinTableSpecs()
	pw := pwParts(2)
	return []ioTable{
		{"g", []string{"gid", "gval", "gp"}, gen(12_000), "gval", HashPartitioning("gid", 2)},
		{"h", []string{"hid", "hval", "hp"}, gen(12_000), "hval", HashPartitioning("hid", 2)},
		{"f", specs[0].cols, specs[0].rows, "fval", pw["f"]},
		{"d", specs[1].cols, specs[1].rows, "did", pw["d"]},
	}
}

// buildIOEngines loads the fixture into a local DB and a 2-shard
// in-process engine whose pools hold every table, so a cold run's reads
// are the same whatever runs beside it.
func buildIOEngines(t *testing.T) map[string]ioEngine {
	t.Helper()
	opts := Options{PoolPages: 4096, ResultCacheBytes: 1 << 20}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := OpenSharded(2, opts)
	if err != nil {
		t.Fatal(err)
	}
	type builder interface {
		Append(vals ...int64) error
		Finish() error
	}
	for _, tab := range ioTables() {
		lb, err := db.CreateTable(tab.name, tab.cols...)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := s.CreateShardedTable(tab.name, tab.part, tab.cols...)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range []builder{lb, sb} {
			for _, r := range tab.rows {
				if err := b.Append(r...); err != nil {
					t.Fatal(err)
				}
			}
			if err := b.Finish(); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.CreateIndex(tab.name, tab.index); err != nil {
			t.Fatal(err)
		}
		if err := s.CreateIndex(tab.name, tab.index); err != nil {
			t.Fatal(err)
		}
	}
	return map[string]ioEngine{"local": db, "sharded2": s}
}

// runOverlapped runs each query on its own goroutine. Every goroutine
// opens its Rows before any drains and closes it only after all have
// drained, so each execution spans the others' reads. It returns each
// query's final ExecStats.
func runOverlapped(t *testing.T, qs ...*Query) []ExecStats {
	t.Helper()
	var opened, drained, done sync.WaitGroup
	opened.Add(len(qs))
	drained.Add(len(qs))
	done.Add(len(qs))
	out := make([]ExecStats, len(qs))
	errs := make([]error, len(qs))
	for i, q := range qs {
		go func() {
			defer done.Done()
			rows, err := q.Run(context.Background())
			opened.Done()
			opened.Wait()
			if err == nil {
				for rows.Next() {
				}
				err = rows.Err()
			}
			drained.Done()
			drained.Wait()
			if rows != nil {
				if cerr := rows.Close(); err == nil {
					err = cerr
				}
				out[i] = rows.ExecStats()
			}
			errs[i] = err
		}()
	}
	done.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// cold runs the queries overlapped from a cold pool and result cache.
func cold(t *testing.T, e ioEngine, qs ...*Query) []ExecStats {
	t.Helper()
	if err := e.ColdCache(); err != nil {
		t.Fatal(err)
	}
	return runOverlapped(t, qs...)
}

// ioOf lists every I/O figure of an execution: its account, each
// shard's and each hash join's build delta.
func ioOf(st ExecStats) []IOStats {
	out := []IOStats{st.IO}
	for _, sh := range st.Shards {
		out = append(out, sh.IO)
	}
	for _, j := range st.Joins {
		out = append(out, j.BuildIO)
	}
	return out
}

func sameIO(t *testing.T, what string, got, want ExecStats) {
	t.Helper()
	g, w := ioOf(got), ioOf(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d I/O figures, solo run had %d", what, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Errorf("%s: I/O figure %d is\n%+v\nsolo run:\n%+v", what, i, g[i], w[i])
		}
	}
}

// TestQueryIOIsOwn pins that ExecStats.IO is the execution's own
// account: what a query reports is what it read and charged, whatever
// runs beside it or ran before it, on the local and the sharded engine.
func TestQueryIOIsOwn(t *testing.T) {
	queries := []struct {
		name string
		q    func(e ioEngine) *Query
	}{
		{"smooth", func(e ioEngine) *Query {
			return e.Table("g").Where("gval", Between(1_000, 6_000))
		}},
		{"parallel-full", func(e ioEngine) *Query {
			return e.Table("h").Where("hval", Between(0, 8_000)).WithOptions(ScanOptions{Path: PathFull, Parallelism: 2})
		}},
		{"hash-join", func(e ioEngine) *Query {
			return e.Table("f").Join("d", "fkey", "did").Where("fval", Between(200, 900))
		}},
	}
	for name, e := range buildIOEngines(t) {
		t.Run(name, func(t *testing.T) {
			solo := make([]ExecStats, len(queries))
			for i, c := range queries {
				solo[i] = cold(t, e, c.q(e))[0]
				if solo[i].IO.PagesRead == 0 {
					t.Fatalf("%s read nothing", c.name)
				}
			}
			if j := solo[2].Joins; name == "local" && (len(j) != 1 || j[0].Algo != "hash" || j[0].BuildIO.PagesRead == 0) {
				t.Fatalf("hash-join ran as %+v", j)
			}

			// Concurrent queries on different tables each report their
			// solo I/O.
			for a := range queries {
				for b := a + 1; b < len(queries); b++ {
					got := cold(t, e, queries[a].q(e), queries[b].q(e))
					sameIO(t, queries[a].name+" beside "+queries[b].name, got[0], solo[a])
					sameIO(t, queries[b].name+" beside "+queries[a].name, got[1], solo[b])
				}
			}

			// A query run after another reports its solo I/O: it starts
			// from a fresh head, not where the other left the device's.
			full := func() *Query { return e.Table("g").Where("gval", Between(0, 10_000)) }
			ordered := cold(t, e, full().OrderBy("gval"))[0]
			cold(t, e, full())
			sameIO(t, "ordered scan after an unordered one", cold(t, e, full().OrderBy("gval"))[0], ordered)

			// A result-cache hit reads nothing while an uncached query
			// beside it does.
			cold(t, e, queries[0].q(e))
			got := runOverlapped(t, queries[0].q(e), queries[1].q(e))
			if !got[0].ResultCache.Hit {
				t.Fatal("repeat run missed the result cache")
			}
			if got[0].IO != (IOStats{}) {
				t.Errorf("result-cache hit reports I/O %+v", got[0].IO)
			}
			sameIO(t, "uncached query beside a hit", got[1], solo[1])
		})
	}
}
