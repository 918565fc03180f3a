package smoothscan

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

const (
	gridRowCount = 9000
	gridDomain   = 3000
)

// gridTableRows generates the deterministic grid fixture: id (dense,
// unique), val (uniform, indexed, the partition column), g (low
// cardinality, for grouping), p (payload).
func gridTableRows() [][]int64 {
	rng := rand.New(rand.NewSource(97))
	rows := make([][]int64, gridRowCount)
	for i := range rows {
		val := rng.Int63n(gridDomain)
		rows[i] = []int64{int64(i), val, val % 16, rng.Int63n(1_000_000)}
	}
	return rows
}

func loadGridTable(t testing.TB, tb *TableBuilder) {
	t.Helper()
	for _, r := range gridTableRows() {
		if err := tb.Append(r...); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.Finish(); err != nil {
		t.Fatal(err)
	}
}

func loadShardedGridTable(t testing.TB, tb *ShardedTableBuilder) {
	t.Helper()
	for _, r := range gridTableRows() {
		if err := tb.Append(r...); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.Finish(); err != nil {
		t.Fatal(err)
	}
}

func buildGridUnsharded(t testing.TB) *DB {
	t.Helper()
	db, err := Open(Options{PoolPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := db.CreateTable("t", "id", "val", "g", "p")
	if err != nil {
		t.Fatal(err)
	}
	loadGridTable(t, tb)
	if err := db.CreateIndex("t", "val"); err != nil {
		t.Fatal(err)
	}
	if err := db.Analyze("t", "val"); err != nil {
		t.Fatal(err)
	}
	return db
}

func gridPartitioning(scheme string, n int) Partitioning {
	if scheme == "hash" {
		return HashPartitioning("val", n)
	}
	return RangePartitioning("val", EqualWidthBounds(0, gridDomain, n)...)
}

func buildGridSharded(t testing.TB, n int, scheme string) *ShardedDB {
	t.Helper()
	s, err := OpenSharded(n, Options{PoolPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := s.CreateShardedTable("t", gridPartitioning(scheme, n), "id", "val", "g", "p")
	if err != nil {
		t.Fatal(err)
	}
	loadShardedGridTable(t, tb)
	if err := s.CreateIndex("t", "val"); err != nil {
		t.Fatal(err)
	}
	if err := s.Analyze("t", "val"); err != nil {
		t.Fatal(err)
	}
	return s
}

// shardedIter is the drain surface the grids use of a *Rows.
type shardedIter interface {
	Next() bool
	Row() []int64
	Err() error
	Close() error
	ExecStats() ExecStats
}

// drainStats runs an iterator to completion, closes it, and returns
// the rows plus the final (frozen) execution stats.
func drainStats(t testing.TB, it shardedIter, err error) ([][]int64, ExecStats) {
	t.Helper()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var out [][]int64
	for it.Next() {
		out = append(out, slices.Clone(it.Row()))
	}
	if e := it.Err(); e != nil {
		it.Close()
		t.Fatalf("iterate: %v", e)
	}
	if e := it.Close(); e != nil {
		t.Fatalf("close: %v", e)
	}
	return out, it.ExecStats()
}

// ---------------------------------------------------------------------------
// Equivalence grid
// ---------------------------------------------------------------------------

// shardCase is one query shape expressed against both engines. exact
// cases compare row sequences; the rest compare multisets (an
// unordered gather interleaves shards nondeterministically).
type shardCase struct {
	name  string
	exact bool
	un    func(db *DB) *Query
	sh    func(s *ShardedDB) *Query
}

func shardGridCases() []shardCase {
	return []shardCase{
		{"smooth", false,
			func(db *DB) *Query { return db.Query("t").Where("val", Between(600, 1200)) },
			func(s *ShardedDB) *Query { return s.Query("t").Where("val", Between(600, 1200)) }},
		{"index", false,
			func(db *DB) *Query {
				return db.Query("t").Where("val", Between(100, 220)).WithOptions(ScanOptions{Path: PathIndex})
			},
			func(s *ShardedDB) *Query {
				return s.Query("t").Where("val", Between(100, 220)).WithOptions(ScanOptions{Path: PathIndex})
			}},
		{"full", false,
			func(db *DB) *Query {
				return db.Query("t").Where("val", Ge(2500)).WithOptions(ScanOptions{Path: PathFull})
			},
			func(s *ShardedDB) *Query {
				return s.Query("t").Where("val", Ge(2500)).WithOptions(ScanOptions{Path: PathFull})
			}},
		{"parallel", false,
			func(db *DB) *Query {
				return db.Query("t").Where("val", Between(0, 2000)).WithOptions(ScanOptions{Path: PathFull, Parallelism: 4})
			},
			func(s *ShardedDB) *Query {
				return s.Query("t").Where("val", Between(0, 2000)).WithOptions(ScanOptions{Path: PathFull, Parallelism: 4})
			}},
		{"parallel-smooth", false,
			func(db *DB) *Query {
				return db.Query("t").Where("val", Between(400, 1800)).WithOptions(ScanOptions{Parallelism: 4})
			},
			func(s *ShardedDB) *Query {
				return s.Query("t").Where("val", Between(400, 1800)).WithOptions(ScanOptions{Parallelism: 4})
			}},
		{"ordered", true,
			func(db *DB) *Query { return db.Query("t").Where("val", Between(600, 1200)).OrderBy("id") },
			func(s *ShardedDB) *Query {
				return s.Query("t").Where("val", Between(600, 1200)).OrderBy("id")
			}},
		{"select", false,
			func(db *DB) *Query { return db.Query("t").Select("val", "p").Where("val", Ge(2000)) },
			func(s *ShardedDB) *Query {
				return s.Query("t").Select("val", "p").Where("val", Ge(2000))
			}},
		{"agg", true,
			func(db *DB) *Query {
				return db.Query("t").GroupBy("g", Count(), Sum("p"), Min("val"), Max("val"))
			},
			func(s *ShardedDB) *Query {
				return s.Query("t").GroupBy("g", Count(), Sum("p"), Min("val"), Max("val"))
			}},
		{"agg-where-ord", true,
			func(db *DB) *Query {
				return db.Query("t").Where("val", Between(300, 2400)).GroupBy("g", Sum("p")).OrderBy("g")
			},
			func(s *ShardedDB) *Query {
				return s.Query("t").Where("val", Between(300, 2400)).GroupBy("g", Sum("p")).OrderBy("g")
			}},
		{"topn", true,
			func(db *DB) *Query { return db.Query("t").Where("val", Ge(1000)).OrderBy("id").Limit(53) },
			func(s *ShardedDB) *Query {
				return s.Query("t").Where("val", Ge(1000)).OrderBy("id").Limit(53)
			}},
		{"empty-range", true,
			func(db *DB) *Query { return db.Query("t").Where("val", Between(500, 500)) },
			func(s *ShardedDB) *Query { return s.Query("t").Where("val", Between(500, 500)) }},
	}
}

func TestShardedEquivalenceGrid(t *testing.T) {
	un := buildGridUnsharded(t)
	ctx := context.Background()
	for _, n := range []int{1, 2, 4, 7} {
		for _, scheme := range []string{"range", "hash"} {
			s := buildGridSharded(t, n, scheme)
			for _, c := range shardGridCases() {
				c := c
				t.Run(strings.Join([]string{scheme, "N" + itoa(n), c.name}, "/"), func(t *testing.T) {
					rows, err := c.un(un).Run(ctx)
					want, _ := drainStats(t, rows, err)
					srows, serr := c.sh(s).Run(ctx)
					got, _ := drainStats(t, srows, serr)
					if !c.exact {
						sortRows(want)
						sortRows(got)
					}
					if !rowsEqual(got, want) {
						t.Fatalf("sharded result diverges: got %d rows, want %d", len(got), len(want))
					}
				})
			}
		}
	}
}

func itoa(n int) string {
	return string(rune('0' + n))
}

// TestShardedLimitUnordered pins the weaker contract of Limit without
// OrderBy: the sharded result is SOME n matching rows (which n rows
// arrive depends on shard interleaving), never more, never wrong ones.
func TestShardedLimitUnordered(t *testing.T) {
	un := buildGridUnsharded(t)
	s := buildGridSharded(t, 4, "range")
	ctx := context.Background()

	rows, err := un.Query("t").Where("val", Between(600, 1200)).Run(ctx)
	full, _ := drainStats(t, rows, err)
	valid := make(map[int64]bool, len(full))
	for _, r := range full {
		valid[r[0]] = true
	}

	srows, serr := s.Query("t").Where("val", Between(600, 1200)).Limit(37).Run(ctx)
	got, _ := drainStats(t, srows, serr)
	if len(got) != 37 {
		t.Fatalf("Limit(37) returned %d rows", len(got))
	}
	seen := make(map[int64]bool)
	for _, r := range got {
		if !valid[r[0]] {
			t.Fatalf("limited result contains non-matching row id=%d", r[0])
		}
		if seen[r[0]] {
			t.Fatalf("limited result repeats row id=%d", r[0])
		}
		seen[r[0]] = true
	}
}

// ---------------------------------------------------------------------------
// N=1 cost identity
// ---------------------------------------------------------------------------

// TestShardedN1CostIdentity pins the degenerate case: with one shard,
// every query shape produces the same rows AND the same I/O account as
// the unsharded engine — the scatter-gather layer adds zero
// simulated cost.
func TestShardedN1CostIdentity(t *testing.T) {
	un := buildGridUnsharded(t)
	s := buildGridSharded(t, 1, "range")
	ctx := context.Background()
	for _, c := range shardGridCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if err := un.ColdCache(); err != nil {
				t.Fatal(err)
			}
			if err := s.ColdCache(); err != nil {
				t.Fatal(err)
			}
			rows, err := c.un(un).Run(ctx)
			want, wes := drainStats(t, rows, err)
			srows, serr := c.sh(s).Run(ctx)
			got, ges := drainStats(t, srows, serr)
			if !c.exact {
				// Unordered shapes (notably the parallel fan-ins)
				// have scheduling-dependent sequences in both
				// engines; compare as multisets.
				sortRows(want)
				sortRows(got)
			}
			if !rowsEqual(got, want) {
				t.Fatalf("N=1 rows diverge: got %d rows, want %d", len(got), len(want))
			}
			if wes.IO != ges.IO {
				t.Errorf("N=1 I/O diverges:\nunsharded %+v\nsharded   %+v", wes.IO, ges.IO)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Pruning
// ---------------------------------------------------------------------------

func TestShardedPruningZeroDeviceIO(t *testing.T) {
	un := buildGridUnsharded(t)
	s := buildGridSharded(t, 4, "range") // bounds 750, 1500, 2250
	ctx := context.Background()

	rows, err := un.Query("t").Where("val", Between(800, 1400)).Run(ctx)
	want, _ := drainStats(t, rows, err)

	srows, serr := s.Query("t").Where("val", Between(800, 1400)).Run(ctx)
	got, es := drainStats(t, srows, serr)
	sortRows(want)
	sortRows(got)
	if !rowsEqual(got, want) {
		t.Fatalf("pruned query diverges: got %d rows, want %d", len(got), len(want))
	}

	if len(es.Shards) != 4 {
		t.Fatalf("ShardStats has %d entries, want 4", len(es.Shards))
	}
	var zero IOStats
	for i, sh := range es.Shards {
		if i == 1 {
			if sh.Pruned {
				t.Errorf("shard 1 owns [750,1500) and must run; pruned with %q", sh.PrunedWhy)
			}
			if sh.IO == zero {
				t.Errorf("shard 1 ran but reports zero device I/O")
			}
			if sh.Rows != int64(len(want)) {
				t.Errorf("shard 1 delivered %d rows, want %d", sh.Rows, len(want))
			}
			continue
		}
		if !sh.Pruned {
			t.Errorf("shard %d (%s) must be pruned by val in [800,1400)", i, sh.Owns)
		}
		if sh.PrunedWhy == "" {
			t.Errorf("shard %d pruned without a reason", i)
		}
		if sh.IO != zero {
			t.Errorf("pruned shard %d performed device I/O: %+v", i, sh.IO)
		}
	}
}

func TestShardedEmptyShard(t *testing.T) {
	// Data lives in val ∈ [0, 3000) but the partitioning reserves two
	// shards for [6000, +inf): they are active (nothing prunes them)
	// yet hold zero rows, and the gather must not stall on them.
	un := buildGridUnsharded(t)
	s, err := OpenSharded(4, Options{PoolPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := s.CreateShardedTable("t", RangePartitioning("val", 1500, 6000, 9000), "id", "val", "g", "p")
	if err != nil {
		t.Fatal(err)
	}
	loadShardedGridTable(t, tb)
	if err := s.CreateIndex("t", "val"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	rows, err := un.Query("t").Run(ctx)
	want, _ := drainStats(t, rows, err)
	srows, serr := s.Query("t").OrderBy("id").Run(ctx)
	got, es := drainStats(t, srows, serr)
	sortRows(want) // got is ordered by unique id == sorted by every col prefix
	if !rowsEqual(got, want) {
		t.Fatalf("empty-shard scan diverges: got %d rows, want %d", len(got), len(want))
	}
	for _, i := range []int{2, 3} {
		if es.Shards[i].Pruned {
			t.Errorf("shard %d is empty but not pruned-eligible; it must still run", i)
		}
		if es.Shards[i].Rows != 0 {
			t.Errorf("empty shard %d delivered %d rows", i, es.Shards[i].Rows)
		}
	}
}

func TestShardedShortCircuits(t *testing.T) {
	s := buildGridSharded(t, 4, "range")
	ctx := context.Background()
	var zero IOStats

	check := func(t *testing.T, sq *Query, wantWhy string) {
		t.Helper()
		rows, err := sq.Run(ctx)
		got, es := drainStats(t, rows, err)
		if len(got) != 0 {
			t.Fatalf("short-circuited query returned %d rows", len(got))
		}
		if es.IO != zero {
			t.Errorf("short-circuited query performed device I/O: %+v", es.IO)
		}
		for i, sh := range es.Shards {
			if !sh.Pruned {
				t.Errorf("shard %d not pruned on a short-circuited query", i)
			}
		}
		sp, err := sq.Explain()
		if err != nil {
			t.Fatal(err)
		}
		if sp.Sharded.EmptyWhy == "" || !strings.Contains(sp.Sharded.EmptyWhy, wantWhy) {
			t.Errorf("EmptyWhy = %q, want mention of %q", sp.Sharded.EmptyWhy, wantWhy)
		}
	}

	t.Run("contradiction-partition-col", func(t *testing.T) {
		check(t, s.Query("t").Where("val", Ge(100)).Where("val", Lt(50)), "contradictory")
	})
	t.Run("contradiction-other-col", func(t *testing.T) {
		check(t, s.Query("t").Where("g", Ge(10)).Where("g", Lt(3)), "contradictory")
	})
	t.Run("limit-zero", func(t *testing.T) {
		check(t, s.Query("t").Where("val", Ge(0)).Limit(0), "LIMIT 0")
	})
	t.Run("all-shards-pruned", func(t *testing.T) {
		// val ∈ [9000, 9100) is outside every shard's data but inside
		// the last range — use a range beyond the data: every shard
		// with range partitioning still owns (-inf/+inf) tails, so
		// prune cannot empty the set. A hash point predicate can:
		sh := buildGridSharded(t, 4, "hash")
		rows, err := sh.Query("t").Where("val", Between(40, 40)).Run(ctx)
		got, es := drainStats(t, rows, err)
		if len(got) != 0 {
			t.Fatalf("empty-range query returned %d rows", len(got))
		}
		if es.IO != zero {
			t.Errorf("empty-range query performed device I/O: %+v", es.IO)
		}
	})
}

// ---------------------------------------------------------------------------
// Cancellation and goroutine hygiene
// ---------------------------------------------------------------------------

func TestShardedCancelMidGather(t *testing.T) {
	for _, mode := range []string{"fan-in", "merge"} {
		mode := mode
		t.Run(mode, func(t *testing.T) {
			runtime.GC()
			base := runtime.NumGoroutine()

			s := buildGridSharded(t, 4, "range")
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			sq := s.Query("t").Where("val", Between(0, gridDomain))
			if mode == "merge" {
				sq = sq.OrderBy("id")
			}
			rows, err := sq.Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10 && rows.Next(); i++ {
			}
			cancel()
			for rows.Next() {
			}
			if err := rows.Err(); err != nil && !errors.Is(err, context.Canceled) {
				t.Errorf("post-cancel Err = %v, want context.Canceled or drained-nil", err)
			}
			_ = rows.Close()

			waitGoroutines(t, base)
		})
	}
}

func TestShardedPreCancelled(t *testing.T) {
	s := buildGridSharded(t, 2, "range")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Query("t").Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run on cancelled ctx = %v, want context.Canceled", err)
	}
}

// ---------------------------------------------------------------------------
// Prepared statements: bind-time re-pruning
// ---------------------------------------------------------------------------

func TestShardedStmtBindPruning(t *testing.T) {
	un := buildGridUnsharded(t)
	s := buildGridSharded(t, 4, "range")
	ctx := context.Background()

	stU, err := un.Prepare(un.Query("t").Where("val", Between(Param("lo"), Param("hi"))).OrderBy("id"))
	if err != nil {
		t.Fatal(err)
	}
	stS, err := s.Prepare(s.Query("t").Where("val", Between(Param("lo"), Param("hi"))).OrderBy("id"))
	if err != nil {
		t.Fatal(err)
	}

	activeShards := func(es ExecStats) int {
		n := 0
		for _, sh := range es.Shards {
			if !sh.Pruned {
				n++
			}
		}
		return n
	}

	cases := []struct {
		name   string
		b      Bind
		active int
	}{
		{"narrow-one-shard", Bind{"lo": 800, "hi": 1400}, 1},
		{"wide-all-shards", Bind{"lo": 0, "hi": gridDomain}, 4},
		{"two-shards", Bind{"lo": 800, "hi": 1600}, 2},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			rows, err := stU.Run(ctx, c.b)
			want, _ := drainStats(t, rows, err)
			srows, serr := stS.Run(ctx, c.b)
			got, es := drainStats(t, srows, serr)
			if !rowsEqual(got, want) {
				t.Fatalf("bind %v: got %d rows, want %d", c.b, len(got), len(want))
			}
			if n := activeShards(es); n != c.active {
				t.Errorf("bind %v ran %d shards, want %d", c.b, n, c.active)
			}
			if !es.PlanCacheHit {
				t.Errorf("prepared run not marked plan-cached")
			}
		})
	}

	t.Run("bind-errors", func(t *testing.T) {
		if _, err := stS.Run(ctx, Bind{"lo": 0}); !errors.Is(err, ErrUnboundParam) {
			t.Errorf("missing bind = %v, want ErrUnboundParam", err)
		}
		if _, err := stS.Run(ctx, Bind{"lo": 0, "hi": 10, "zzz": 1}); !errors.Is(err, ErrUnknownParam) {
			t.Errorf("extra bind = %v, want ErrUnknownParam", err)
		}
	})

	t.Run("explain-binds", func(t *testing.T) {
		sp, err := stS.Explain(Bind{"lo": 800, "hi": 1400})
		if err != nil {
			t.Fatal(err)
		}
		str := sp.String()
		if !strings.Contains(str, "$lo=800") {
			t.Errorf("stmt Explain misses bind annotation:\n%s", str)
		}
		pruned := 0
		for _, shp := range sp.Sharded.Shards {
			if shp.Pruned {
				pruned++
			}
		}
		if pruned != 3 {
			t.Errorf("narrow bind prunes %d shards in Explain, want 3:\n%s", pruned, str)
		}
	})
}

func TestShardedStmtAggregateLimitParam(t *testing.T) {
	un := buildGridUnsharded(t)
	s := buildGridSharded(t, 4, "range")
	ctx := context.Background()

	// The per-shard queries drop OrderBy/Limit (partials are merged,
	// ordered and limited at the coordinator), so the $n parameter only
	// exists above the gather: the shards must run without it.
	stU, err := un.Prepare(un.Query("t").Where("val", Between(Param("lo"), Param("hi"))).
		GroupBy("g", Count(), Sum("p")).OrderBy("g").Limit(Param("n")))
	if err != nil {
		t.Fatal(err)
	}
	stS, err := s.Prepare(s.Query("t").Where("val", Between(Param("lo"), Param("hi"))).
		GroupBy("g", Count(), Sum("p")).OrderBy("g").Limit(Param("n")))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []Bind{
		{"lo": 0, "hi": gridDomain, "n": 5},
		{"lo": 300, "hi": 2400, "n": 100},
		{"lo": 800, "hi": 1400, "n": 3},
		{"lo": 0, "hi": gridDomain, "n": 0},
	} {
		rows, err := stU.Run(ctx, b)
		want, _ := drainStats(t, rows, err)
		srows, serr := stS.Run(ctx, b)
		got, _ := drainStats(t, srows, serr)
		if !rowsEqual(got, want) {
			t.Fatalf("bind %v: got %d rows, want %d", b, len(got), len(want))
		}
	}
}

// ---------------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------------

const (
	joinFactRowsN = 6000
	joinDimRowsN  = 500
	joinValDomain = 2000
)

func joinFactRows() [][]int64 {
	rng := rand.New(rand.NewSource(131))
	rows := make([][]int64, joinFactRowsN)
	for i := range rows {
		rows[i] = []int64{int64(i), rng.Int63n(joinDimRowsN), rng.Int63n(joinValDomain), rng.Int63n(1000)}
	}
	return rows
}

func joinDimRows() [][]int64 {
	rng := rand.New(rand.NewSource(137))
	rows := make([][]int64, joinDimRowsN)
	for i := range rows {
		rows[i] = []int64{int64(i), int64(i) % 8, rng.Int63n(100)}
	}
	return rows
}

func joinExtraRows() [][]int64 {
	rng := rand.New(rand.NewSource(139))
	rows := make([][]int64, joinDimRowsN)
	for i := range rows {
		rows[i] = []int64{int64(i), rng.Int63n(50)}
	}
	return rows
}

type tableSpec struct {
	name    string
	cols    []string
	rows    [][]int64
	indexes []string
}

func joinTableSpecs() []tableSpec {
	return []tableSpec{
		{"f", []string{"fid", "fkey", "fval", "fp"}, joinFactRows(), []string{"fkey", "fval"}},
		{"d", []string{"did", "cat", "w"}, joinDimRows(), []string{"did"}},
		{"e", []string{"eid", "ez"}, joinExtraRows(), []string{"eid"}},
	}
}

func buildJoinUnsharded(t testing.TB) *DB {
	t.Helper()
	db, err := Open(Options{PoolPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range joinTableSpecs() {
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
		for _, ix := range ts.indexes {
			if err := db.CreateIndex(ts.name, ix); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// buildJoinSharded loads the three join tables, partitioned by the
// given per-table partitionings (keyed by table name).
func buildJoinSharded(t testing.TB, n int, parts map[string]Partitioning) *ShardedDB {
	t.Helper()
	s, err := OpenSharded(n, Options{PoolPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range joinTableSpecs() {
		tb, err := s.CreateShardedTable(ts.name, parts[ts.name], ts.cols...)
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
		for _, ix := range ts.indexes {
			if err := s.CreateIndex(ts.name, ix); err != nil {
				t.Fatal(err)
			}
		}
	}
	return s
}

// pwParts co-partitions all three tables on the join keys (fkey = did
// = eid) with identical range bounds: every join stage runs
// partition-wise.
func pwParts(n int) map[string]Partitioning {
	b := EqualWidthBounds(0, joinDimRowsN, n)
	return map[string]Partitioning{
		"f": RangePartitioning("fkey", b...),
		"d": RangePartitioning("did", b...),
		"e": RangePartitioning("eid", b...),
	}
}

// bcParts partitions the fact table on a NON-join column: the f↔d join
// cannot run partition-wise and must broadcast one side.
func bcParts(n int) map[string]Partitioning {
	return map[string]Partitioning{
		"f": HashPartitioning("fval", n),
		"d": HashPartitioning("did", n),
		"e": HashPartitioning("eid", n),
	}
}

// shardJoinCases are the join shapes whose keys co-partition under
// pwParts (every stage partition-wise); shardBroadcastCases run against
// bcParts, where the f↔d join must broadcast one side.
func shardJoinCases() []shardCase {
	return []shardCase{
		{"pw-hash", false,
			func(db *DB) *Query {
				return db.Query("f").Join("d", "fkey", "did").Where("fval", Between(200, 900))
			},
			func(s *ShardedDB) *Query {
				return s.Query("f").Join("d", "fkey", "did").Where("fval", Between(200, 900))
			}},
		{"pw-pruned", false,
			func(db *DB) *Query {
				return db.Query("f").Join("d", "fkey", "did").Where("fkey", Between(100, 180))
			},
			func(s *ShardedDB) *Query {
				return s.Query("f").Join("d", "fkey", "did").Where("fkey", Between(100, 180))
			}},
		{"pw-merge", false,
			func(db *DB) *Query {
				return db.Query("f").JoinWithOptions("d", "fkey", "did", ScanOptions{Path: PathIndex}).
					Where("fkey", Between(0, joinDimRowsN)).WithOptions(ScanOptions{Path: PathIndex})
			},
			func(s *ShardedDB) *Query {
				return s.Query("f").JoinWithOptions("d", "fkey", "did", ScanOptions{Path: PathIndex}).
					Where("fkey", Between(0, joinDimRowsN)).WithOptions(ScanOptions{Path: PathIndex})
			}},
		{"pw-agg", true,
			func(db *DB) *Query {
				return db.Query("f").Join("d", "fkey", "did").GroupBy("cat", Count(), Sum("w"))
			},
			func(s *ShardedDB) *Query {
				return s.Query("f").Join("d", "fkey", "did").GroupBy("cat", Count(), Sum("w"))
			}},
		{"pw-3way", false,
			func(db *DB) *Query {
				return db.Query("f").Join("d", "fkey", "did").Join("e", "fkey", "eid").Where("fval", Lt(400))
			},
			func(s *ShardedDB) *Query {
				return s.Query("f").Join("d", "fkey", "did").Join("e", "fkey", "eid").Where("fval", Lt(400))
			}},
		{"pw-ord", true,
			func(db *DB) *Query {
				return db.Query("f").Join("d", "fkey", "did").Where("fval", Between(200, 900)).OrderBy("fid")
			},
			func(s *ShardedDB) *Query {
				return s.Query("f").Join("d", "fkey", "did").Where("fval", Between(200, 900)).OrderBy("fid")
			}},
	}
}

func shardBroadcastCases() []shardCase {
	return []shardCase{
		{"bc", false,
			func(db *DB) *Query {
				return db.Query("f").Join("d", "fkey", "did").Where("fval", Between(200, 900))
			},
			func(s *ShardedDB) *Query {
				return s.Query("f").Join("d", "fkey", "did").Where("fval", Between(200, 900))
			}},
		{"bc-agg", true,
			func(db *DB) *Query {
				return db.Query("f").Join("d", "fkey", "did").GroupBy("cat", Count(), Sum("w"))
			},
			func(s *ShardedDB) *Query {
				return s.Query("f").Join("d", "fkey", "did").GroupBy("cat", Count(), Sum("w"))
			}},
		{"bc-ord", true,
			func(db *DB) *Query {
				return db.Query("f").Join("d", "fkey", "did").Where("fval", Between(200, 900)).OrderBy("fid")
			},
			func(s *ShardedDB) *Query {
				return s.Query("f").Join("d", "fkey", "did").Where("fval", Between(200, 900)).OrderBy("fid")
			}},
		{"bc-sel", false,
			func(db *DB) *Query {
				return db.Query("f").Join("d", "fkey", "did").Select("fid", "cat").Where("cat", Eq(3))
			},
			func(s *ShardedDB) *Query {
				return s.Query("f").Join("d", "fkey", "did").Select("fid", "cat").Where("cat", Eq(3))
			}},
		{"bc-dim-pruned", false,
			func(db *DB) *Query {
				return db.Query("f").Join("d", "fkey", "did").Where("did", Eq(7))
			},
			func(s *ShardedDB) *Query {
				return s.Query("f").Join("d", "fkey", "did").Where("did", Eq(7))
			}},
	}
}

func TestShardedJoinEquivalence(t *testing.T) {
	un := buildJoinUnsharded(t)
	ctx := context.Background()
	cases, bcCases := shardJoinCases(), shardBroadcastCases()

	for _, n := range []int{1, 2, 4, 7} {
		pw := buildJoinSharded(t, n, pwParts(n))
		bc := buildJoinSharded(t, n, bcParts(n))
		run := func(s *ShardedDB, c shardCase) {
			t.Run(strings.Join([]string{"N" + itoa(n), c.name}, "/"), func(t *testing.T) {
				rows, err := c.un(un).Run(ctx)
				want, _ := drainStats(t, rows, err)
				srows, serr := c.sh(s).Run(ctx)
				got, _ := drainStats(t, srows, serr)
				if !c.exact {
					sortRows(want)
					sortRows(got)
				}
				if !rowsEqual(got, want) {
					t.Fatalf("join result diverges: got %d rows, want %d", len(got), len(want))
				}
			})
		}
		for _, c := range cases {
			run(pw, c)
		}
		for _, c := range bcCases {
			run(bc, c)
		}
	}
}

func TestShardedJoinStrategies(t *testing.T) {
	pw := buildJoinSharded(t, 4, pwParts(4))
	bc := buildJoinSharded(t, 4, bcParts(4))
	ctx := context.Background()

	t.Run("partition-wise", func(t *testing.T) {
		sp, err := pw.Query("f").Join("d", "fkey", "did").Where("fkey", Between(100, 180)).Explain()
		if err != nil {
			t.Fatal(err)
		}
		if sp.Sharded.Strategy != "partition-wise" {
			t.Errorf("co-partitioned join strategy = %q, want partition-wise", sp.Sharded.Strategy)
		}
		pruned := 0
		for _, shp := range sp.Sharded.Shards {
			if shp.Pruned {
				pruned++
			}
		}
		if pruned == 0 {
			t.Errorf("fkey ∈ [100,180) must prune some of 4 co-partitioned shards:\n%s", sp.String())
		}
	})

	t.Run("per-shard-merge-join", func(t *testing.T) {
		sp, err := pw.Query("f").JoinWithOptions("d", "fkey", "did", ScanOptions{Path: PathIndex}).
			Where("fkey", Between(0, joinDimRowsN)).WithOptions(ScanOptions{Path: PathIndex}).Explain()
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, shp := range sp.Sharded.Shards {
			if shp.Plan != nil && shp.Plan.Root != nil && shp.Plan.Root.Name == "merge-join" {
				found = true
			}
		}
		if !found {
			t.Errorf("no shard plans a merge-join under forced index paths:\n%s", sp.String())
		}
	})

	t.Run("broadcast", func(t *testing.T) {
		sp, err := bc.Query("f").Join("d", "fkey", "did").Where("fval", Between(200, 900)).Explain()
		if err != nil {
			t.Fatal(err)
		}
		if sp.Sharded.Strategy != "broadcast" {
			t.Errorf("non-co-partitioned join strategy = %q, want broadcast", sp.Sharded.Strategy)
		}
		if !strings.Contains(sp.String(), "broadcast") {
			t.Errorf("rendered plan misses the broadcast stage:\n%s", sp.String())
		}
	})

	// A shard's account holds all the work done on it: its slice of the
	// broadcast side's drain, its stream and the hash join above it —
	// alone, exactly what its device did.
	t.Run("broadcast-io", func(t *testing.T) {
		before := make([]IOStats, bc.NumShards())
		for i := range before {
			before[i] = bc.Shard(i).Stats()
		}
		rows, err := bc.Query("f").Join("d", "fkey", "did").Where("fval", Between(200, 900)).Run(ctx)
		_, es := drainStats(t, rows, err)
		for i, sh := range es.Shards {
			if d := bc.Shard(i).Stats().Sub(before[i]); sh.IO != d {
				t.Errorf("shard %d reports\n%+v\nits device did\n%+v", i, sh.IO, d)
			}
		}
	})

	t.Run("two-joins-not-copartitioned", func(t *testing.T) {
		_, err := bc.Query("f").Join("d", "fkey", "did").Join("e", "fkey", "eid").Run(ctx)
		if !errors.Is(err, ErrShardJoin) {
			t.Errorf("two non-co-partitioned joins = %v, want ErrShardJoin", err)
		}
	})

	t.Run("join-unsharded-table", func(t *testing.T) {
		for i := 0; i < pw.NumShards(); i++ {
			tb, err := pw.Shard(i).CreateTable("x", "xid", "xv")
			if err != nil {
				t.Fatal(err)
			}
			if err := tb.Append(int64(i), 1); err != nil {
				t.Fatal(err)
			}
			if err := tb.Finish(); err != nil {
				t.Fatal(err)
			}
		}
		_, err := pw.Query("f").Join("x", "fkey", "xid").Run(ctx)
		if !errors.Is(err, ErrNotSharded) {
			t.Errorf("join against unsharded table = %v, want ErrNotSharded", err)
		}
	})
}

// ---------------------------------------------------------------------------
// Surface errors and DDL validation
// ---------------------------------------------------------------------------

func TestShardedErrors(t *testing.T) {
	ctx := context.Background()
	if _, err := OpenSharded(0, Options{}); err == nil {
		t.Error("OpenSharded(0) must fail")
	}
	s, err := OpenSharded(2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateShardedTable("x", HashPartitioning("a", 3), "a", "b"); err == nil {
		t.Error("partitioning N != shard count must fail")
	}
	if _, err := s.CreateShardedTable("x", HashPartitioning("z", 2), "a", "b"); err == nil {
		t.Error("partition column outside the table's columns must fail")
	}
	if _, err := s.CreateShardedTable("x", Partitioning{}, "a", "b"); err == nil {
		t.Error("invalid partitioning must fail")
	}

	// A table created per shard directly is not registered as sharded.
	for i := 0; i < 2; i++ {
		tb, err := s.Shard(i).CreateTable("plain", "a", "b")
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.Append(int64(i), 2); err != nil {
			t.Fatal(err)
		}
		if err := tb.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Query("plain").Run(ctx); !errors.Is(err, ErrNotSharded) {
		t.Errorf("query of unsharded table = %v, want ErrNotSharded", err)
	}
	if _, err := s.Partitioning("plain"); !errors.Is(err, ErrNotSharded) {
		t.Errorf("Partitioning of unsharded table = %v, want ErrNotSharded", err)
	}
	if err := s.Insert("plain", 1, 2); !errors.Is(err, ErrNotSharded) {
		t.Errorf("Insert into unsharded table = %v, want ErrNotSharded", err)
	}

	// Builder errors propagate like Query's.
	tb, err := s.CreateShardedTable("t", HashPartitioning("a", 2), "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Append(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := tb.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query("t").Select("a").Select("b").Run(ctx); err == nil {
		t.Error("double Select must fail")
	}
	if _, err := s.Query("t").GroupBy("a").Run(ctx); err == nil {
		t.Error("GroupBy without aggregates must fail")
	}
	if _, err := s.Query("t").Limit(-1).Run(ctx); err == nil {
		t.Error("negative limit must fail")
	}
	if _, err := s.Query("t").Where("nope", Eq(1)).Run(ctx); !errors.Is(err, ErrUnknownColumn) {
		t.Error("unknown column must fail with ErrUnknownColumn")
	}
	if _, err := s.Prepare(nil); err == nil {
		t.Error("Prepare(nil) must fail")
	}
	other, err := OpenSharded(2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Prepare(s.Query("t")); err == nil {
		t.Error("Prepare of a query from another database must fail")
	}
}

func TestShardedInsertAndShardRows(t *testing.T) {
	s := buildGridSharded(t, 4, "range")
	perShard, err := s.ShardRows("t")
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for i, n := range perShard {
		if n == 0 {
			t.Errorf("shard %d holds no rows of a uniform load", i)
		}
		total += n
	}
	if got, err := s.NumRows("t"); err != nil || got != total {
		t.Fatalf("NumRows = %d (%v), want %d", got, err, total)
	}
	if total != gridRowCount {
		t.Fatalf("shards hold %d rows, want %d", total, gridRowCount)
	}

	// Insert routes to the owning shard: val=100 lands in shard 0
	// (bounds 750/1500/2250).
	if err := s.Insert("t", 1_000_000, 100, 4, 9); err != nil {
		t.Fatal(err)
	}
	after, err := s.ShardRows("t")
	if err != nil {
		t.Fatal(err)
	}
	if after[0] != perShard[0]+1 {
		t.Errorf("shard 0 rows %d → %d, want +1", perShard[0], after[0])
	}
	for i := 1; i < 4; i++ {
		if after[i] != perShard[i] {
			t.Errorf("shard %d rows changed %d → %d on a shard-0 insert", i, perShard[i], after[i])
		}
	}
}

// ---------------------------------------------------------------------------
// Explain rendering
// ---------------------------------------------------------------------------

func TestShardedExplainRendering(t *testing.T) {
	s := buildGridSharded(t, 4, "range")

	sp, err := s.Query("t").Where("val", Between(800, 1400)).OrderBy("id").Explain()
	if err != nil {
		t.Fatal(err)
	}
	if sp.Sharded.Strategy != "scan" {
		t.Errorf("Strategy = %q, want scan", sp.Sharded.Strategy)
	}
	if sp.Sharded.Gather != "ordered merge by id" {
		t.Errorf("Gather = %q, want ordered merge by id", sp.Sharded.Gather)
	}
	str := sp.String()
	for _, want := range []string{"strategy=scan", "range(val)", "pruned", "ordered merge by id"} {
		if !strings.Contains(str, want) {
			t.Errorf("rendered plan misses %q:\n%s", want, str)
		}
	}
	var active, pruned int
	for _, shp := range sp.Sharded.Shards {
		if shp.Pruned {
			pruned++
			if shp.Plan != nil {
				t.Errorf("pruned shard %d carries a plan", shp.Shard)
			}
		} else {
			active++
			if shp.Plan == nil {
				t.Errorf("active shard %d has no plan", shp.Shard)
			}
		}
	}
	if active != 1 || pruned != 3 {
		t.Errorf("explain shows %d active / %d pruned shards, want 1/3:\n%s", active, pruned, str)
	}

	// Aggregates render the coordinator merge stage.
	sp, err = s.Query("t").GroupBy("g", Count()).Explain()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sp.String(), "merge-agg") {
		t.Errorf("aggregate plan misses merge-agg stage:\n%s", sp.String())
	}

	// Rows.Plan returns the same plan lazily.
	rows, err := s.Query("t").Where("val", Between(800, 1400)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	rp := rows.Plan()
	if rp == nil {
		t.Fatal("Rows.Plan did not render")
	}
	if rp.Sharded.Strategy != "scan" {
		t.Errorf("Rows.Plan strategy = %q", rp.Sharded.Strategy)
	}
}

// ---------------------------------------------------------------------------
// Column access on sharded rows
// ---------------------------------------------------------------------------

func TestShardedRowsColumns(t *testing.T) {
	s := buildGridSharded(t, 2, "range")
	rows, err := s.Query("t").Select("id", "val").Where("val", Between(0, 100)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	cols := rows.Columns()
	if len(cols) != 2 || cols[0] != "id" || cols[1] != "val" {
		t.Fatalf("Columns = %v", cols)
	}
	if !rows.Next() {
		t.Fatal("no rows")
	}
	if v, ok := rows.Col("val"); !ok || v < 0 || v >= 100 {
		t.Errorf("Col(val) = %d, %v", v, ok)
	}
	if _, err := rows.Column("g"); !errors.Is(err, ErrNotSelected) {
		t.Errorf("projected-away column = %v, want ErrNotSelected", err)
	}
	if _, err := rows.Column("nope"); !errors.Is(err, ErrUnknownColumn) {
		t.Errorf("unknown column = %v, want ErrUnknownColumn", err)
	}
	var buf [2]int64
	if n := rows.CopyRow(buf[:]); n != 2 {
		t.Errorf("CopyRow = %d", n)
	}
}

// ---------------------------------------------------------------------------
// Coordinator stages: strategy × shape
// ---------------------------------------------------------------------------

// TestShardedCoordinatorStages pins, for every scatter strategy and
// every shape of the stage list above the gather, the exact
// Plan.Sharded.Coordinator strings, the gather mode, and the operator
// names ExecStats reports in order. The expectations were recorded at
// the commit before the coordinator started reading its stage list from
// the shard-0 binding; a planning refactor must leave them untouched.
func TestShardedCoordinatorStages(t *testing.T) {
	type fixture struct {
		s            *ShardedDB
		base         func(s *ShardedDB) *Query
		sel          [2]string
		group, order string
	}
	join := func(s *ShardedDB) *Query { return s.Query("f").Join("d", "fkey", "did") }
	fixtures := map[string]fixture{
		"scan": {buildGridSharded(t, 3, "range"),
			func(s *ShardedDB) *Query { return s.Query("t") }, [2]string{"id", "g"}, "g", "id"},
		"partition-wise": {buildJoinSharded(t, 3, pwParts(3)), join, [2]string{"fid", "cat"}, "cat", "fid"},
		"broadcast":      {buildJoinSharded(t, 3, bcParts(3)), join, [2]string{"fid", "cat"}, "cat", "fid"},
	}
	shapes := map[string]func(q *Query, f fixture) *Query{
		"plain":         func(q *Query, f fixture) *Query { return q },
		"select":        func(q *Query, f fixture) *Query { return q.Select(f.sel[0], f.sel[1]) },
		"group":         func(q *Query, f fixture) *Query { return q.GroupBy(f.group, Count()) },
		"group-ord-agg": func(q *Query, f fixture) *Query { return q.GroupBy(f.group, Count()).OrderBy("count") },
		"ord":           func(q *Query, f fixture) *Query { return q.OrderBy(f.order) },
		"limit":         func(q *Query, f fixture) *Query { return q.Limit(7) },
		"ord-limit":     func(q *Query, f fixture) *Query { return q.OrderBy(f.order).Limit(7) },
	}
	const bcStage = "broadcast d (shards [0 1 2]) into every f join"
	cases := []struct {
		strategy, shape string
		coordinator     []string
		gather          string
		operators       []string
	}{
		{"scan", "plain", nil, "unordered fan-in", []string{"gather[3]"}},
		{"scan", "select", nil, "unordered fan-in", []string{"gather[3]"}},
		{"scan", "group", []string{"merge-agg"}, "unordered fan-in", []string{"gather[3]", "merge-agg"}},
		{"scan", "group-ord-agg", []string{"merge-agg", "sort by count"}, "unordered fan-in", []string{"gather[3]", "merge-agg", "sort"}},
		{"scan", "ord", nil, "ordered merge by id", []string{"gather-merge[3]"}},
		{"scan", "limit", []string{"limit 7"}, "unordered fan-in", []string{"gather[3]", "limit"}},
		{"scan", "ord-limit", []string{"limit 7"}, "ordered merge by id", []string{"gather-merge[3]", "limit"}},
		{"partition-wise", "plain", nil, "unordered fan-in", []string{"gather[3]"}},
		{"partition-wise", "select", nil, "unordered fan-in", []string{"gather[3]"}},
		{"partition-wise", "group", []string{"merge-agg"}, "unordered fan-in", []string{"gather[3]", "merge-agg"}},
		{"partition-wise", "group-ord-agg", []string{"merge-agg", "sort by count"}, "unordered fan-in", []string{"gather[3]", "merge-agg", "sort"}},
		{"partition-wise", "ord", nil, "ordered merge by fid", []string{"gather-merge[3]"}},
		{"partition-wise", "limit", []string{"limit 7"}, "unordered fan-in", []string{"gather[3]", "limit"}},
		{"partition-wise", "ord-limit", []string{"limit 7"}, "ordered merge by fid", []string{"gather-merge[3]", "limit"}},
		{"broadcast", "plain", []string{bcStage}, "unordered fan-in", []string{"gather[3]"}},
		{"broadcast", "select", []string{bcStage, "project"}, "unordered fan-in", []string{"gather[3]", "project"}},
		{"broadcast", "group", []string{bcStage, "hash-agg"}, "unordered fan-in", []string{"gather[3]", "hash-agg"}},
		{"broadcast", "group-ord-agg", []string{bcStage, "hash-agg", "sort by count"}, "unordered fan-in", []string{"gather[3]", "hash-agg", "sort"}},
		{"broadcast", "ord", []string{bcStage, "sort by fid"}, "unordered fan-in", []string{"gather[3]", "sort"}},
		{"broadcast", "limit", []string{bcStage, "limit 7"}, "unordered fan-in", []string{"gather[3]", "limit"}},
		{"broadcast", "ord-limit", []string{bcStage, "sort by fid", "limit 7"}, "unordered fan-in", []string{"gather[3]", "sort", "limit"}},
	}
	if len(cases) != len(fixtures)*len(shapes) {
		t.Fatalf("%d cases for %d strategies × %d shapes", len(cases), len(fixtures), len(shapes))
	}
	for _, c := range cases {
		c := c
		t.Run(c.strategy+"/"+c.shape, func(t *testing.T) {
			f := fixtures[c.strategy]
			q := shapes[c.shape](f.base(f.s), f)
			p, err := q.Explain()
			if err != nil {
				t.Fatal(err)
			}
			if p.Sharded.Strategy != c.strategy {
				t.Fatalf("Strategy = %q, want %q", p.Sharded.Strategy, c.strategy)
			}
			if !slices.Equal(p.Sharded.Coordinator, c.coordinator) {
				t.Errorf("Coordinator = %q, want %q", p.Sharded.Coordinator, c.coordinator)
			}
			if p.Sharded.Gather != c.gather {
				t.Errorf("Gather = %q, want %q", p.Sharded.Gather, c.gather)
			}
			rows, err := q.Run(context.Background())
			_, es := drainStats(t, rows, err)
			var ops []string
			for _, o := range es.Operators {
				ops = append(ops, o.Name)
			}
			if !slices.Equal(ops, c.operators) {
				t.Errorf("Operators = %q, want %q", ops, c.operators)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Pruning against a brute-force oracle
// ---------------------------------------------------------------------------

// pruneConjunct is one generated comparison on a partition column; pa
// and pb say which of its arguments the prepared form passes as Params.
type pruneConjunct struct {
	kind   int // 0 Eq, 1 Lt, 2 Le, 3 Gt, 4 Ge, 5 Between
	a, b   int64
	pa, pb bool
}

func (c pruneConjunct) matches(v int64) bool {
	switch c.kind {
	case 0:
		return v == c.a
	case 1:
		return v < c.a
	case 2:
		return v <= c.a
	case 3:
		return v > c.a
	case 4:
		return v >= c.a
	}
	return c.a <= v && v < c.b
}

// pred builds the conjunct's predicate. With a non-nil bind set the
// arguments flagged pa/pb become parameters named after the conjunct's
// position and their values land in bind.
func (c pruneConjunct) pred(i int, bind Bind) Pred {
	arg := func(asParam bool, name string, v int64) any {
		if bind == nil || !asParam {
			return v
		}
		name += itoa(i)
		bind[name] = v
		return Param(name)
	}
	a := arg(c.pa, "a", c.a)
	switch c.kind {
	case 0:
		return Eq(a)
	case 1:
		return Lt(a)
	case 2:
		return Le(a)
	case 3:
		return Gt(a)
	case 4:
		return Ge(a)
	}
	return Between(a, arg(c.pb, "b", c.b))
}

// TestShardedPruningOracle checks partition pruning against brute
// force: for generated conjunct sets on a partition column — mixed
// comparison kinds, duplicates, contradictions, literal and
// parameter-bound arguments — on the driving table and on the second
// input of a partition-wise join, the shards that run are exactly
// {Route(v) : v in the domain satisfies every conjunct}, and every
// other shard reports why it was pruned.
func TestShardedPruningOracle(t *testing.T) {
	const (
		n            = 3
		keys         = 300 // constants fall in [0, keys]
		domLo, domHi = -200, 500
	)
	ctx := context.Background()
	for _, scheme := range []string{"range", "hash"} {
		part := func(col string) Partitioning {
			if scheme == "hash" {
				return HashPartitioning(col, n)
			}
			return RangePartitioning(col, 100, 200)
		}
		s, err := OpenSharded(n, Options{PoolPages: 32})
		if err != nil {
			t.Fatal(err)
		}
		for _, tab := range [][3]string{{"a", "ak", "av"}, {"b", "bk", "bv"}} {
			tb, err := s.CreateShardedTable(tab[0], part(tab[1]), tab[1], tab[2])
			if err != nil {
				t.Fatal(err)
			}
			for i := int64(0); i < keys; i++ {
				if err := tb.Append(i, i%7); err != nil {
					t.Fatal(err)
				}
			}
			if err := tb.Finish(); err != nil {
				t.Fatal(err)
			}
			if err := s.CreateIndex(tab[0], tab[1]); err != nil {
				t.Fatal(err)
			}
		}
		targets := []struct {
			name string
			base func() *Query
			col  string
		}{
			{"driving", func() *Query { return s.Query("a") }, "ak"},
			{"join-driving", func() *Query { return s.Query("a").Join("b", "ak", "bk") }, "ak"},
			{"join-second", func() *Query { return s.Query("a").Join("b", "ak", "bk") }, "bk"},
		}
		check := func(t *testing.T, rows *Rows, err error, want [n]bool) {
			t.Helper()
			_, es := drainStats(t, rows, err)
			for i, sh := range es.Shards {
				if sh.Pruned == want[i] {
					t.Errorf("shard %d (%s): pruned=%v, oracle active=%v (%q)", i, sh.Owns, sh.Pruned, want[i], sh.PrunedWhy)
				}
				if (sh.PrunedWhy != "") != sh.Pruned {
					t.Errorf("shard %d: pruned=%v with reason %q", i, sh.Pruned, sh.PrunedWhy)
				}
			}
		}

		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 60; trial++ {
			var conj []pruneConjunct
			for k := rng.Intn(5); k > 0; k-- {
				c := pruneConjunct{kind: rng.Intn(6), a: rng.Int63n(keys + 1), pa: rng.Intn(2) == 0, pb: rng.Intn(2) == 0}
				c.b = c.a + rng.Int63n(6) // narrow (or empty) Between: hash pruning enumerates it
				if rng.Intn(3) == 0 {
					c.b = rng.Int63n(keys + 1)
				}
				conj = append(conj, c)
				if rng.Intn(4) == 0 {
					conj = append(conj, c) // duplicate
				}
			}
			p := part("k")
			var want [n]bool
			for v := int64(domLo); v < domHi; v++ {
				ok := true
				for _, c := range conj {
					ok = ok && c.matches(v)
				}
				if ok {
					want[p.Route(v)] = true
				}
			}
			for _, tg := range targets {
				t.Run(strings.Join([]string{scheme, tg.name, "trial" + itoa(trial/10) + itoa(trial%10)}, "/"), func(t *testing.T) {
					lit, par := tg.base(), tg.base()
					bind := Bind{}
					for i, c := range conj {
						lit.Where(tg.col, c.pred(i, nil))
						par.Where(tg.col, c.pred(i, bind))
					}
					rows, err := lit.Run(ctx)
					check(t, rows, err, want)
					st, err := s.Prepare(par)
					if err != nil {
						t.Fatal(err)
					}
					defer st.Close()
					rows, err = st.Run(ctx, bind)
					check(t, rows, err, want)
				})
			}
		}
	}
}
