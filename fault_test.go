package smoothscan

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// oracleRows runs the query shape used by the fault property tests on
// a fault-free DB and returns its rows — the ground truth every
// recoverable fault schedule must reproduce byte for byte.
func oracleRows(t *testing.T, opts ScanOptions, lo, hi int64) [][]int64 {
	t.Helper()
	db := buildParallelTestDB(t, 20_000, 5_000, 11)
	return collectScan(t, db, opts, lo, hi)
}

// faultyRows runs the same query with a fault policy attached,
// returning the rows, the final ExecStats and the error (nil when the
// schedule was recoverable).
func faultyRows(t *testing.T, policy *FaultPolicy, opts ScanOptions, lo, hi int64) ([][]int64, ExecStats, error) {
	t.Helper()
	db := buildParallelTestDB(t, 20_000, 5_000, 11)
	db.SetFaultPolicy(policy)
	rows, err := scanRange(db, "t", "val", lo, hi, opts)
	if err != nil {
		return nil, ExecStats{}, err
	}
	defer rows.Close()
	var out [][]int64
	for rows.Next() {
		out = append(out, slices.Clone(rows.Row()))
	}
	st := rows.ExecStats()
	return out, st, rows.Err()
}

// TestFaultRecoverableMatchesOracle: schedules of transient faults,
// corrupted payloads and latency spikes that bounded retry absorbs
// must leave the result set byte-identical to the fault-free oracle,
// across serial and parallel scans and every access path.
func TestFaultRecoverableMatchesOracle(t *testing.T) {
	const lo, hi = 1_000, 2_500
	schedules := []struct {
		name string
		rule FaultRule
	}{
		{"transient", FaultRule{Space: AnySpace, Kind: FaultTransient, Rate: 0.15}},
		{"corrupt", FaultRule{Space: AnySpace, Kind: FaultCorrupt, Rate: 0.15}},
		{"latency", FaultRule{Space: AnySpace, Kind: FaultLatency, Rate: 0.5, ExtraCost: 50}},
	}
	variants := []struct {
		name string
		opts ScanOptions
	}{
		{"smooth", ScanOptions{Path: PathSmooth}},
		{"smooth-ordered", ScanOptions{Path: PathSmooth, Ordered: true}},
		{"index", ScanOptions{Path: PathIndex}},
		{"full", ScanOptions{Path: PathFull}},
		{"parallel-full", ScanOptions{Path: PathFull, Parallelism: 4}},
	}
	for _, v := range variants {
		want := oracleRows(t, v.opts, lo, hi)
		ordered := v.opts.Ordered
		if !ordered {
			sortRows(want)
		}
		for _, s := range schedules {
			t.Run(v.name+"/"+s.name, func(t *testing.T) {
				got, st, err := faultyRows(t, NewFaultPolicy(99, s.rule), v.opts, lo, hi)
				checkRecovered(t, got, want, st, err, ordered, s.rule.Kind)
			})
		}
	}
}

func checkRecovered(t *testing.T, got, want [][]int64, st ExecStats, err error, ordered bool, kind FaultKind) {
	t.Helper()
	if err != nil {
		t.Fatalf("recoverable schedule surfaced error: %v", err)
	}
	if !ordered {
		sortRows(got)
	}
	if !rowsEqual(got, want) {
		t.Fatalf("faulty run returned %d rows != oracle %d rows", len(got), len(want))
	}
	if st.FaultsSeen == 0 {
		t.Fatal("schedule injected nothing (FaultsSeen = 0); rate or seed too timid")
	}
	if kind != FaultLatency && st.Retries == 0 {
		t.Fatal("recovery happened without any recorded retry")
	}
	if len(st.Degraded) != 0 {
		t.Fatalf("recoverable schedule degraded the plan: %v", st.Degraded)
	}
}

// TestFaultDeadIndexDegradesToFullScan: a permanently failing index
// space walks the ladder (index → smooth → full) at open time and
// still produces the oracle result, with the fallbacks surfaced in
// ExecStats.Degraded and the Plan header.
func TestFaultDeadIndexDegradesToFullScan(t *testing.T) {
	const lo, hi = 1_000, 2_500
	for _, path := range []AccessPath{PathIndex, PathSmooth, PathSort} {
		t.Run(path.String(), func(t *testing.T) {
			opts := ScanOptions{Path: path}
			want := oracleRows(t, opts, lo, hi)
			sortRows(want)

			db := buildParallelTestDB(t, 20_000, 5_000, 11)
			idx, err := db.IndexSpace("t", "val")
			if err != nil {
				t.Fatal(err)
			}
			db.SetFaultPolicy(NewFaultPolicy(5, FaultRule{
				Space: idx, Kind: FaultPermanent, Rate: 1,
			}))
			rows, err := scanRange(db, "t", "val", lo, hi, opts)
			if err != nil {
				t.Fatalf("degradation did not rescue the query: %v", err)
			}
			defer rows.Close()
			var got [][]int64
			for rows.Next() {
				got = append(got, slices.Clone(rows.Row()))
			}
			if rows.Err() != nil {
				t.Fatalf("Err: %v", rows.Err())
			}
			sortRows(got)
			if !rowsEqual(got, want) {
				t.Fatalf("degraded run returned %d rows != oracle %d", len(got), len(want))
			}
			st := rows.ExecStats()
			if len(st.Degraded) == 0 {
				t.Fatal("ExecStats.Degraded empty after fallback")
			}
			last := st.Degraded[len(st.Degraded)-1]
			if !strings.Contains(last, "full scan") {
				t.Fatalf("ladder should end at full scan, got %v", st.Degraded)
			}
			// Each step was forced by a failed read, and the attempts
			// that failed stay in the query's account.
			if st.IO.Faults < int64(len(st.Degraded)) {
				t.Errorf("IO counts %d faults over %d degradation steps", st.IO.Faults, len(st.Degraded))
			}
			if plan := rows.Plan().String(); !strings.Contains(plan, "degraded on fault") {
				t.Fatalf("Plan missing degradation header:\n%s", plan)
			}
		})
	}
}

// TestFaultMidStreamDegrade: a fault that surfaces from the first
// NextBatch — after Open succeeded but before any row was delivered —
// is still degraded around. A sort drains its input on first pull, so
// the dead index leaves beyond the root are only discovered then.
func TestFaultMidStreamDegrade(t *testing.T) {
	db := buildParallelTestDB(t, 20_000, 5_000, 11)
	oracle := buildParallelTestDB(t, 20_000, 5_000, 11)

	idx, err := db.IndexSpace("t", "val")
	if err != nil {
		t.Fatal(err)
	}
	// Leaves live at the front of the index space; killing pages from 2
	// up leaves the root walk at Open intact but fails the leaf scan.
	db.SetFaultPolicy(NewFaultPolicy(5, FaultRule{
		Space: idx, PageLo: 2, Kind: FaultPermanent, Rate: 1,
	}))

	run := func(d *DB) ([][]int64, *Rows) {
		rows, err := d.Query("t").Where("val", Between(1_000, 2_500)).
			OrderBy("p1").Run(context.Background())
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		var out [][]int64
		for rows.Next() {
			out = append(out, slices.Clone(rows.Row()))
		}
		if rows.Err() != nil {
			t.Fatalf("Err: %v", rows.Err())
		}
		return out, rows
	}
	want, wrows := run(oracle)
	wrows.Close()
	got, rows := run(db)
	defer rows.Close()
	if !rowsEqual(got, want) {
		t.Fatalf("mid-stream degraded run returned %d rows != oracle %d", len(got), len(want))
	}
	if st := rows.ExecStats(); len(st.Degraded) == 0 {
		t.Fatal("mid-stream fault recovered without recording degradation")
	}
}

// TestFaultUnrecoverableSurfacesTypedError: permanently dead heap
// pages cannot be degraded around — every access path reads them. The
// failure must surface as a typed error from Rows.Err (never a panic),
// with Close idempotent and every goroutine exited.
func TestFaultUnrecoverableSurfacesTypedError(t *testing.T) {
	for _, v := range []struct {
		name string
		opts ScanOptions
	}{
		{"serial", ScanOptions{Path: PathSmooth}},
		{"parallel", ScanOptions{Path: PathFull, Parallelism: 4}},
	} {
		t.Run(v.name, func(t *testing.T) {
			runtime.GC()
			base := runtime.NumGoroutine()

			db := buildParallelTestDB(t, 20_000, 5_000, 11)
			sp, err := db.TableSpace("t")
			if err != nil {
				t.Fatal(err)
			}
			db.SetFaultPolicy(NewFaultPolicy(5, FaultRule{
				Space: sp, Kind: FaultPermanent, Rate: 1,
			}))
			rows, err := scanRange(db, "t", "val", 1_000, 2_500, v.opts)
			if err != nil {
				// The whole heap is dead; failing at open is as valid
				// as failing at first Next — but it must be typed.
				if !errors.Is(err, ErrPermanentFault) {
					t.Fatalf("open error %v, want ErrPermanentFault", err)
				}
				return
			}
			for rows.Next() {
				t.Fatal("row delivered from a fully dead heap")
			}
			if !errors.Is(rows.Err(), ErrPermanentFault) {
				t.Fatalf("Err() = %v, want ErrPermanentFault", rows.Err())
			}
			first := rows.Close()
			if again := rows.Close(); !errors.Is(again, first) && again != first {
				t.Fatalf("Close not idempotent: %v then %v", first, again)
			}
			if !errors.Is(rows.Err(), ErrPermanentFault) {
				t.Fatalf("Err() after Close = %v, want ErrPermanentFault", rows.Err())
			}

			waitGoroutines(t, base)
		})
	}
}

// TestFaultUnrecoverableCorruption: rate-1 corruption exhausts the
// bounded retry (every re-read re-corrupts) and surfaces ErrPageCorrupt.
func TestFaultUnrecoverableCorruption(t *testing.T) {
	db := buildParallelTestDB(t, 20_000, 5_000, 11)
	sp, err := db.TableSpace("t")
	if err != nil {
		t.Fatal(err)
	}
	db.SetFaultPolicy(NewFaultPolicy(5, FaultRule{
		Space: sp, Kind: FaultCorrupt, Rate: 1,
	}))
	rows, err := scanRange(db, "t", "val", 1_000, 2_500, ScanOptions{Path: PathSmooth})
	if err != nil {
		if !errors.Is(err, ErrPageCorrupt) {
			t.Fatalf("open error %v, want ErrPageCorrupt", err)
		}
		return
	}
	defer rows.Close()
	for rows.Next() {
		t.Fatal("row delivered from fully corrupted heap")
	}
	if !errors.Is(rows.Err(), ErrPageCorrupt) {
		t.Fatalf("Err() = %v, want ErrPageCorrupt", rows.Err())
	}
	if st := rows.ExecStats(); st.Retries == 0 {
		t.Fatal("corruption was not retried before surfacing")
	}
}

// buildFaultJoinDB is buildParallelTestDB's t (10 000 rows, val indexed)
// plus u(uval, tag), 2 000 rows keyed 0..1999 and indexed on uval — the
// join partner whose index can die independently of t's.
func buildFaultJoinDB(t *testing.T) *DB {
	t.Helper()
	db := buildParallelTestDB(t, 10_000, 2_000, 13)
	tb, err := db.CreateTable("u", "uval", "tag")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 2_000; i++ {
		if err := tb.Append(i, i%7); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("u", "uval"); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestFaultJoinMatchesOracle: the oracle property holds through a join
// plan, and a join whose right index dies degrades and still answers.
func TestFaultJoinMatchesOracle(t *testing.T) {
	build := func() *DB { return buildFaultJoinDB(t) }
	run := func(db *DB) ([][]int64, *Rows) {
		rows, err := db.Query("t").Where("val", Between(500, 1_500)).
			Join("u", "val", "uval").Run(context.Background())
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		var out [][]int64
		for rows.Next() {
			out = append(out, slices.Clone(rows.Row()))
		}
		if rows.Err() != nil {
			t.Fatalf("Err: %v", rows.Err())
		}
		return out, rows
	}

	want, worows := run(build())
	worows.Close()
	sortRows(want)

	// Recoverable transient schedule across both tables.
	db := build()
	db.SetFaultPolicy(NewFaultPolicy(21, FaultRule{
		Space: AnySpace, Kind: FaultTransient, Rate: 0.1,
	}))
	got, rows := run(db)
	rows.Close()
	sortRows(got)
	if !rowsEqual(got, want) {
		t.Fatalf("transient join run: %d rows != oracle %d", len(got), len(want))
	}

	// Dead right-side index: the join input degrades, result unchanged.
	db = build()
	idx, err := db.IndexSpace("u", "uval")
	if err != nil {
		t.Fatal(err)
	}
	db.SetFaultPolicy(NewFaultPolicy(21, FaultRule{
		Space: idx, Kind: FaultPermanent, Rate: 1,
	}))
	got, rows = run(db)
	defer rows.Close()
	sortRows(got)
	if !rowsEqual(got, want) {
		t.Fatalf("degraded join run: %d rows != oracle %d", len(got), len(want))
	}
	if st := rows.ExecStats(); len(st.Degraded) == 0 {
		t.Fatal("join survived a dead index without recording degradation")
	}
}

// planOps lists a plan's operator names, root first, depth first.
func planOps(p *Plan) []string {
	var out []string
	var walk func(n *PlanNode)
	walk = func(n *PlanNode) {
		out = append(out, n.Name)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(p.Root)
	return out
}

// TestFaultLadder walks the degradation ladder over a table of query
// shapes, each with one or more index spaces permanently dead. A shape
// that recovers must return the fault-free rows (in sequence under
// ORDER BY), record exactly the expected ExecStats.Degraded steps and
// end on the expected operators; a shape whose result order only a
// dead index can deliver must fail with ErrPermanentFault and leave no
// goroutine behind.
func TestFaultLadder(t *testing.T) {
	ctx := context.Background()
	const lo, hi = 500, 1_000
	scan := func(opts ScanOptions) func(db *DB) *Query {
		return func(db *DB) *Query {
			return db.Query("t").Where("val", Between(lo, hi)).WithOptions(opts)
		}
	}
	join := func(lopts, ropts ScanOptions) func(db *DB) *Query {
		return func(db *DB) *Query {
			return scan(lopts)(db).JoinWithOptions("u", "val", "uval", ropts)
		}
	}
	const (
		tIdxSmooth = "t: index scan -> smooth scan (fault)"
		uIdxSmooth = "u: index scan -> smooth scan (fault)"
		tFull      = "t: smooth scan -> full scan (fault)"
		uFull      = "u: smooth scan -> full scan (fault)"
		sortVal    = "order by val: scan order -> posterior sort (fault)"
		toHash     = "val=uval: merge join -> hash join (fault)"
	)
	tDead, uDead, bothDead := []string{"t.val"}, []string{"u.uval"}, []string{"t.val", "u.uval"}
	mergeIndex := join(ScanOptions{Path: PathIndex}, ScanOptions{Path: PathIndex})
	mergeOrdered := join(ScanOptions{Ordered: true}, ScanOptions{Ordered: true})
	hashOrdered := join(ScanOptions{Ordered: true}, ScanOptions{})

	cases := []struct {
		name  string
		query func(db *DB) *Query
		bind  Bind // non-nil: Prepare the query and Run the Stmt
		dead  []string
		// pageLo, pageHi narrow the dead index pages (FaultRule's bounds).
		pageLo, pageHi int64
		ordered        bool // rows must match in sequence
		// midStream: Run opens cleanly and the fault surfaces from the
		// first Next; the caller's Bind is overwritten in between.
		midStream bool
		degraded  []string
		ops       []string
		wantErr   bool
	}{
		{name: "parallel-smooth+residual", dead: tDead,
			query: func(db *DB) *Query {
				return scan(ScanOptions{Parallelism: 4})(db).Where("p2", Lt(15_000))
			},
			degraded: []string{tFull}, ops: []string{"parallel", "full-scan"}},
		{name: "sort+orderby", dead: tDead, ordered: true,
			query: func(db *DB) *Query {
				return scan(ScanOptions{Path: PathSort})(db).OrderBy("val")
			},
			degraded: []string{"t: sort scan -> smooth scan (fault)", sortVal, tFull},
			ops:      []string{"sort", "full-scan"}},
		{name: "orderby", dead: tDead, ordered: true,
			query:    func(db *DB) *Query { return scan(ScanOptions{})(db).OrderBy("val") },
			degraded: []string{sortVal, tFull}, ops: []string{"sort", "full-scan"}},
		{name: "orderby+ordered", dead: tDead, ordered: true,
			query:    func(db *DB) *Query { return scan(ScanOptions{Ordered: true})(db).OrderBy("val") },
			degraded: []string{sortVal, tFull}, ops: []string{"sort", "full-scan"}},
		{name: "ordered-no-orderby", dead: tDead, wantErr: true,
			query: scan(ScanOptions{Ordered: true})},
		{name: "ordered-groupby", dead: tDead, wantErr: true,
			query: func(db *DB) *Query { return scan(ScanOptions{Ordered: true})(db).GroupBy("val", Count()) }},
		{name: "prepared-switch", dead: tDead, bind: Bind{"lo": lo, "hi": hi},
			query: func(db *DB) *Query {
				return db.Query("t").Where("val", Between(Param("lo"), Param("hi"))).
					WithOptions(ScanOptions{Path: PathSwitch})
			},
			degraded: []string{"t: switch scan -> smooth scan (fault)", tFull}, ops: []string{"full-scan"}},
		{name: "prepared-midstream", dead: tDead, pageLo: 1, pageHi: 2, bind: Bind{"lo": 0, "hi": 150},
			midStream: true,
			query: func(db *DB) *Query {
				return db.Query("t").Where("val", Between(Param("lo"), Param("hi")))
			},
			degraded: []string{tFull}, ops: []string{"full-scan"}},

		{name: "merge-index/t-dead", query: mergeIndex, dead: tDead,
			degraded: []string{toHash, tIdxSmooth, uIdxSmooth, tFull},
			ops:      []string{"hash-join", "full-scan", "smooth-scan"}},
		{name: "merge-index/u-dead", query: mergeIndex, dead: uDead,
			degraded: []string{toHash, tIdxSmooth, uIdxSmooth, tFull, uFull},
			ops:      []string{"hash-join", "full-scan", "full-scan"}},
		{name: "merge-index/both-dead", query: mergeIndex, dead: bothDead,
			degraded: []string{toHash, tIdxSmooth, uIdxSmooth, tFull, uFull},
			ops:      []string{"hash-join", "full-scan", "full-scan"}},
		{name: "merge-ordered/t-dead", query: mergeOrdered, dead: tDead,
			degraded: []string{toHash, tFull},
			ops:      []string{"hash-join", "full-scan", "smooth-scan"}},
		{name: "merge-ordered/u-dead", query: mergeOrdered, dead: uDead,
			degraded: []string{toHash, tFull, uFull},
			ops:      []string{"hash-join", "full-scan", "full-scan"}},
		{name: "merge-ordered/both-dead", query: mergeOrdered, dead: bothDead,
			degraded: []string{toHash, tFull, uFull},
			ops:      []string{"hash-join", "full-scan", "full-scan"}},
		{name: "hash-ordered/t-dead", query: hashOrdered, dead: tDead,
			degraded: []string{tFull},
			ops:      []string{"hash-join", "full-scan", "smooth-scan"}},
		{name: "hash-ordered/u-dead", query: hashOrdered, dead: uDead,
			degraded: []string{tFull, uFull},
			ops:      []string{"hash-join", "full-scan", "full-scan"}},
		{name: "hash-ordered/both-dead", query: hashOrdered, dead: bothDead,
			degraded: []string{tFull, uFull},
			ops:      []string{"hash-join", "full-scan", "full-scan"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			start := func(db *DB, b Bind) (*Rows, error) {
				if c.bind == nil {
					return c.query(db).Run(ctx)
				}
				st, err := db.Prepare(c.query(db))
				if err != nil {
					t.Fatal(err)
				}
				return st.Run(ctx, b)
			}
			want := collect(t, func() *Rows {
				rows, err := start(buildFaultJoinDB(t), c.bind)
				if err != nil {
					t.Fatal(err)
				}
				return rows
			}())
			if !c.ordered {
				sortRows(want)
			}

			runtime.GC()
			base := runtime.NumGoroutine()
			db := buildFaultJoinDB(t)
			var rules []FaultRule
			for _, d := range c.dead {
				tab, col, _ := strings.Cut(d, ".")
				sp, err := db.IndexSpace(tab, col)
				if err != nil {
					t.Fatal(err)
				}
				rules = append(rules, FaultRule{Space: sp, PageLo: c.pageLo, PageHi: c.pageHi, Kind: FaultPermanent, Rate: 1})
			}
			db.SetFaultPolicy(NewFaultPolicy(5, rules...))
			b := maps.Clone(c.bind)
			rows, err := start(db, b)
			if c.wantErr {
				if err == nil {
					for rows.Next() {
					}
					err = rows.Err()
					rows.Close()
				}
				if !errors.Is(err, ErrPermanentFault) {
					t.Fatalf("err = %v, want ErrPermanentFault", err)
				}
				waitGoroutines(t, base)
				return
			}
			if err != nil {
				t.Fatalf("ladder did not rescue the query: %v", err)
			}
			if c.midStream {
				if d := rows.ExecStats().Degraded; len(d) != 0 {
					t.Fatalf("degraded at open (%v); the case wants a mid-stream fault", d)
				}
				for k := range b {
					b[k] = 0 // the re-bind must use the snapshot taken at Run
				}
			}
			got := collect(t, rows)
			if !c.ordered {
				sortRows(got)
			}
			if !rowsEqual(got, want) {
				t.Fatalf("degraded run returned %d rows != fault-free %d", len(got), len(want))
			}
			plan, st := rows.Plan(), rows.ExecStats()
			if !slices.Equal(st.Degraded, c.degraded) {
				t.Errorf("Degraded = %q\nwant       %q", st.Degraded, c.degraded)
			}
			if ops := planOps(plan); !slices.Equal(ops, c.ops) {
				t.Errorf("plan operators = %v, want %v\n%s", ops, c.ops, plan)
			}
			if c.bind != nil {
				s := plan.String()
				header := fmt.Sprintf("bind: $hi=%d, $lo=%d", c.bind["hi"], c.bind["lo"])
				for _, frag := range []string{header, "$lo<=val<$hi"} {
					if !strings.Contains(s, frag) {
						t.Errorf("degraded prepared plan lost %q:\n%s", frag, s)
					}
				}
			}
		})
	}
}

// TestFaultLatencyCostsMoreNotWrong: a latency-spike schedule changes
// only the simulated clock, never the answer, and is visible in
// FaultsSeen without any retry.
func TestFaultLatencyCostsMoreNotWrong(t *testing.T) {
	const lo, hi = 1_000, 2_500
	opts := ScanOptions{Path: PathSmooth}

	clean := buildParallelTestDB(t, 20_000, 5_000, 11)
	cleanStart := clean.Stats()
	collectScan(t, clean, opts, lo, hi)
	cleanIO := clean.Stats().Sub(cleanStart).IOTime

	got, st, err := faultyRows(t, NewFaultPolicy(77, FaultRule{
		Space: AnySpace, Kind: FaultLatency, Rate: 1, ExtraCost: 25,
	}), opts, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	want := oracleRows(t, opts, lo, hi)
	sortRows(got)
	sortRows(want)
	if !rowsEqual(got, want) {
		t.Fatal("latency schedule changed the result")
	}
	if st.Retries != 0 {
		t.Fatalf("latency spikes triggered %d retries", st.Retries)
	}
	if st.FaultsSeen == 0 {
		t.Fatal("latency spikes not counted in FaultsSeen")
	}
	if st.IO.IOTime <= cleanIO {
		t.Fatalf("spiked IOTime %v not above clean %v", st.IO.IOTime, cleanIO)
	}
}

// TestFaultFreeQueriesUntouched: with no policy attached the fault
// counters stay zero and a query behaves exactly as before this
// subsystem existed (the golden-diffed harness depends on it).
func TestFaultFreeQueriesUntouched(t *testing.T) {
	db := buildParallelTestDB(t, 20_000, 5_000, 11)
	rows, err := scanRange(db, "t", "val", 1_000, 2_500, ScanOptions{Path: PathSmooth})
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
	}
	if rows.Err() != nil {
		t.Fatal(rows.Err())
	}
	st := rows.ExecStats()
	rows.Close()
	if st.Retries != 0 || st.FaultsSeen != 0 || len(st.Degraded) != 0 {
		t.Fatalf("fault-free query reported fault activity: %+v", st)
	}
	io := st.IO
	if io.Faults != 0 || io.Corruptions != 0 || io.LatencySpikes != 0 || io.Retries != 0 {
		t.Fatalf("fault-free IOStats carry fault counters: %+v", io)
	}
}
