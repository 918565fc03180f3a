package smoothscan

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
	"time"

	"smoothscan/internal/plan"
	"smoothscan/internal/wire"
)

// The seam that replaced the three query representations: a Query's
// state is the wire spec, so what used to be two hand-written
// translators is now "encode, decode, bind". These tests pin that the
// trip loses nothing the engines key on.

// viaWire sends q's spec through the wire codec and binds the decoded
// spec the way the server does, then re-binds it to q's own engine.
func viaWire(t *testing.T, shard0 *DB, q *Query) *Query {
	t.Helper()
	spec, err := q.Spec()
	if err != nil {
		t.Fatalf("Spec: %v", err)
	}
	m, err := wire.DecodeExecute(wire.Execute{Spec: spec}.Marshal())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	back := shard0.QueryFromSpec(m.Spec)
	back.eng = q.eng
	return back
}

// queryKey is the plan-cache key (blind false) or the result-cache
// shape (blind true) of q's canonical spec.
func queryKey(q *Query, blind bool) string {
	c, _ := plan.Canon(&q.spec)
	return plan.SpecKey(&c, blind)
}

// explainText renders a query's plan, or its compile error (a
// parameterized shape explains to ErrUnboundParam either way).
func explainText(q *Query) string {
	p, err := q.Explain()
	if err != nil {
		return "error: " + err.Error()
	}
	return p.String()
}

func TestSpecRoundTrip(t *testing.T) {
	type shape struct {
		name   string
		shard0 *DB
		q      *Query
	}
	var shapes []shape
	add := func(group string, un *DB, s *ShardedDB, cases []shardCase) {
		for _, c := range cases {
			shapes = append(shapes,
				shape{group + "/local/" + c.name, un, c.un(un)},
				shape{group + "/sharded/" + c.name, s.Shard(0), c.sh(s)})
		}
	}
	un, s := buildGridUnsharded(t), buildGridSharded(t, 4, "range")
	add("grid", un, s, shardGridCases())
	jun := buildJoinUnsharded(t)
	add("join", jun, buildJoinSharded(t, 4, pwParts(4)), shardJoinCases())
	add("broadcast", jun, buildJoinSharded(t, 4, bcParts(4)), shardBroadcastCases())
	// The remote grids' shapes the sharded ones do not already cover:
	// parameters in every argument position, renamed aggregates, and
	// every comparison kind.
	add("remote", un, s, []shardCase{
		{"prepared", false,
			func(db *DB) *Query {
				return db.Query("t").Where("val", Between(Param("lo"), Param("hi"))).Limit(Param("n"))
			},
			func(s *ShardedDB) *Query {
				return s.Query("t").Where("val", Between(Param("lo"), Param("hi"))).Limit(Param("n"))
			}},
		{"half-bound", false,
			func(db *DB) *Query { return db.Query("t").Where("val", Between(100, Param("hi"))) },
			func(s *ShardedDB) *Query { return s.Query("t").Where("val", Between(100, Param("hi"))) }},
		{"kinds", false,
			func(db *DB) *Query {
				return db.Query("t").Where("val", Gt(10)).Where("val", Le(900)).Where("g", Eq(3)).Where("id", Lt(5000))
			},
			func(s *ShardedDB) *Query {
				return s.Query("t").Where("val", Gt(10)).Where("val", Le(900)).Where("g", Eq(3)).Where("id", Lt(5000))
			}},
		{"renamed-aggs", true,
			func(db *DB) *Query {
				return db.Query("t").Where("val", Lt(300)).
					GroupBy("g", Count().As("n"), Sum("p").As("s"), Min("val"), Max("val")).OrderBy("g")
			},
			func(s *ShardedDB) *Query {
				return s.Query("t").Where("val", Lt(300)).
					GroupBy("g", Count().As("n"), Sum("p").As("s"), Min("val"), Max("val")).OrderBy("g")
			}},
		{"options", false,
			func(db *DB) *Query {
				return db.Query("t").Where("val", Ge(1200)).Select("id", "val").OrderBy("id").Limit(37).
					WithOptions(ScanOptions{Path: PathAuto, Policy: Greedy, Trigger: SLADriven, SLABound: 1.5,
						Ordered: true, EstimatedRows: 77, MaxRegionPages: 64, ResultCacheBudget: 1 << 20, Parallelism: 3})
			},
			func(s *ShardedDB) *Query {
				return s.Query("t").Where("val", Ge(1200)).Select("id", "val").OrderBy("id").Limit(37).
					WithOptions(ScanOptions{Path: PathAuto, Policy: Greedy, Trigger: SLADriven, SLABound: 1.5,
						Ordered: true, EstimatedRows: 77, MaxRegionPages: 64, ResultCacheBudget: 1 << 20, Parallelism: 3})
			}},
	})

	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			back := viaWire(t, sh.shard0, sh.q)
			if back.err != nil {
				t.Fatalf("decoded spec refused: %v", back.err)
			}
			for _, blind := range []bool{false, true} {
				if got, want := queryKey(back, blind), queryKey(sh.q, blind); got != want {
					t.Errorf("SpecKey(blind=%v) changed:\n got %q\nwant %q", blind, got, want)
				}
			}
			if got, want := explainText(back), explainText(sh.q); got != want {
				t.Errorf("Explain changed:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// The differential key test. The oracle below is the fmt-based
// serializer the plan and result caches keyed on before both keys
// became the wire encoding of the canonical spec, kept verbatim (only
// renamed) so the sweep can check that the new keys draw exactly the
// same equivalence classes: the bytes changed, the classes must not.

// oracleCanonPred returns the predicate in canonical constant form: a
// parameter-free predicate folds into its half-open Between range
// right here, so Eq(5) and Between(5, 6) canonicalise to the same
// shape and share one cached template; a parameterized predicate
// keeps its comparison kind for bind-time folding.
func oracleCanonPred(p wire.PredSpec) (kind plan.PredKind, a, b wire.ArgSpec) {
	kind = plan.PredKinds[p.Kind]
	if p.A.Param == "" && (kind != plan.KindBetween || p.B.Param == "") {
		lo, hi := plan.FoldRange(kind, p.A.Lit, p.B.Lit)
		return plan.KindBetween, wire.ArgSpec{Lit: lo}, wire.ArgSpec{Lit: hi}
	}
	return kind, p.A, p.B
}

// oracleForEachArg visits every bind-time argument of the query in canonical
// order: the Where conjuncts in call order (canonical form, lo then hi
// for Between), then the Limit count. canonicalKey serialises
// arguments in this order and plan.BuildTemplate assigns literal slots in
// this order — the three walks must never diverge, or a cached
// template would bind another query's literals to the wrong
// predicates.
func oracleForEachArg(q *Query, f func(a wire.ArgSpec)) {
	for _, p := range q.spec.Preds {
		kind, a, b := oracleCanonPred(p)
		f(a)
		if kind == plan.KindBetween {
			f(b)
		}
	}
	if q.spec.HasLim {
		f(q.spec.Limit)
	}
}

// oracleCollectLits extracts the query's literal argument values, in slot
// order.
func oracleCollectLits(q *Query) []int64 {
	var lits []int64
	oracleForEachArg(q, func(a wire.ArgSpec) {
		if a.Param == "" {
			lits = append(lits, a.Lit)
		}
	})
	return lits
}

// oracleStructKey is the plan-cache key (blind false) or the
// result-cache shape (blind true).
func oracleStructKey(q *Query, blind bool) string {
	var sb strings.Builder
	arg := func(a wire.ArgSpec) {
		if a.Param != "" && !blind {
			sb.WriteByte('$')
			sb.WriteString(a.Param)
		} else {
			sb.WriteByte('?')
		}
	}
	sb.WriteString("v1|")
	sp := &q.spec
	fmt.Fprintf(&sb, "%q", sp.Table)
	for _, j := range sp.Joins {
		fmt.Fprintf(&sb, "|J:%q,%q,%q,%+v", j.Table, j.LeftCol, j.RightCol, j.Opts)
	}
	for _, c := range sp.Preds {
		kind, a, b := oracleCanonPred(c)
		if blind {
			// Every predicate folds to a half-open [lo, hi) range at
			// bind time, so the semantic shape of any conjunct is a
			// two-endpoint Between regardless of which comparison
			// spelled it — Eq(x) and Between(x, x+1) must share.
			fmt.Fprintf(&sb, "|W:%q,%d,?,?", c.Col, int(plan.KindBetween))
			continue
		}
		fmt.Fprintf(&sb, "|W:%q,%d,", c.Col, int(kind))
		arg(a)
		if kind == plan.KindBetween {
			sb.WriteByte(',')
			arg(b)
		}
	}
	if sp.HasSel {
		sb.WriteString("|S:")
		for i, s := range sp.Select {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%q", s)
		}
	}
	if sp.HasAgg {
		fmt.Fprintf(&sb, "|G:%q", sp.GroupCol)
		for _, a := range sp.Aggs {
			fmt.Fprintf(&sb, ",%q:%q:%d", a.As, a.Col, int(plan.AggKinds[a.Kind].Kind))
		}
	}
	if sp.HasOrd {
		fmt.Fprintf(&sb, "|O:%q", sp.OrderCol)
	}
	if sp.HasLim {
		sb.WriteString("|L:")
		arg(sp.Limit)
	}
	fmt.Fprintf(&sb, "|opts:%+v", sp.Opts)
	return sb.String()
}

// shapeRecipe is one query of the key sweep as the builder calls that
// make it. A pair is a recipe and a copy with a few edits, so pairs
// land on both sides of each key's classes.
type shapeRecipe struct {
	table string
	join  *joinRecipe
	preds []predRecipe
	sel   []string
	aggs  []Agg // nil: no GroupBy
	order string
	limit *Arg
	opts  ScanOptions
}

type joinRecipe struct {
	table, left, right string
	opts               ScanOptions
}

type predRecipe struct {
	col  string
	kind byte
	a, b Arg
}

// The sweep's alphabet: small, so that edits often land back on an
// equivalent query.
var (
	sweepTables = []string{"t", "u"}
	sweepCols   = []string{"id", "val", "g"}
	sweepParams = []string{"a", "b", "n"}
	sweepLits   = []int64{0, 1, 5, 6, 9, math.MinInt64, math.MaxInt64}
	sweepOpts   = []ScanOptions{{}, {Path: PathAuto}, {Path: PathFull, Parallelism: 2},
		{Trigger: SLADriven, SLABound: 1.5}, {Trigger: SLADriven, SLABound: 2.5},
		{Ordered: true, EstimatedRows: 77}, {MaxRegionPages: 64, ResultCacheBudget: 1 << 20}, {Policy: Greedy}}
	sweepAggs = []Agg{Count(), Count().As("n"), Sum("val"), Sum("val").As("n"), Min("id"), Max("val")}
)

func pick[T any](r *rand.Rand, xs []T) T { return xs[r.IntN(len(xs))] }

func sweepArg(r *rand.Rand) Arg {
	if r.IntN(3) == 0 {
		return Param(pick(r, sweepParams))
	}
	return lit(pick(r, sweepLits))
}

func sweepPred(r *rand.Rand) predRecipe {
	p := predRecipe{col: pick(r, sweepCols), kind: byte(r.IntN(len(plan.PredKinds))), a: sweepArg(r)}
	if p.kind == wire.PredBetween {
		p.b = sweepArg(r)
	}
	return p
}

func newRecipe(r *rand.Rand) shapeRecipe {
	var s shapeRecipe
	for _, edit := range shapeEdits {
		if r.IntN(2) == 0 {
			edit(r, &s)
		}
	}
	s.table = pick(r, sweepTables)
	for range r.IntN(4) {
		s.preds = append(s.preds, sweepPred(r))
	}
	return s
}

// respell rewrites a literal conjunct into another comparison with the
// same half-open range — Eq(x) as Between(x, x+1), Ge(x) as
// Between(x, MaxInt64) — the rewrite both keys must not see.
func respell(p predRecipe) predRecipe {
	if p.a.spec.Param != "" || p.kind == wire.PredBetween && p.b.spec.Param != "" {
		return p
	}
	lo, hi := plan.FoldRange(plan.PredKinds[p.kind], p.a.spec.Lit, p.b.spec.Lit)
	return predRecipe{col: p.col, kind: wire.PredBetween, a: lit(lo), b: lit(hi)}
}

// shapeEdits are the sweep's edits, one per builder element; each sets
// that element afresh (possibly to what it was).
var shapeEdits = []func(r *rand.Rand, s *shapeRecipe){
	func(r *rand.Rand, s *shapeRecipe) { s.table = pick(r, sweepTables) },
	func(r *rand.Rand, s *shapeRecipe) {
		s.join = nil
		if r.IntN(2) == 0 {
			s.join = &joinRecipe{pick(r, sweepTables), pick(r, []string{"id", "val"}), pick(r, []string{"id", "k"}), pick(r, sweepOpts)}
		}
	},
	func(r *rand.Rand, s *shapeRecipe) { // one argument or the whole conjunct
		if len(s.preds) == 0 {
			s.preds = append(s.preds, sweepPred(r))
			return
		}
		s.preds = slices.Clone(s.preds)
		p := &s.preds[r.IntN(len(s.preds))]
		switch r.IntN(5) {
		case 0:
			*p = sweepPred(r)
		case 1:
			p.a = sweepArg(r)
		case 2:
			p.b = sweepArg(r)
		case 3:
			p.col = pick(r, sweepCols)
		default:
			*p = respell(*p)
		}
	},
	func(r *rand.Rand, s *shapeRecipe) { // a literal for a parameter, or back
		if len(s.preds) == 0 {
			return
		}
		s.preds = slices.Clone(s.preds)
		p := &s.preds[r.IntN(len(s.preds))]
		if p.a.spec.Param != "" {
			p.a = lit(pick(r, sweepLits))
		} else {
			p.a = Param(pick(r, sweepParams))
		}
	},
	func(r *rand.Rand, s *shapeRecipe) { // drop a conjunct
		if len(s.preds) > 0 {
			s.preds = slices.Delete(slices.Clone(s.preds), 0, 1)
		}
	},
	func(r *rand.Rand, s *shapeRecipe) {
		s.sel = nil
		if r.IntN(2) == 0 {
			s.sel = slices.Clone(sweepCols)
			r.Shuffle(len(s.sel), func(i, j int) { s.sel[i], s.sel[j] = s.sel[j], s.sel[i] })
			s.sel = s.sel[:1+r.IntN(len(s.sel))]
		}
	},
	func(r *rand.Rand, s *shapeRecipe) {
		s.aggs = nil
		for range r.IntN(3) {
			s.aggs = append(s.aggs, pick(r, sweepAggs))
		}
	},
	func(r *rand.Rand, s *shapeRecipe) { s.order = pick(r, []string{"", "g", "id"}) },
	func(r *rand.Rand, s *shapeRecipe) {
		s.limit = nil
		if r.IntN(3) > 0 {
			a := sweepArg(r)
			if a.spec.Param == "" {
				a.spec.Lit = max(a.spec.Lit, 0)
			}
			s.limit = &a
		}
	},
	func(r *rand.Rand, s *shapeRecipe) { s.opts = pick(r, sweepOpts) },
}

func (s shapeRecipe) query(t *testing.T) *Query {
	q := &Query{spec: wire.QuerySpec{Table: s.table}}
	if j := s.join; j != nil {
		q.JoinWithOptions(j.table, j.left, j.right, j.opts)
	}
	for _, p := range s.preds {
		q.Where(p.col, pred(p.kind, p.a, p.b))
	}
	if s.sel != nil {
		q.Select(s.sel...)
	}
	if s.aggs != nil {
		q.GroupBy("g", s.aggs...)
	}
	if s.order != "" {
		q.OrderBy(s.order)
	}
	if s.limit != nil {
		q.Limit(*s.limit)
	}
	q.WithOptions(s.opts)
	if q.err != nil {
		t.Fatalf("sweep query refused: %v", q.err)
	}
	return q
}

// checkShapePair draws the seed's pair and checks both keys' classes
// and the literal vectors against the oracle. It returns whether the
// pair shares a plan key and whether it shares a result-cache shape.
func checkShapePair(t *testing.T, seed uint64) (samePlan, sameShape bool) {
	r := rand.New(rand.NewPCG(seed, 0x5eed))
	s1 := newRecipe(r)
	s2 := s1
	for range 1 + r.IntN(2) {
		pick(r, shapeEdits)(r, &s2)
	}
	q1, q2 := s1.query(t), s2.query(t)
	for _, q := range []*Query{q1, q2} {
		if _, lits := plan.Canon(&q.spec); !slices.Equal(lits, oracleCollectLits(q)) {
			t.Errorf("seed %d: canon literals %v, oracle %v (%+v)", seed, lits, oracleCollectLits(q), q.spec)
		}
	}
	for _, blind := range []bool{false, true} {
		got := queryKey(q1, blind) == queryKey(q2, blind)
		want := oracleStructKey(q1, blind) == oracleStructKey(q2, blind)
		if got != want {
			t.Errorf("seed %d blind=%v: keys equal %v, oracle says %v\n q1 %s\n q2 %s",
				seed, blind, got, want, oracleStructKey(q1, blind), oracleStructKey(q2, blind))
		}
		if blind {
			sameShape = want
		} else {
			samePlan = want
		}
	}
	return samePlan, sameShape
}

// shapeSweep is the sweep's size: the seeds TestShapeKeyClasses draws
// and FuzzShapeKeyClasses starts from.
const shapeSweep = 5000

// TestShapeKeyClasses checks the keys against the oracle over the
// seeded sweep, and that the sweep reaches every combination of the
// two classes a pair can fall into.
func TestShapeKeyClasses(t *testing.T) {
	seen := map[[2]bool]int{} // pairs by {same plan key, same shape}
	for seed := range uint64(shapeSweep) {
		p, s := checkShapePair(t, seed)
		seen[[2]bool{p, s}]++
	}
	t.Logf("pairs by {same plan key, same shape}: %v", seen)
	for _, c := range [][2]bool{{false, false}, {false, true}, {true, true}} {
		if seen[c] < 100 {
			t.Errorf("only %d pairs with {same plan key, same shape} = %v", seen[c], c)
		}
	}
	if n := seen[[2]bool{true, false}]; n != 0 { // one plan key implies one shape
		t.Errorf("%d pairs share a plan key but not a shape", n)
	}
}

func FuzzShapeKeyClasses(f *testing.F) {
	for seed := range uint64(shapeSweep) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) { checkShapePair(t, seed) })
}

// FuzzExecuteSpec feeds every Execute payload the wire accepts to the
// server's one entry point, DB.ExecuteSpec, over a small two-table
// indexed fixture. Whatever the spec and binds, the call returns an
// error or a Rows that drains and closes: no panic, no hang, and no
// open scan left behind. The seeds copy the shapes of the wire fuzz
// target's Execute seeds onto the fixture's tables.
func FuzzExecuteSpec(f *testing.F) {
	db := buildJoinDB(f, 400, 40).db
	spec := wire.QuerySpec{
		Table:  "items",
		Preds:  []wire.PredSpec{{Col: "i_date", Kind: wire.PredBetween, A: wire.ArgSpec{Lit: 1}, B: wire.ArgSpec{Param: "hi"}}},
		Joins:  []wire.JoinSpec{{Table: "orders", LeftCol: "i_order", RightCol: "o_id"}},
		Aggs:   []wire.AggSpec{{Kind: wire.AggSum, Col: "i_qty", As: "s"}},
		HasAgg: true, GroupCol: "o_pri",
		Limit: wire.ArgSpec{Lit: 10}, HasLim: true,
		Opts: wire.OptsSpec{Path: 1, Parallelism: 2},
	}
	hostile := wire.QuerySpec{
		Table: "items",
		Preds: []wire.PredSpec{
			{Col: "i_date", Kind: wire.PredGe + 1, A: wire.ArgSpec{Lit: 1}},
			{Col: "i_date", Kind: wire.PredEq, A: wire.ArgSpec{Param: "a|b"}},
		},
		Aggs:   []wire.AggSpec{{Kind: wire.AggMax + 1, Col: "i_qty", As: "x"}},
		HasAgg: true, GroupCol: "i_order",
	}
	for _, m := range []wire.Execute{
		{Spec: spec, Binds: []wire.BindKV{{Name: "hi", Val: 42}}},
		{Spec: spec},
		{Spec: hostile},
		{Spec: wire.QuerySpec{Table: "orders", Preds: []wire.PredSpec{{Col: "o_date", Kind: wire.PredLt, A: wire.ArgSpec{Lit: 500}}},
			HasOrd: true, OrderCol: "o_pri"}},
	} {
		f.Add(m.Marshal())
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := wire.DecodeExecute(payload)
		if err != nil {
			return
		}
		var b Bind
		if len(m.Binds) > 0 {
			b = make(Bind, len(m.Binds))
			for _, kv := range m.Binds {
				b[kv.Name] = kv.Val
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if rows, err := db.ExecuteSpec(ctx, m.Spec, b); err == nil {
			for rows.Next() {
			}
			if err := rows.Close(); err != nil && rows.Err() == nil {
				t.Fatalf("Close after a clean drain: %v", err)
			}
		}
		if n := db.openScans.Load(); n != 0 {
			t.Fatalf("%d scans left open", n)
		}
	})
}
