package smoothscan

import (
	"context"
	"errors"
	"fmt"
	"math"

	"smoothscan/internal/disk"
	"smoothscan/internal/exec"
	"smoothscan/internal/optimizer"
	"smoothscan/internal/plan"
	"smoothscan/internal/tuple"
	"smoothscan/internal/wire"
)

// Arg is one argument of a predicate constructor or Limit: an int64
// literal, or a named parameter placeholder created by Param. Integer
// literals convert implicitly (the constructors accept any integer
// kind); parameters get their value at execution time from a Bind set,
// which is what lets one prepared Stmt run many times with different
// constants.
type Arg struct {
	spec wire.ArgSpec
	err  error
}

// Param is a named placeholder usable anywhere a literal goes: in the
// Where predicate constructors (Between, Eq, Lt, Le, Gt, Ge) and in
// Limit. A query containing parameters must be compiled with
// DB.Prepare; running it directly returns ErrUnboundParam. Names
// consist of letters, digits and underscores.
func Param(name string) Arg {
	if err := checkParamName(name); err != nil {
		return Arg{err: err}
	}
	return Arg{spec: wire.ArgSpec{Param: name}}
}

// checkParamName enforces the parameter-name alphabet. The cache keys
// carry names length-prefixed, so they no longer need it; it stays as
// the validation of a name a peer sent, which must be a name Param
// would have accepted.
func checkParamName(name string) error {
	if name == "" {
		return fmt.Errorf("smoothscan: empty parameter name")
	}
	for _, r := range name {
		if !(r == '_' || r >= '0' && r <= '9' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z') {
			return fmt.Errorf("smoothscan: parameter name %q: only letters, digits and underscores are allowed", name)
		}
	}
	return nil
}

func lit(v int64) Arg { return Arg{spec: wire.ArgSpec{Lit: v}} }

// asArg converts a constructor argument: an Arg passes through, any
// integer kind becomes a literal, everything else is ErrArgType.
func asArg(v any) Arg {
	switch x := v.(type) {
	case Arg:
		return x
	case int:
		return lit(int64(x))
	case int64:
		return lit(x)
	case int32:
		return lit(int64(x))
	case int16:
		return lit(int64(x))
	case int8:
		return lit(int64(x))
	case uint8:
		return lit(int64(x))
	case uint16:
		return lit(int64(x))
	case uint32:
		return lit(int64(x))
	case uint:
		if uint64(x) > math.MaxInt64 {
			return Arg{err: fmt.Errorf("%w: %d overflows int64", ErrArgType, x)}
		}
		return lit(int64(x))
	case uint64:
		if x > math.MaxInt64 {
			return Arg{err: fmt.Errorf("%w: %d overflows int64", ErrArgType, x)}
		}
		return lit(int64(x))
	default:
		return Arg{err: fmt.Errorf("%w: %T (want an integer or Param)", ErrArgType, v)}
	}
}

// Pred is a predicate on one integer column: a comparison whose
// argument(s) fold into a half-open value range [lo, hi) when the
// query is compiled (for parameters, when the Stmt binds them).
// Predicates are combined conjunctively by Query.Where; several
// predicates on the same column intersect into one range.
//
// Because ranges are half-open over int64, a predicate can never match
// the value math.MaxInt64 itself; the engine's data generators and
// workloads never store it.
type Pred struct {
	spec wire.PredSpec // Col is filled in by Where
	err  error
}

// pred assembles a Pred, recording the first bad argument.
func pred(kind byte, a, b Arg) Pred {
	err := a.err
	if err == nil {
		err = b.err
	}
	return Pred{spec: wire.PredSpec{Kind: kind, A: a.spec, B: b.spec}, err: err}
}

// Between matches lo <= v < hi.
func Between(lo, hi any) Pred { return pred(wire.PredBetween, asArg(lo), asArg(hi)) }

// Eq matches v == x.
func Eq(x any) Pred { return pred(wire.PredEq, asArg(x), Arg{}) }

// Lt matches v < x.
func Lt(x any) Pred { return pred(wire.PredLt, asArg(x), Arg{}) }

// Le matches v <= x.
func Le(x any) Pred { return pred(wire.PredLe, asArg(x), Arg{}) }

// Gt matches v > x.
func Gt(x any) Pred { return pred(wire.PredGt, asArg(x), Arg{}) }

// Ge matches v >= x.
func Ge(x any) Pred { return pred(wire.PredGe, asArg(x), Arg{}) }

// Agg is an aggregate expression for Query.GroupBy. Build one with
// Sum, Count, Min or Max, and rename its output column with As.
type Agg struct {
	spec wire.AggSpec // As always carries the output name
}

// agg builds an aggregate under its default output name.
func agg(kind byte, col string) Agg {
	name := plan.AggKinds[kind].Name
	if kind != wire.AggCount {
		name += "_" + col
	}
	return Agg{wire.AggSpec{Kind: kind, Col: col, As: name}}
}

// Sum aggregates the sum of col per group; the output column is named
// "sum_<col>".
func Sum(col string) Agg { return agg(wire.AggSum, col) }

// Count counts the rows of each group; the output column is named
// "count".
func Count() Agg { return agg(wire.AggCount, "") }

// Min aggregates the minimum of col per group; the output column is
// named "min_<col>".
func Min(col string) Agg { return agg(wire.AggMin, col) }

// Max aggregates the maximum of col per group; the output column is
// named "max_<col>".
func Max(col string) Agg { return agg(wire.AggMax, col) }

// As renames the aggregate's output column.
func (a Agg) As(name string) Agg { a.spec.As = name; return a }

// ErrUnknownColumn is returned (wrapped) when a query references a
// column the table does not have.
var ErrUnknownColumn = wire.ErrUnknownColumn

// ErrNotSelected is returned (wrapped) when a column exists on the
// scanned table but the query's Select/GroupBy projected it away: by
// Rows.Column, and by a run whose GroupBy or aggregate names it.
var ErrNotSelected = wire.ErrNotSelected

// ErrArgType is returned (wrapped) when a predicate constructor or
// Limit receives an argument that is neither an integer nor a Param.
var ErrArgType = errors.New("smoothscan: unsupported argument type")

// queryEngine is what a Query — and the Stmt prepared from it — is
// bound to: the engine its Run and Explain execute on. *DB, *ShardedDB
// and *Conn implement it. An ad-hoc run is an unnamed statement bound
// with no binds, so each engine has one path from a statement and a
// bind to Rows, and one to a Plan.
type queryEngine interface {
	// prepare compiles q, already checked to be bound to this engine.
	prepare(q *Query) (*Stmt, error)
	// run and explain bind st, checking b against its parameters.
	run(ctx context.Context, st statement, b Bind) (*Rows, error)
	explain(st statement, b Bind) (*Plan, error)
}

// Query is a composable query under construction. Start one with
// DB.Query, ShardedDB.Query or an Engine's Table, which bind it to that
// engine, chain Where / Join / Select / GroupBy / OrderBy / Limit
// / WithOptions, then call Run to execute it or Explain to inspect the
// plan the bound engine would choose. Builder methods record the first
// error and make Run/Explain return it, so call sites can chain
// without per-call checks.
//
// The query's structure is one plain value — the spec the wire
// protocol encodes — so the in-process engines, the sharded
// coordinator and a Conn all execute the same thing.
//
// A Query is owned by its builder chain; it is not safe for concurrent
// use, but the Rows returned by Run is independent of it. Compilation
// reads table statistics at Run/Explain time, so the same Query re-run
// after Analyze may pick a different access path.
type Query struct {
	eng  queryEngine
	spec wire.QuerySpec
	err  error
}

// Query starts a composable query over the named table. The zero
// configuration scans every row with the default access path
// (Smooth Scan when the driving column has an index, full scan
// otherwise).
func (db *DB) Query(table string) *Query {
	return &Query{eng: db, spec: wire.QuerySpec{Table: table}}
}

// QueryFromSpec binds a query structure received from a peer to this
// database — the server side of the wire protocol. Everything the
// builder methods would have refused is refused here, as a builder
// error reported from Run/Prepare: out-of-range predicate and
// aggregate kind bytes, parameter names outside the Param alphabet, an
// empty Select or GroupBy, a negative literal limit.
func (db *DB) QueryFromSpec(spec wire.QuerySpec) *Query {
	q := &Query{eng: db, spec: spec}
	q.err = q.checkPeerSpec()
	return q
}

// checkPeerSpec validates (and normalises the aggregate naming of) a
// spec that did not come out of this package's constructors.
func (q *Query) checkPeerSpec() error {
	s := &q.spec
	checkArg := func(a wire.ArgSpec) error {
		if a.Param == "" {
			return nil
		}
		if err := checkParamName(a.Param); err != nil {
			return fmt.Errorf("%w: %v", wire.ErrMalformed, err)
		}
		return nil
	}
	for _, p := range s.Preds {
		if int(p.Kind) >= len(plan.PredKinds) {
			return fmt.Errorf("%w: predicate kind %d on %q", wire.ErrMalformed, p.Kind, p.Col)
		}
		if err := checkArg(p.A); err != nil {
			return err
		}
		if err := checkArg(p.B); err != nil {
			return err
		}
	}
	if s.HasLim {
		if s.Limit.Param == "" && s.Limit.Lit < 0 {
			return fmt.Errorf("smoothscan: negative limit %d", s.Limit.Lit)
		}
		if err := checkArg(s.Limit); err != nil {
			return err
		}
	}
	if s.HasSel && len(s.Select) == 0 {
		return fmt.Errorf("smoothscan: Select requires at least one column")
	}
	if s.HasAgg && len(s.Aggs) == 0 {
		return fmt.Errorf("smoothscan: GroupBy requires at least one aggregate")
	}
	for i := range s.Aggs {
		a := &s.Aggs[i]
		if int(a.Kind) >= len(plan.AggKinds) {
			return fmt.Errorf("%w: aggregate kind %d", wire.ErrMalformed, a.Kind)
		}
		if a.Kind == wire.AggCount {
			a.Col = ""
		}
		if a.As == "" { // the protocol's "constructor default"
			a.As = agg(a.Kind, a.Col).spec.As
		}
	}
	return nil
}

// Spec returns the query's structure as the wire protocol encodes it —
// what a Conn and the remote shard driver ship to a server. It
// propagates any builder error.
func (q *Query) Spec() (wire.QuerySpec, error) {
	if q.err != nil {
		return wire.QuerySpec{}, q.err
	}
	return q.spec, nil
}

// fail records the first builder error.
func (q *Query) fail(err error) *Query {
	if q.err == nil {
		q.err = err
	}
	return q
}

// Where adds a conjunctive predicate on a column. Multiple Where calls
// compose with AND; several predicates on the same column intersect
// into one range. The optimizer picks the most selective indexed
// predicate to drive the scan; the remaining conjuncts become residual
// predicates evaluated inside the page decode wherever the chosen
// access path supports it. On a sharded engine, predicates on the
// partition column additionally prune shards.
func (q *Query) Where(col string, p Pred) *Query {
	if p.err != nil {
		return q.fail(fmt.Errorf("Where(%q): %w", col, p.err))
	}
	p.spec.Col = col
	q.spec.Preds = append(q.spec.Preds, p.spec)
	return q
}

// Join adds an inner equi-join with another table:
// left.leftCol = right.rightCol, where leftCol is a column of the
// query's output so far (the driving table, or any previously joined
// table) and rightCol is a column of the newly joined table. The
// output schema is the left columns followed by the right table's
// (colliding right column names get an "r." prefix).
//
// Where predicates may reference columns of any joined table — each
// conjunct is pushed beneath the join into the access path of the one
// table that has the column (ambiguous names are an error). Each
// input's access path is planned independently from its own
// predicates and ScanOptions — the adaptive Smooth Scan by default,
// any forced path or the cost-based optimizer (PathAuto) via
// JoinWithOptions — and the smaller estimated input lands on the hash
// build side. The first join runs as a merge join instead when both
// its base-table inputs already arrive ordered by their join columns
// (index scans, or Ordered smooth/sort scans driven by the join
// column); later stages of a chain always hash, since a join output's
// ordering is not tracked. The joined table's scan uses default
// ScanOptions; use JoinWithOptions to configure it.
//
// On a sharded engine a join of tables co-partitioned on the join keys
// runs partition-wise (shard i joins shard i); otherwise the smaller
// estimated side is broadcast to every shard of the other.
func (q *Query) Join(table, leftCol, rightCol string) *Query {
	return q.JoinWithOptions(table, leftCol, rightCol, ScanOptions{})
}

// JoinWithOptions is Join with explicit ScanOptions for the joined
// table's access path (the builder-level WithOptions only configures
// the driving table).
func (q *Query) JoinWithOptions(table, leftCol, rightCol string, opts ScanOptions) *Query {
	q.spec.Joins = append(q.spec.Joins, wire.JoinSpec{Table: table, LeftCol: leftCol, RightCol: rightCol, Opts: q.optsSpec(opts)})
	return q
}

// Select projects the output onto the named columns, in the given
// order. Without Select every table column is returned. When GroupBy
// is present, its group and aggregate columns are resolved against the
// selected columns.
func (q *Query) Select(cols ...string) *Query {
	if q.spec.HasSel {
		return q.fail(fmt.Errorf("smoothscan: Select set twice"))
	}
	if len(cols) == 0 {
		return q.fail(fmt.Errorf("smoothscan: Select requires at least one column"))
	}
	q.spec.Select = append([]string(nil), cols...)
	q.spec.HasSel = true
	return q
}

// GroupBy groups rows by a column and computes the aggregates per
// group. The output schema is the group column followed by one column
// per aggregate, ordered by ascending group key. On a sharded engine
// each shard aggregates its local rows and the coordinator merges the
// partials, so raw rows never cross the gather for an aggregate query.
func (q *Query) GroupBy(col string, aggs ...Agg) *Query {
	if q.spec.HasAgg {
		return q.fail(fmt.Errorf("smoothscan: GroupBy set twice"))
	}
	if len(aggs) == 0 {
		return q.fail(fmt.Errorf("smoothscan: GroupBy requires at least one aggregate"))
	}
	q.spec.GroupCol = col
	q.spec.Aggs = make([]wire.AggSpec, len(aggs))
	for i, a := range aggs {
		q.spec.Aggs[i] = a.spec
	}
	q.spec.HasAgg = true
	return q
}

// OrderBy orders the output by the named column, ascending. The
// column must be part of the query output. When the order is already
// delivered — by an order-preserving access path on the driving
// column, or by GroupBy's key-ordered output — no sort operator is
// added; otherwise a posterior (external) sort is. On a sharded engine
// each shard delivers its slice ordered and the gather runs a k-way
// ordered merge (with aggregation, the coordinator orders the merged
// groups).
func (q *Query) OrderBy(col string) *Query {
	if q.spec.HasOrd {
		return q.fail(fmt.Errorf("smoothscan: OrderBy set twice"))
	}
	q.spec.OrderCol = col
	q.spec.HasOrd = true
	return q
}

// Limit caps the number of output rows; it accepts an integer or a
// Param placeholder. Limit(0) yields an empty result without touching
// the device. On a sharded engine a limit without aggregation also
// pushes into every shard (no shard delivers more than n rows).
func (q *Query) Limit(n any) *Query {
	a := asArg(n)
	if a.err != nil {
		return q.fail(fmt.Errorf("Limit: %w", a.err))
	}
	if a.spec.Param == "" && a.spec.Lit < 0 {
		return q.fail(fmt.Errorf("smoothscan: negative limit %d", a.spec.Lit))
	}
	q.spec.Limit = a.spec
	q.spec.HasLim = true
	return q
}

// WithOptions applies ScanOptions to the driving table access: access
// path, morphing policy and trigger, parallelism, cardinality
// estimate, SLA bound, Result Cache budget. The builder owns
// everything above the scan, the options configure the scan itself.
// On a sharded engine they apply to every shard's driving-table access
// (each shard still plans — and morphs — independently).
func (q *Query) WithOptions(opts ScanOptions) *Query {
	q.spec.Opts = q.optsSpec(opts)
	return q
}

// optsSpec is the one ScanOptions -> spec mapping; the bind phase
// reads the spec. The spec holds each enum in a byte, so a value that does not fit one
// is a builder error rather than an alias of another value (uint makes
// a negative one huge); Parallelism clamps to MaxParallelism, and
// negatives to 0 (serial as well), before it narrows to an int32.
func (q *Query) optsSpec(o ScanOptions) wire.OptsSpec {
	if uint(o.Path) > math.MaxUint8 || uint(o.Policy) > math.MaxUint8 || uint(o.Trigger) > math.MaxUint8 {
		q.fail(fmt.Errorf("smoothscan: ScanOptions Path %d, Policy %d, Trigger %d: each must be in 0..255", o.Path, o.Policy, o.Trigger))
	}
	return wire.OptsSpec{
		Path:              byte(o.Path),
		Policy:            byte(o.Policy),
		Trigger:           byte(o.Trigger),
		Ordered:           o.Ordered,
		EstimatedRows:     o.EstimatedRows,
		SLABound:          o.SLABound,
		MaxRegionPages:    o.MaxRegionPages,
		ResultCacheBudget: o.ResultCacheBudget,
		Parallelism:       int32(min(max(o.Parallelism, 0), MaxParallelism)),
	}
}

// compiledQuery is one execution's plan: the bound plan the optimizer
// returned, and what the facade tracks beside it.
type compiledQuery struct {
	optimizer.Bound

	// planCached reports whether the structural template came from the
	// DB-wide plan cache (or a prepared Stmt) instead of a fresh
	// template compilation; surfaced via ExecStats.PlanCacheHit.
	planCached bool
	// annotate marks prepared-statement executions: plan() then renders
	// the bound parameter values and the estimate-sensitive decisions
	// re-made at bind time. The strings are built lazily in plan() —
	// Run never pays Explain-only formatting — and stay empty for
	// ad-hoc queries so their Explain output is byte-identical to the
	// pre-prepared-statement engine.
	annotate bool

	// degraded records the fault-recovery fallbacks applied to this
	// plan, one human-readable note per ladder step (see
	// degradeOnFault); empty for a plan that ran as compiled. Surfaced
	// via ExecStats.Degraded and the Explain header.
	degraded []string

	// Result-cache tier fields (see keyResult). resKey is the
	// execution's entry key — canonical shape plus every resolved
	// constant — and resEpochs the write epochs of the referenced
	// tables captured at bind time; both empty when the execution does
	// not participate (tier disabled, empty plan).
	resKey    string
	resEpochs map[string]uint64
}

// stages is the stage list the binding decided above the scan/join
// tree.
func (cq *compiledQuery) stages() stages {
	pt := cq.Template
	return stages{selIdx: pt.SelIdx, groupIdx: pt.GroupIdx, aggSpecs: pt.AggSpecs, sortIdx: cq.SortIdx, limit: cq.Limit, hasLim: cq.HasLim}
}

// templateFor returns the query's compiled template together with its
// literal vector, consulting the DB-wide plan cache: an ad-hoc query
// whose canonical shape was compiled before reuses that template and
// pays only the bind phase. Each key is encoded only when its cache is
// on. The caller holds db.mu (read).
func (db *DB) templateFor(q *Query) (pt *plan.Template, lits []int64, hit bool, err error) {
	if q.err != nil {
		return nil, nil, false, q.err
	}
	c, lits := plan.Canon(&q.spec)
	var key string
	if db.planCache != nil {
		key = plan.SpecKey(&c, false)
		if v, ok := db.planCache.Get(key); ok {
			return v.(*plan.Template), lits, true, nil
		}
	}
	pt, err = plan.BuildTemplate(&c, len(lits), func(name string) (*tuple.Schema, error) {
		t, err := db.tableLocked(name)
		if err != nil {
			return nil, err
		}
		return t.File.Schema(), nil
	})
	if err != nil {
		return nil, nil, false, err
	}
	if db.resCache != nil {
		pt.ResultShape = plan.SpecKey(&c, true)
	}
	if db.planCache != nil {
		db.planCache.Put(key, pt)
	}
	return pt, lits, false, nil
}

// planTable is the bind phase's view of a finished table. The caller
// holds db.mu (read).
func (db *DB) planTable(name string) (*optimizer.Table, error) {
	t, err := db.tableLocked(name)
	if err != nil {
		return nil, err
	}
	return &t.Table, nil
}

// bind turns a statement and a bind set into an executable plan. A
// prepared statement brings its template and literal vector; an unnamed
// one takes them from the plan cache. Only a prepared statement's plan
// renders its binds in Explain. The caller holds db.mu (read).
func (db *DB) bind(st statement, b Bind) (*compiledQuery, error) {
	prepared := st.stmt != nil
	var (
		pt   *plan.Template
		lits []int64
		hit  = prepared
		err  error
	)
	if prepared {
		pt, lits = st.stmt.pt, st.stmt.lits
	} else if pt, lits, hit, err = db.templateFor(st.q); err != nil {
		return nil, err
	}
	if err := checkBind(pt, b); err != nil {
		return nil, err
	}
	vals, err := optimizer.ParamValues(pt, b)
	if err != nil {
		return nil, err
	}
	cq := &compiledQuery{planCached: hit, annotate: prepared}
	if cq.Bound, err = optimizer.Bind(db.dev, db.planTable, pt, lits, vals); err != nil {
		return nil, err
	}
	db.keyResult(cq)
	return cq, nil
}

// buildInput constructs one table access through the plan layer,
// wrapped in its counter, context guard and (when the access path
// could not absorb the residual conjuncts) a filter operator.
func (l *localExec) buildInput(ctx context.Context, a *optimizer.Access, count func(string, exec.Operator) exec.Operator) (exec.Operator, error) {
	cq := l.cq
	spec := a.Spec
	spec.Pool, spec.Ctx = &l.pool, ctx
	built, err := plan.Build(spec)
	if err != nil {
		return nil, err
	}
	if a == cq.Driving() {
		l.smooth = built.Smooth
	}

	// Counter names keep the historical single-table form ("smooth",
	// "filter"); multi-input plans qualify them with the table.
	multi := len(cq.Inputs) > 1
	path := publicPath(spec.Path)
	scanName := path.String()
	if multi {
		scanName = fmt.Sprintf("%s(%s)", path, a.Table)
	}
	if spec.Parallelism > 1 {
		scanName = fmt.Sprintf("parallel[%d] %s", spec.Parallelism, scanName)
	}
	cur := count(scanName, built.Op)
	// Each input gets its own guard, so a blocking consumer (a
	// hash-join build, a sort) observes cancellation per batch.
	cur = &ctxGuard{inner: cur, ctx: ctx}
	if len(spec.Residual) > 0 && !a.Pushed() {
		preds := spec.Residual
		name := "filter"
		if multi {
			name = fmt.Sprintf("filter(%s)", a.Table)
		}
		cur = count(name, exec.NewFilter(cur, l.pool.Channel(), func(r tuple.Row) bool {
			return tuple.MatchesAll(preds, r)
		}))
	}
	return cur, nil
}

// build constructs the operator tree for the execution's compiled
// query, reading and charging through its pool view and wrapping every
// stage in a row/batch counter for ExecStats. The caller holds db.mu
// (read).
func (l *localExec) build(ctx context.Context) error {
	cq := l.cq
	count := func(name string, op exec.Operator) exec.Operator {
		c := &opCounter{name: name}
		l.counters = append(l.counters, c)
		return &countedOp{inner: op, c: c}
	}

	if cq.EmptyWhy != "" {
		l.root = count("empty", exec.NewValues(cq.Template.Out, nil))
		return nil
	}

	inOps := make([]exec.Operator, len(cq.Inputs))
	for i := range cq.Inputs {
		op, err := l.buildInput(ctx, &cq.Inputs[i], count)
		if err != nil {
			return err
		}
		inOps[i] = op
	}

	cur := inOps[0]
	for k, st := range cq.Joins {
		jt := &cq.Template.Joins[k]
		op, err := plan.BuildJoin(plan.JoinSpec{
			Left:      cur,
			Right:     inOps[k+1],
			LeftCol:   jt.LeftCol,
			RightCol:  jt.RightCol,
			Algo:      st.Algo,
			BuildLeft: st.BuildLeft,
			Ch:        l.pool.Channel(),
		})
		if err != nil {
			return err
		}
		l.joins = append(l.joins, op.(exec.JoinStatser))
		cur = count(st.Algo.String()+"-join", op)
	}

	stages := cq.stages()
	root, err := stages.build(cur, l.pool.Channel(), cq.Template.Out, count)
	if err != nil {
		return err
	}
	l.root = root
	return nil
}

// stages is the operator list above a scan/join tree or above a
// sharded gather, in execution order: project, aggregate, sort, limit.
// A compiledQuery's is the one its binding decided; the sharded
// coordinator derives its own from the shard-0 binding's (see
// compileShardExec). The zero value of an index field is a real
// column, so "absent" is spelled out: selIdx nil, groupIdx and sortIdx
// -1, hasLim false.
type stages struct {
	selIdx   []int          // projection onto these input columns
	aggSpecs []exec.AggSpec // with groupIdx
	limit    int64
	groupIdx int  // group column in the (projected) input
	sortIdx  int  // posterior-sort column in the output
	merge    bool // the aggregate merges per-shard partials ("merge-agg")
	hasLim   bool
}

// aggName is the aggregate stage's operator name.
func (st *stages) aggName() string {
	if st.merge {
		return "merge-agg"
	}
	return "hash-agg"
}

// build stacks the stages on cur, each wrapped by count. ch is the
// channel blocking stages charge (nil above a gather: the per-shard
// work is already charged to the shard executions, and merging partials
// is host-side bookkeeping); out is the schema of the finished stack.
func (st *stages) build(cur exec.Operator, ch *disk.Channel, out *tuple.Schema, count func(string, exec.Operator) exec.Operator) (exec.Operator, error) {
	if st.selIdx != nil {
		p, err := exec.NewColProject(cur, st.selIdx)
		if err != nil {
			return nil, err
		}
		cur = count("project", p)
	}
	if st.groupIdx >= 0 {
		cur = count(st.aggName(), exec.NewHashAggNamed(cur, ch, st.groupIdx, out.Col(0).Name, st.aggSpecs))
	}
	if st.sortIdx >= 0 {
		cur = count("sort", exec.NewSort(cur, ch, st.sortIdx))
	}
	if st.hasLim {
		cur = count("limit", exec.NewLimit(cur, st.limit))
	}
	return cur, nil
}

// describe names the stages for a sharded plan's Coordinator line.
func (st *stages) describe(out *tuple.Schema) []string {
	var d []string
	if st.selIdx != nil {
		d = append(d, "project")
	}
	if st.groupIdx >= 0 {
		d = append(d, st.aggName())
	}
	if st.sortIdx >= 0 {
		d = append(d, "sort by "+out.Col(st.sortIdx).Name)
	}
	if st.hasLim {
		d = append(d, fmt.Sprintf("limit %d", st.limit))
	}
	return d
}

// Explain compiles the query against its engine — access-path choice,
// residual placement, parallelism, per-node cardinality estimates; on
// a sharded engine the scatter strategy, pruning decisions, gather
// mode and each active shard's own plan (Plan.Sharded) — without
// executing it or touching any device, and returns the printable plan.
// On a Conn it returns an error: the wire protocol carries no plans.
func (q *Query) Explain() (*Plan, error) { return q.eng.explain(statement{q: q}, nil) }

// Run compiles and starts the query on its engine. The context cancels
// it: the returned Rows checks ctx once per batch refill (never per
// tuple), parallel scan workers and shard workers observe it between
// batches and exit promptly, and blocking operators (sort,
// aggregation) check it between the batches they drain. After
// cancellation Rows.Err reports ctx.Err().
//
// Run is the run of an unnamed statement with no binds: the same
// bind-and-run path as Stmt.Run, with a template from the plan cache.
// Always Close the returned Rows.
func (q *Query) Run(ctx context.Context) (*Rows, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return q.eng.run(ctx, statement{q: q}, nil)
}

// ExecuteSpec runs a query structure received from a peer with b
// bound — the server side of the wire's Execute, the one request that
// opens a remote stream. It is QueryFromSpec(spec) run as an unnamed
// statement through the path Query.Run and Stmt.Run take, with the
// peer's bind: no binds is an ad-hoc run, and binds get Stmt.Run's
// unknown- and unbound-parameter errors. The spec compiles through the
// plan cache, so ExecStats.PlanCacheHit reports whether this DB held
// the shape: a Prepare of the same spec puts it there.
func (db *DB) ExecuteSpec(ctx context.Context, spec wire.QuerySpec, b Bind) (*Rows, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return db.run(ctx, statement{q: db.QueryFromSpec(spec)}, b)
}

func (db *DB) explain(st statement, b Bind) (*Plan, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	cq, err := db.bind(st, b)
	if err != nil {
		return nil, err
	}
	return cq.plan(), nil
}

// run binds st and opens its operator tree. A fault at open walks the
// degradation ladder before giving up.
func (db *DB) run(ctx context.Context, st statement, b Bind) (*Rows, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	cq, err := db.bind(st, b)
	if err != nil {
		return nil, err
	}
	if err = ctx.Err(); err != nil {
		return nil, err
	}
	// Result-cache tier: a revalidated hit serves the materialized
	// result with zero device I/O; a cacheable miss tees the stream
	// into an accumulator for a store at Close.
	cache := db.cacheable(cq)
	if cache {
		if v, ok := db.resCache.Lookup(cq.resKey, db.epochOfLocked); ok {
			return db.newExec(cq).rows(ctx).serveCached(v), nil
		}
	}
	bq := db.newExec(cq)
	if err = bq.build(ctx); err != nil {
		return nil, err
	}
	if openErr := bq.root.Open(); openErr != nil {
		// An open-time fault (a dead index root, a failing parallel
		// worker) walks the degradation ladder before giving up; the
		// I/O burned on failed attempts stays in the query's account.
		if !IsFaultError(openErr) {
			return nil, openErr
		}
		if bq, err = db.degradeAndReopen(ctx, bq, openErr); err != nil {
			return nil, err
		}
	}
	rows := bq.rows(ctx)
	if cache && len(bq.cq.degraded) == 0 {
		rows.acc = newResAccum(cq.resKey, cq.resEpochs, db.resCache.EntryCap(), cq.Template.Out.NumCols())
	}
	return rows, nil
}
