package smoothscan

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"smoothscan/internal/core"
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

// predKinds maps the spec's predicate kind bytes to the planner's.
var predKinds = [...]plan.PredKind{
	wire.PredBetween: plan.KindBetween,
	wire.PredEq:      plan.KindEq,
	wire.PredLt:      plan.KindLt,
	wire.PredLe:      plan.KindLe,
	wire.PredGt:      plan.KindGt,
	wire.PredGe:      plan.KindGe,
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

// aggKinds maps the spec's aggregate kind bytes to the executor's kind
// and the constructor-default output name prefix.
var aggKinds = [...]struct {
	kind exec.AggKind
	name string
}{
	wire.AggSum:   {exec.AggSum, "sum"},
	wire.AggCount: {exec.AggCount, "count"},
	wire.AggMin:   {exec.AggMin, "min"},
	wire.AggMax:   {exec.AggMax, "max"},
}

// agg builds an aggregate under its default output name.
func agg(kind byte, col string) Agg {
	name := aggKinds[kind].name
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
		if int(p.Kind) >= len(predKinds) {
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
		if int(a.Kind) >= len(aggKinds) {
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

// optsSpec and scanOptions are the one ScanOptions <-> spec mapping.
// The spec holds each enum in a byte, so a value that does not fit one
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

func scanOptions(o wire.OptsSpec) ScanOptions {
	return ScanOptions{
		Path:              AccessPath(o.Path),
		Policy:            Policy(o.Policy),
		Trigger:           Trigger(o.Trigger),
		Ordered:           o.Ordered,
		EstimatedRows:     o.EstimatedRows,
		SLABound:          o.SLABound,
		MaxRegionPages:    o.MaxRegionPages,
		ResultCacheBudget: o.ResultCacheBudget,
		Parallelism:       int(o.Parallelism),
	}
}

// resolvedPred is a bound predicate with its column name kept for plan
// rendering; loSrc/hiSrc name the parameters its bounds came from (""
// for literals) so Explain can render $name bind markers.
type resolvedPred struct {
	name         string
	pred         tuple.RangePred
	loSrc, hiSrc string
}

// render formats the predicate for plan details.
func (r resolvedPred) render() string {
	return fmtPred(r.name, r.pred, r.loSrc, r.hiSrc)
}

// tableAccess is one base table's bound access: its predicates and
// estimates, and the plan.ScanSpec the binder filled — path, morphing
// configuration, ordering, worker count — which buildInput hands to
// plan.Build with the execution's pool and context, and which Explain,
// the bind notes and the fault ladder read.
type tableAccess struct {
	tab        *table
	name       string
	base       *tuple.Schema
	driving    resolvedPred
	hasDriving bool // false: no predicates at all (pure full scan)
	residual   []resolvedPred
	spec       plan.ScanSpec
	choice     *optimizer.Choice
	estScan    int64 // after residual conjuncts
	emptyWhy   string
}

// pushed reports whether the scan evaluates the residual conjuncts
// inside its page decode instead of under a filter above it.
func (a *tableAccess) pushed() bool {
	return len(a.residual) > 0 && a.spec.Path.AbsorbsResidual(a.spec.Ordered)
}

// rangeOn returns the folded range of the access's conjuncts on the
// named column (every column's conjuncts fold into one predicate, the
// driving one or a residual), unbounded when it has none — what the
// sharded coordinator prunes by.
func (a *tableAccess) rangeOn(col string) tuple.RangePred {
	if a.driving.name == col {
		return a.driving.pred // All when there is no predicate at all
	}
	for _, r := range a.residual {
		if r.name == col {
			return r.pred
		}
	}
	return tuple.All(0)
}

// deliversOrderOn reports whether the access emits rows ordered by the
// given base-schema column: the column must drive the scan and the
// path must deliver index-key order.
func (a *tableAccess) deliversOrderOn(col int) bool {
	return a.driving.pred.Col == col && a.spec.Path.DeliversOrder(a.spec.Ordered)
}

// joinStage is one compiled equi-join of the left-deep join tree:
// stage k joins the output of everything before it with inputs[k+1].
type joinStage struct {
	leftCol   int // in the accumulated left schema
	rightCol  int // in the right input's base schema
	leftName  string
	rightName string
	algo      plan.JoinAlgo
	buildLeft bool
	estRows   int64
}

// compiledQuery is the outcome of planning: everything needed to build
// the operator tree or render the Explain plan.
type compiledQuery struct {
	inputs   []*tableAccess // left-deep; inputs[0] is the driving table
	joins    []*joinStage   // len(inputs)-1 stages
	base     *tuple.Schema  // joined row schema (inputs[0].base when no joins)
	emptyWhy string         // non-empty: plan short-circuits to an empty result

	// stages is what runs above the scan/join tree. Its sortIdx is
	// orderIdx when the ordering needs a posterior sort and -1 when it
	// comes for free (orderVia says from where).
	stages
	orderIdx int    // in the pre-sort schema; -1 = no ordering
	orderVia string // "", "scan" (native order) or "group" (agg key order)

	out *tuple.Schema

	// planCached reports whether the structural template came from the
	// DB-wide plan cache (or a prepared Stmt) instead of a fresh
	// template compilation; surfaced via ExecStats.PlanCacheHit.
	planCached bool
	// annotate marks prepared-statement executions: plan() then renders
	// the bound parameter values (binds) and the estimate-sensitive
	// decisions re-made at bind time. The strings are built lazily in
	// plan() — Run never pays Explain-only formatting — and stay empty
	// for ad-hoc queries so their Explain output is byte-identical to
	// the pre-prepared-statement engine.
	annotate bool
	binds    []bindPair

	// degraded records the fault-recovery fallbacks applied to this
	// plan, one human-readable note per ladder step (see
	// degradeOnFault); empty for a plan that ran as compiled. Surfaced
	// via ExecStats.Degraded and the Explain header.
	degraded []string
	// qt, opts and lits are what this plan was bound from; a ladder
	// step re-binds them with one input's options changed.
	qt   *qtemplate
	opts []ScanOptions
	lits []int64

	// Result-cache tier fields (see rescache.go). resKey is the
	// execution's entry key — canonical shape plus every resolved
	// constant — and resEpochs the write epochs of the referenced
	// tables captured at bind time; both empty when the execution does
	// not participate (tier disabled, empty plan).
	resKey    string
	resEpochs map[string]uint64
}

// bindPair is one bound parameter captured at bind time (the caller's
// Bind map may be reused or mutated after Run returns; this snapshot
// may not).
type bindPair struct {
	name string
	val  int64
}

// driving returns the first (driving-table) input.
func (cq *compiledQuery) driving() *tableAccess { return cq.inputs[0] }

// estRoot is the cardinality estimate of the scan/join tree before
// projection and aggregation.
func (cq *compiledQuery) estRoot() int64 {
	if n := len(cq.joins); n > 0 {
		return cq.joins[n-1].estRows
	}
	return cq.driving().estScan
}

// bindAccess plans one base table's access at bind time, from its
// already-folded per-column predicates and ScanOptions: it re-decides
// everything estimate-sensitive — the driving conjunct among the
// indexed ones, the access path (for PathAuto), the parallelism clamp
// — from the table's current statistics, with zero device I/O.
// orderCol, when non-empty, names a column whose order the plan could
// use for free if it happens to drive an order-preserving path (the
// free-ORDER-BY case).
func bindAccess(db *DB, name string, t *table, merged []resolvedPred, opts ScanOptions, orderCol string) (*tableAccess, error) {
	a := &tableAccess{tab: t, name: name, base: t.file.Schema()}
	if opts.MaxRegionPages == 0 {
		opts.MaxRegionPages = core.DefaultMaxRegionPages
	}
	for _, m := range merged {
		if m.pred.Empty() {
			a.emptyWhy = fmt.Sprintf("predicates on %q are contradictory", m.name)
		}
	}

	params := db.costParams(t)
	stats := t.stats
	if stats == nil {
		stats = optimizer.DefaultStats(t.file.NumTuples(), t.file.NumPages(), nil)
	}

	// Driving-predicate selection: the most selective indexed conjunct
	// (by the optimizer's cardinality estimate) drives the access path;
	// everything else is residual.
	drivingAt := -1
	bestCard := int64(math.MaxInt64)
	for i, m := range merged {
		if _, ok := t.indexes[m.name]; !ok {
			continue
		}
		if card := stats.EstimateCard(m.pred); card < bestCard {
			bestCard, drivingAt = card, i
		}
	}
	if drivingAt < 0 && len(merged) > 0 {
		drivingAt = 0 // no indexed conjunct: full scan driven by the first
	}
	if drivingAt >= 0 {
		a.driving = merged[drivingAt]
		a.hasDriving = true
		for i, m := range merged {
			if i != drivingAt {
				a.residual = append(a.residual, m)
			}
		}
	} else {
		a.driving = resolvedPred{name: a.base.Col(0).Name, pred: tuple.All(0)}
	}
	tree := t.indexes[a.driving.name]

	// Cardinality estimates (independence assumption across conjuncts).
	est := opts.EstimatedRows
	if est == 0 {
		est = stats.EstimateCard(a.driving.pred)
	}
	sel := 1.0
	for _, r := range a.residual {
		sel *= stats.EstimateSelectivity(r.pred)
	}

	// Does the caller want output in this column's order? Then an
	// order-preserving access path driven by it satisfies the ORDER BY
	// for free — the optimizer weighs the posterior sort against that.
	wantScanOrder := orderCol != "" && a.hasDriving && orderCol == a.driving.name
	ordered := opts.Ordered || wantScanOrder

	// Access-path resolution.
	path, ok := opts.Path.planPath()
	switch {
	case opts.Path == PathAuto && !a.hasDriving:
		path = plan.PathFull
	case opts.Path == PathAuto:
		choice := optimizer.ChooseAccessPath(params, stats, a.driving.pred, tree != nil, ordered)
		a.choice = &choice
		path, est = choice.Path, choice.EstimatedCard
	case !ok:
		return nil, fmt.Errorf("smoothscan: unknown access path %d", opts.Path)
	}
	a.estScan = int64(math.Round(float64(est) * sel))
	if path.NeedsIndex() && tree == nil {
		if path != plan.PathSmooth {
			return nil, fmt.Errorf("%w: %q.%q", ErrNoIndex, name, a.driving.name)
		}
		// The builder's default path is PathSmooth; without an index on
		// the driving column it degrades gracefully to a full scan
		// instead of failing, so predicate-less and unindexed queries
		// still run.
		path = plan.PathFull
	}
	if opts.Ordered && !path.DeliversOrder(true) {
		// Explicit scan-level ordering keeps the historical contract:
		// paths that cannot deliver it refuse, rather than silently
		// sorting. Use OrderBy for a plan-level ordering that falls
		// back to a posterior sort.
		if path == plan.PathSwitch {
			return nil, errors.New("smoothscan: switch scan cannot guarantee ordered output")
		}
		return nil, errors.New("smoothscan: full scan cannot deliver ordered output; add an explicit sort")
	}

	var residual []tuple.RangePred
	if len(a.residual) > 0 {
		residual = make([]tuple.RangePred, len(a.residual))
		for i, r := range a.residual {
			residual[i] = r.pred
		}
	}
	a.spec = plan.ScanSpec{
		File:     t.file,
		Tree:     tree,
		Pred:     a.driving.pred,
		Residual: residual,
		Path:     path,
		Smooth: core.Config{
			Policy:            opts.Policy,
			Trigger:           opts.Trigger,
			MaxRegionPages:    opts.MaxRegionPages,
			EstimatedCard:     est,
			SLABound:          opts.SLABound,
			CostParams:        params,
			ResultCacheBudget: opts.ResultCacheBudget,
		},
		Ordered:         ordered && path.DeliversOrder(true),
		SwitchThreshold: est,
		Parallelism:     path.Workers(min(opts.Parallelism, MaxParallelism), t.file.NumPages()),
	}
	return a, nil
}

// joinOutputSchema computes the join's output schema — the same
// tuple.Schema concatenation the join operators apply at run time
// ("r." prefix on right columns shadowed by the left) — turning a
// still-colliding name into a compile-time error instead of a panic.
func joinOutputSchema(left, right *tuple.Schema) (*tuple.Schema, error) {
	s, err := left.ConcatChecked(right)
	if err != nil {
		return nil, fmt.Errorf("smoothscan: join output schema: %w (rename columns or reorder joins)", err)
	}
	return s, nil
}

// estJoinRows estimates an equi-join's output cardinality assuming
// the right join column is key-like: |L| x |R| / |right table|,
// floored at one row when both inputs are non-empty.
func estJoinRows(estL, estR, rightTableRows int64) int64 {
	if estL <= 0 || estR <= 0 {
		return 0
	}
	if rightTableRows <= 0 {
		return estL
	}
	est := int64(math.Round(float64(estL) * float64(estR) / float64(rightTableRows)))
	if est < 1 {
		est = 1
	}
	return est
}

// qtemplate is a query's compiled template: the structural
// plan.Template plus the facade-level configuration that rides along
// with the shape (per-input ScanOptions). It is
// immutable once built and shared freely — by the DB-wide plan cache,
// and by every execution of a prepared Stmt.
type qtemplate struct {
	pt      *plan.Template
	optsPer []ScanOptions
	// semKey is the parameter-blind shape, specKey(c, true): the
	// result-cache tier derives its entry keys from it (shape + resolved
	// constant values in canonical argument order), which is what lets
	// ad-hoc and prepared executions of the same query share one entry.
	// Empty when the tier is off.
	semKey string
}

// canon returns the query's canonical form, the one thing both cache
// keys and the template compiler read. A parameter-free conjunct folds
// into its half-open Between range, so Eq(5) and Between(5, 6) share
// one shape; a parameterized one keeps its comparison kind for
// bind-time folding. Every literal argument — the Where conjuncts' in
// call order (lo then hi for Between), then the Limit — moves into the
// returned literal vector, and its ArgSpec.Lit becomes its slot number
// there. Named parameters stay as they are: the bind phase resolves
// them by name, so a prepared query and its literal twin have distinct
// canonical specs.
func (q *Query) canon() (wire.QuerySpec, []int64) {
	c := q.spec
	var lits []int64
	slot := func(a wire.ArgSpec) wire.ArgSpec {
		if a.Param != "" {
			return a
		}
		if lits == nil {
			lits = make([]int64, 0, 2*len(c.Preds)+1)
		}
		lits = append(lits, a.Lit)
		return wire.ArgSpec{Lit: int64(len(lits) - 1)}
	}
	for i, p := range q.spec.Preds {
		kind := predKinds[p.Kind]
		if p.A.Param == "" && (kind != plan.KindBetween || p.B.Param == "") {
			lo, hi := plan.FoldRange(kind, p.A.Lit, p.B.Lit)
			p.Kind, p.A, p.B = wire.PredBetween, wire.ArgSpec{Lit: lo}, wire.ArgSpec{Lit: hi}
		}
		p.A = slot(p.A)
		if p.Kind == wire.PredBetween {
			p.B = slot(p.B)
		} else {
			p.B = wire.ArgSpec{}
		}
		if p == q.spec.Preds[i] {
			continue // a parameterized conjunct is already canonical
		}
		if &c.Preds[0] == &q.spec.Preds[0] { // copy the query's conjuncts before the first change
			c.Preds = slices.Clone(q.spec.Preds)
		}
		c.Preds[i] = p
	}
	if c.HasLim {
		c.Limit = slot(c.Limit)
	}
	return c, lits
}

// specKey is a canonical spec's wire encoding. With blind false it is
// the plan-cache key: two queries with the same key compile to the same
// template and differ only in the literal vector they bind. With blind
// true it is the result-cache shape: every conjunct is a Between and
// every constant is blank, literal or parameter alike — each predicate
// folds to a half-open [lo, hi) range at bind time whichever comparison
// spelled it — so two queries with the same blind key and the same
// resolved constants compute the same result.
func specKey(c *wire.QuerySpec, blind bool) string {
	if blind {
		b := *c
		b.Preds = make([]wire.PredSpec, len(c.Preds))
		for i, p := range c.Preds {
			b.Preds[i] = wire.PredSpec{Col: p.Col, Kind: wire.PredBetween}
		}
		b.Limit = wire.ArgSpec{}
		c = &b
	}
	var buf [keyBuf]byte
	return string(wire.AppendSpec(buf[:0], c))
}

// keyBuf sizes the stack buffer a cache key is encoded into; a longer
// key spills to the heap.
const keyBuf = 256

// buildTemplate runs the structural (prepare) phase: table and column
// resolution, conjunct routing, join tree shape, projection / grouping
// / ordering schemas — everything about the query that does not depend
// on its constant values — against db's catalog. sp is a canonical
// spec (see canon) with slots literal slots. The caller holds db.mu
// (read). The result is immutable; bindTemplate turns it into an
// executable compiledQuery per execution.
func buildTemplate(db *DB, sp *wire.QuerySpec, slots int) (*qtemplate, error) {
	pt := &plan.Template{GroupIdx: -1, OrderIdx: -1, Slots: slots}

	// Resolve every input table.
	names := []string{sp.Table}
	optsPer := []ScanOptions{scanOptions(sp.Opts)}
	for _, j := range sp.Joins {
		names = append(names, j.Table)
		optsPer = append(optsPer, scanOptions(j.Opts))
	}
	tabs := make([]*table, len(names))
	for i, name := range names {
		t, err := db.tableLocked(name)
		if err != nil {
			return nil, err
		}
		tabs[i] = t
	}

	// Bind-time Values: a literal reads the slot canon gave it,
	// parameters are registered by name in first-use order.
	val := func(a wire.ArgSpec) plan.Value {
		if a.Param == "" {
			return plan.Value{Slot: int(a.Lit)}
		}
		if !slices.Contains(pt.Params, a.Param) {
			pt.Params = append(pt.Params, a.Param)
		}
		return plan.Value{Param: a.Param}
	}

	// Distribute the Where conjuncts: each predicate is pushed beneath
	// the joins into the one input whose schema has the column, and
	// grouped per column (first-mention order) for bind-time
	// intersection.
	pt.Inputs = make([]plan.AccessT, len(names))
	for i := range names {
		pt.Inputs[i] = plan.AccessT{Table: names[i], Schema: tabs[i].file.Schema()}
	}
	for _, c := range sp.Preds {
		at := -1
		for i, t := range tabs {
			if t.file.Schema().ColIndex(c.Col) < 0 {
				continue
			}
			if at >= 0 {
				return nil, fmt.Errorf("smoothscan: Where column %q is ambiguous between tables %q and %q", c.Col, names[at], names[i])
			}
			at = i
		}
		if at < 0 {
			if len(names) == 1 {
				return nil, fmt.Errorf("%w: table %q has no column %q", ErrUnknownColumn, sp.Table, c.Col)
			}
			return nil, fmt.Errorf("%w: no joined table has column %q", ErrUnknownColumn, c.Col)
		}
		in := &pt.Inputs[at]
		ct := plan.CondT{
			Col:  in.Schema.ColIndex(c.Col),
			Name: c.Col,
			Kind: predKinds[c.Kind],
			A:    val(c.A),
		}
		if c.Kind == wire.PredBetween {
			ct.B = val(c.B)
		}
		idx := len(in.Conds)
		in.Conds = append(in.Conds, ct)
		g := 0
		for g < len(in.Merged) && in.Conds[in.Merged[g][0]].Name != c.Col {
			g++
		}
		if g == len(in.Merged) {
			in.Merged = append(in.Merged, nil)
		}
		in.Merged[g] = append(in.Merged[g], idx)
	}

	// Only the driving table of a join-free query can satisfy an ORDER
	// BY through an order-preserving scan; joins and grouping reorder.
	if len(sp.Joins) == 0 && sp.HasOrd && !sp.HasAgg {
		pt.FreeOrderCol = sp.OrderCol
	}

	// Join stages: resolve the equi-join columns and precompute each
	// stage's output schema. Algorithm and build side are bind-time.
	base := pt.Inputs[0].Schema
	for k, jc := range sp.Joins {
		right := &pt.Inputs[k+1]
		leftCol := base.ColIndex(jc.LeftCol)
		if leftCol < 0 {
			return nil, fmt.Errorf("%w: join %d: %q is not a column of the query output joined so far", ErrUnknownColumn, k+1, jc.LeftCol)
		}
		rightCol := right.Schema.ColIndex(jc.RightCol)
		if rightCol < 0 {
			return nil, fmt.Errorf("%w: table %q has no column %q", ErrUnknownColumn, right.Table, jc.RightCol)
		}
		joined, err := joinOutputSchema(base, right.Schema)
		if err != nil {
			return nil, err
		}
		pt.Joins = append(pt.Joins, plan.JoinT{
			LeftCol:   leftCol,
			RightCol:  rightCol,
			LeftName:  base.Col(leftCol).Name,
			RightName: right.Schema.Col(rightCol).Name,
			Joined:    joined,
		})
		base = joined
	}
	pt.Base = base

	// SELECT list.
	pt.SelSchema = pt.Base
	if sp.HasSel {
		cols := make([]tuple.Column, len(sp.Select))
		pt.SelIdx = make([]int, len(sp.Select))
		for i, name := range sp.Select {
			col := pt.Base.ColIndex(name)
			if col < 0 {
				if len(pt.Inputs) == 1 {
					return nil, fmt.Errorf("%w: table %q has no column %q", ErrUnknownColumn, sp.Table, name)
				}
				return nil, fmt.Errorf("%w: join output has no column %q", ErrUnknownColumn, name)
			}
			pt.SelIdx[i] = col
			cols[i] = pt.Base.Col(col)
		}
		s, err := tuple.NewSchema(cols...)
		if err != nil {
			return nil, fmt.Errorf("smoothscan: Select: %w", err)
		}
		pt.SelSchema = s
	}

	// GROUP BY + aggregates.
	stage := pt.SelSchema
	if sp.HasAgg {
		pt.GroupIdx = pt.SelSchema.ColIndex(sp.GroupCol)
		if pt.GroupIdx < 0 {
			return nil, templColErr(pt, sp.GroupCol, "GroupBy")
		}
		outNames := map[string]bool{sp.GroupCol: true}
		outCols := []tuple.Column{{Name: sp.GroupCol, Type: tuple.Int64}}
		for _, a := range sp.Aggs {
			spec := exec.AggSpec{Name: a.As, Kind: aggKinds[a.Kind].kind}
			if a.Kind != wire.AggCount {
				spec.Col = pt.SelSchema.ColIndex(a.Col)
				if spec.Col < 0 {
					return nil, templColErr(pt, a.Col, "aggregate")
				}
			}
			if outNames[a.As] {
				return nil, fmt.Errorf("smoothscan: duplicate output column %q in GroupBy", a.As)
			}
			outNames[a.As] = true
			pt.AggSpecs = append(pt.AggSpecs, spec)
			outCols = append(outCols, tuple.Column{Name: a.As, Type: tuple.Int64})
		}
		s, err := tuple.NewSchema(outCols...)
		if err != nil {
			return nil, fmt.Errorf("smoothscan: GroupBy: %w", err)
		}
		pt.AggSchema = s
		stage = s
	}

	// ORDER BY resolution (sort-vs-free decisions are bind-time).
	if sp.HasOrd {
		pt.OrderIdx = stage.ColIndex(sp.OrderCol)
		if pt.OrderIdx < 0 {
			return nil, fmt.Errorf("%w: %q is not in the query output; add it to Select or GroupBy", ErrUnknownColumn, sp.OrderCol)
		}
		pt.OrderName = sp.OrderCol
	}

	pt.HasLim = sp.HasLim
	if sp.HasLim {
		pt.Limit = val(sp.Limit)
	}
	pt.Out = stage
	return &qtemplate{pt: pt, optsPer: optsPer}, nil
}

// templateFor returns the query's compiled template together with its
// literal vector, consulting the DB-wide plan cache: an ad-hoc query
// whose canonical shape was compiled before reuses that template and
// pays only the bind phase. Each key is encoded only when its cache is
// on. The caller holds db.mu (read).
func (db *DB) templateFor(q *Query) (qt *qtemplate, lits []int64, hit bool, err error) {
	if q.err != nil {
		return nil, nil, false, q.err
	}
	c, lits := q.canon()
	var key string
	if db.planCache != nil {
		key = specKey(&c, false)
		if v, ok := db.planCache.Get(key); ok {
			return v.(*qtemplate), lits, true, nil
		}
	}
	if qt, err = buildTemplate(db, &c, len(lits)); err != nil {
		return nil, nil, false, err
	}
	if db.resCache != nil {
		qt.semKey = specKey(&c, true)
	}
	if db.planCache != nil {
		db.planCache.Put(key, qt)
	}
	return qt, lits, false, nil
}

// templColErr distinguishes "no such column" from "column projected
// away" for GroupBy/aggregate resolution against a template.
func templColErr(pt *plan.Template, col, what string) error {
	if pt.Base.ColIndex(col) >= 0 {
		return fmt.Errorf("%w: %s column %q was projected away by Select", ErrNotSelected, what, col)
	}
	if len(pt.Inputs) == 1 {
		return fmt.Errorf("%w: table %q has no column %q (%s)", ErrUnknownColumn, pt.Inputs[0].Table, col, what)
	}
	return fmt.Errorf("%w: join output has no column %q (%s)", ErrUnknownColumn, col, what)
}

// resolveValue turns a template Value into a scalar: a literal slot
// reads the execution's literal vector, a parameter reads the bind
// set. The second return names the parameter ("" for literals) for
// Explain's bind markers.
func resolveValue(v plan.Value, lits []int64, b Bind) (int64, string, error) {
	if v.Param != "" {
		x, ok := b[v.Param]
		if !ok {
			return 0, "", fmt.Errorf("%w: $%s", ErrUnboundParam, v.Param)
		}
		return x, v.Param, nil
	}
	return lits[v.Slot], "", nil
}

// foldGroup folds one column's conjuncts into a single range: each
// conjunct's bound scalars fold through its comparison kind, and the
// ranges intersect in Where order — exactly what the eager literal
// constructors plus Intersect used to compute. The parameter sources
// of the binding bounds survive for plan rendering.
func foldGroup(at *plan.AccessT, group []int, lits []int64, b Bind) (resolvedPred, error) {
	var out resolvedPred
	for gi, ci := range group {
		c := at.Conds[ci]
		aVal, aSrc, err := resolveValue(c.A, lits, b)
		if err != nil {
			return out, err
		}
		var bVal int64
		var bSrc string
		if c.Kind == plan.KindBetween {
			bVal, bSrc, err = resolveValue(c.B, lits, b)
			if err != nil {
				return out, err
			}
		}
		lo, hi := plan.FoldRange(c.Kind, aVal, bVal)
		var loSrc, hiSrc string
		switch c.Kind {
		case plan.KindBetween:
			loSrc, hiSrc = aSrc, bSrc
		case plan.KindEq:
			loSrc, hiSrc = aSrc, aSrc
		case plan.KindLt, plan.KindLe:
			hiSrc = aSrc
		case plan.KindGt, plan.KindGe:
			loSrc = aSrc
		}
		rp := tuple.RangePred{Col: c.Col, Lo: lo, Hi: hi}
		if gi == 0 {
			out = resolvedPred{name: c.Name, pred: rp, loSrc: loSrc, hiSrc: hiSrc}
			continue
		}
		if rp.Lo > out.pred.Lo {
			out.loSrc = loSrc
		}
		if rp.Hi < out.pred.Hi {
			out.hiSrc = hiSrc
		}
		out.pred = out.pred.Intersect(rp)
	}
	return out, nil
}

// bindInput plans input i of the template against db's copy of the
// table: fold each column's conjuncts with the execution's constants,
// then bindAccess under opts. Only the driving table of a join-free
// query can deliver a free ORDER BY. The caller holds db.mu (read).
func (db *DB) bindInput(qt *qtemplate, i int, opts ScanOptions, lits []int64, b Bind) (*tableAccess, error) {
	at := &qt.pt.Inputs[i]
	t, err := db.tableLocked(at.Table)
	if err != nil {
		return nil, err
	}
	merged := make([]resolvedPred, len(at.Merged))
	for g, group := range at.Merged {
		if merged[g], err = foldGroup(at, group, lits, b); err != nil {
			return nil, err
		}
	}
	orderCol := ""
	if i == 0 {
		orderCol = qt.pt.FreeOrderCol
	}
	return bindAccess(db, at.Table, t, merged, opts, orderCol)
}

// bindTemplate runs the bind (execute-side) phase: substitute the
// constants into the template and re-decide everything
// estimate-sensitive — driving conjunct, access path, join algorithm
// and build side, parallelism — from the tables' current statistics
// and opts, the per-input ScanOptions (qt.optsPer, or a degradation
// step's edit of them). It is the only code that produces an
// executable plan. It allocates a fresh compiledQuery per call
// (templates are shared across goroutines, bindings are not) and
// touches no device state. annotate enables the prepared-statement
// Explain extras (bind markers and re-planned-at-bind notes). The
// caller holds db.mu (read).
func (db *DB) bindTemplate(qt *qtemplate, opts []ScanOptions, lits []int64, b Bind, annotate bool) (*compiledQuery, error) {
	pt := qt.pt
	if len(lits) != pt.Slots {
		return nil, fmt.Errorf("smoothscan: internal: %d literals for a %d-slot template", len(lits), pt.Slots)
	}
	cq := &compiledQuery{
		stages:   stages{selIdx: pt.SelIdx, groupIdx: pt.GroupIdx, aggSpecs: pt.AggSpecs, sortIdx: -1},
		orderIdx: -1,
		out:      pt.Out,
		qt:       qt,
		opts:     opts,
		lits:     lits,
	}

	cq.inputs = make([]*tableAccess, len(pt.Inputs))
	for i := range pt.Inputs {
		a, err := db.bindInput(qt, i, opts[i], lits, b)
		if err != nil {
			return nil, err
		}
		if a.emptyWhy != "" && cq.emptyWhy == "" {
			cq.emptyWhy = a.emptyWhy
		}
		cq.inputs[i] = a
	}

	if pt.HasLim {
		n, src, err := resolveValue(pt.Limit, lits, b)
		if err != nil {
			return nil, err
		}
		if n < 0 {
			return nil, fmt.Errorf("smoothscan: negative limit %d bound from $%s", n, src)
		}
		cq.limit, cq.hasLim = n, true
	}
	if cq.hasLim && cq.limit == 0 {
		cq.emptyWhy = "LIMIT 0"
	}
	if cq.emptyWhy == "" {
		// Refuse here what NewSmoothScan would refuse at open, so Explain
		// and Run reject the same options with the same error.
		for _, a := range cq.inputs {
			if a.spec.Path == plan.PathSmooth {
				if err := a.spec.Smooth.Validate(); err != nil {
					return nil, err
				}
			}
		}
	}

	// Join stages: pick the algorithm (merge when both inputs already
	// arrive ordered by their join columns, hash otherwise) and the
	// hash build side (the smaller estimated input).
	cq.base = cq.inputs[0].base
	estLeft := cq.inputs[0].estScan
	for k := range pt.Joins {
		jt := &pt.Joins[k]
		right := cq.inputs[k+1]
		st := &joinStage{
			leftCol:   jt.LeftCol,
			rightCol:  jt.RightCol,
			leftName:  jt.LeftName,
			rightName: jt.RightName,
		}
		if k == 0 && cq.inputs[0].deliversOrderOn(jt.LeftCol) && right.deliversOrderOn(jt.RightCol) {
			st.algo = plan.JoinMerge
		} else {
			st.algo = plan.JoinHash
			st.buildLeft = estLeft < right.estScan
		}
		st.estRows = estJoinRows(estLeft, right.estScan, right.tab.file.NumTuples())
		cq.base = jt.Joined
		estLeft = st.estRows
		cq.joins = append(cq.joins, st)
	}

	// ORDER BY: decide whether the order comes for free (from the
	// bind-chosen driving scan, or the aggregation's key order) or
	// needs a posterior sort.
	if pt.OrderIdx >= 0 {
		cq.orderIdx = pt.OrderIdx
		switch {
		case pt.GroupIdx >= 0 && pt.OrderName == pt.AggSchema.Col(0).Name:
			cq.orderVia = "group" // HashAgg emits ascending group keys
		case len(cq.joins) == 0 && cq.driving().spec.Ordered && pt.GroupIdx < 0 && pt.OrderName == cq.driving().driving.name:
			cq.orderVia = "scan"
		default:
			cq.sortIdx = pt.OrderIdx
		}
	}

	// The bind snapshot is kept whenever there is one, not only for
	// Explain: a fault-degradation step re-binds from it.
	cq.annotate = annotate
	if len(b) > 0 {
		cq.binds = make([]bindPair, 0, len(b))
		for name, val := range b {
			cq.binds = append(cq.binds, bindPair{name: name, val: val})
		}
	}

	// Result-cache tier: derive the entry key (the blind shape, then
	// every constant resolved to its bound value as a varint, in the
	// template's canonical walk order) and capture the referenced
	// tables' write epochs under the same lock the execution will run
	// under. Resolving parameters to their values before keying is
	// what lets an ad-hoc query with inline literals and a prepared
	// statement bound to the same values share one entry. Empty-plan
	// short-circuits stay out: they already cost zero I/O.
	if db.resCache != nil && qt.semKey != "" && cq.emptyWhy == "" {
		var buf [keyBuf]byte
		key := append(buf[:0], qt.semKey...)
		resolve := func(v plan.Value) int64 {
			if v.Param != "" {
				return b[v.Param]
			}
			return lits[v.Slot]
		}
		for _, in := range pt.Inputs {
			for _, c := range in.Conds {
				// Serialise the folded half-open range, not the raw
				// scalars: ad-hoc predicates folded by canon and
				// parameterized ones folding here must produce the same
				// vector.
				var bv int64
				if c.Kind == plan.KindBetween {
					bv = resolve(c.B)
				}
				lo, hi := plan.FoldRange(c.Kind, resolve(c.A), bv)
				key = binary.AppendVarint(key, lo)
				key = binary.AppendVarint(key, hi)
			}
		}
		if pt.HasLim {
			key = binary.AppendVarint(key, resolve(pt.Limit))
		}
		cq.resKey = string(key)
		cq.resEpochs = make(map[string]uint64, len(cq.inputs))
		for _, a := range cq.inputs {
			cq.resEpochs[a.name] = a.tab.epoch
		}
	}
	return cq, nil
}

// renderBinds formats the captured bind snapshot for plan headers,
// sorted by name.
func renderBinds(pairs []bindPair) []string {
	if len(pairs) == 0 {
		return nil
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].name < pairs[j].name })
	out := make([]string, len(pairs))
	for i, p := range pairs {
		out[i] = fmt.Sprintf("$%s=%d", p.name, p.val)
	}
	return out
}

// renderBindNotes lists the estimate-sensitive decisions the bind
// phase just re-made: the driving conjunct wherever more than one was
// in play, the optimizer's access-path pick, the parallelism clamp,
// and each join's algorithm and build side.
func (cq *compiledQuery) renderBindNotes() []string {
	var notes []string
	for _, a := range cq.inputs {
		if a.hasDriving && len(a.residual) > 0 {
			notes = append(notes, fmt.Sprintf("driving(%s)=%s", a.name, a.driving.name))
		}
		if a.choice != nil {
			notes = append(notes, fmt.Sprintf("path(%s)=%s", a.name, publicPaths[a.spec.Path]))
		}
		if par := a.spec.Parallelism; par > 1 {
			notes = append(notes, fmt.Sprintf("parallel(%s)=%d", a.name, par))
		}
	}
	for k, st := range cq.joins {
		if st.algo == plan.JoinMerge {
			notes = append(notes, fmt.Sprintf("join#%d=merge", k+1))
			continue
		}
		build := cq.inputs[k+1].name
		if st.buildLeft {
			build = "left"
		}
		notes = append(notes, fmt.Sprintf("join#%d=hash(build=%s)", k+1, build))
	}
	return notes
}

// bind turns a statement and a bind set into an executable plan. A
// prepared statement brings its template and literal vector; an unnamed
// one takes them from the plan cache. Only a prepared statement's plan
// renders its binds in Explain. The caller holds db.mu (read).
func (db *DB) bind(st statement, b Bind) (*compiledQuery, error) {
	prepared := st.stmt != nil
	var (
		qt   *qtemplate
		lits []int64
		hit  = prepared
		err  error
	)
	if prepared {
		qt, lits = st.stmt.qt, st.stmt.lits
	} else if qt, lits, hit, err = db.templateFor(st.q); err != nil {
		return nil, err
	}
	if err := qt.checkBind(b); err != nil {
		return nil, err
	}
	cq, err := db.bindTemplate(qt, qt.optsPer, lits, b, prepared)
	if err != nil {
		return nil, err
	}
	cq.planCached = hit
	return cq, nil
}

// buildInput constructs one table access through the plan layer,
// wrapped in its counter, context guard and (when the access path
// could not absorb the residual conjuncts) a filter operator.
func (l *localExec) buildInput(ctx context.Context, a *tableAccess, count func(string, exec.Operator) exec.Operator) (exec.Operator, error) {
	cq := l.cq
	spec := a.spec
	spec.Pool, spec.Ctx = &l.pool, ctx
	built, err := plan.Build(spec)
	if err != nil {
		return nil, err
	}
	if a == cq.driving() {
		l.smooth = built.Smooth
	}

	// Counter names keep the historical single-table form ("smooth",
	// "filter"); multi-input plans qualify them with the table.
	multi := len(cq.inputs) > 1
	path := publicPaths[spec.Path]
	scanName := path.String()
	if multi {
		scanName = fmt.Sprintf("%s(%s)", path, a.name)
	}
	if spec.Parallelism > 1 {
		scanName = fmt.Sprintf("parallel[%d] %s", spec.Parallelism, scanName)
	}
	cur := count(scanName, built.Op)
	// Each input gets its own guard, so a blocking consumer (a
	// hash-join build, a sort) observes cancellation per batch.
	cur = &ctxGuard{inner: cur, ctx: ctx}
	if len(a.residual) > 0 && !a.pushed() {
		preds := spec.Residual
		name := "filter"
		if multi {
			name = fmt.Sprintf("filter(%s)", a.name)
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

	if cq.emptyWhy != "" {
		l.root = count("empty", exec.NewValues(cq.out, nil))
		return nil
	}

	inOps := make([]exec.Operator, len(cq.inputs))
	for i, a := range cq.inputs {
		op, err := l.buildInput(ctx, a, count)
		if err != nil {
			return err
		}
		inOps[i] = op
	}

	cur := inOps[0]
	for k, st := range cq.joins {
		op, err := plan.BuildJoin(plan.JoinSpec{
			Left:      cur,
			Right:     inOps[k+1],
			LeftCol:   st.leftCol,
			RightCol:  st.rightCol,
			Algo:      st.algo,
			BuildLeft: st.buildLeft,
			Ch:        l.pool.Channel(),
		})
		if err != nil {
			return err
		}
		l.joins = append(l.joins, op.(exec.JoinStatser))
		cur = count(st.algo.String()+"-join", op)
	}

	root, err := cq.stages.build(cur, l.pool.Channel(), cq.out, count)
	if err != nil {
		return err
	}
	l.root = root
	return nil
}

// stages is the operator list above a scan/join tree or above a
// sharded gather, in execution order: project, aggregate, sort, limit.
// A compiledQuery embeds the one its binding decided; the sharded
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
		rows.acc = newResAccum(cq.resKey, cq.resEpochs, db.resCache.EntryCap(), cq.out.NumCols())
	}
	return rows, nil
}
