package optimizer

import (
	"errors"
	"fmt"
	"math"

	"smoothscan/internal/btree"
	"smoothscan/internal/core"
	"smoothscan/internal/costmodel"
	"smoothscan/internal/disk"
	"smoothscan/internal/heap"
	"smoothscan/internal/plan"
	"smoothscan/internal/tuple"
	"smoothscan/internal/wire"
)

// MaxParallelism caps the full-scan worker count a scan may request.
const MaxParallelism = 64

// Table is what the bind phase reads of one table: its heap, its
// secondary indexes by column name, and the statistics Analyze
// collected (nil before the first Analyze).
type Table struct {
	File    *heap.File
	Indexes map[string]*btree.Tree
	Stats   *TableStats
}

// CostParams derives the Section V cost-model parameters of a heap file
// on dev.
func CostParams(dev *disk.Device, f *heap.File) costmodel.Params {
	return costmodel.Params{
		TupleSize: f.Schema().TupleSize(),
		PageSize:  dev.PageSize(),
		KeySize:   8,
		NumTuples: f.NumTuples(),
		RandCost:  dev.Profile().RandCost,
		SeqCost:   dev.Profile().SeqCost,
	}
}

// Access is one base table's bound access: the plan.ScanSpec the bind
// phase filled — driving conjunct in Pred, the other conjuncts in
// Residual, path, morphing configuration, ordering, worker count — and
// the estimates behind it. The engine adds its pool and context and
// hands the spec to plan.Build.
type Access struct {
	// Table names the input's table.
	Table string
	Spec  plan.ScanSpec
	// Choice is the optimizer's decision under PathAuto; nil otherwise.
	Choice *Choice
	// EstRows is the estimated output after every conjunct.
	EstRows int64

	emptyWhy string // a contradictory column's note, "" for none
}

// ColName names a column of the access's table.
func (a *Access) ColName(col int) string { return a.Spec.File.Schema().Col(col).Name }

// Pushed reports whether the scan evaluates the residual conjuncts
// inside its page decode instead of under a filter above it.
func (a *Access) Pushed() bool {
	return len(a.Spec.Residual) > 0 && a.Spec.Path.AbsorbsResidual(a.Spec.Ordered)
}

// RangeOn returns the folded range of the access's conjuncts on the
// named column (every column's conjuncts fold into one predicate, the
// driving one or a residual), unbounded when it has none — what the
// sharded coordinator prunes by.
func (a *Access) RangeOn(col string) tuple.RangePred {
	c := a.Spec.File.Schema().ColIndex(col)
	if a.Spec.Pred.Col == c {
		return a.Spec.Pred // All when there is no predicate at all
	}
	for _, r := range a.Spec.Residual {
		if r.Col == c {
			return r
		}
	}
	return tuple.All(0)
}

// deliversOrderOn reports whether the access emits rows ordered by the
// given column: the column must drive the scan and the path must
// deliver index-key order.
func (a *Access) deliversOrderOn(col int) bool {
	return a.Spec.Pred.Col == col && a.Spec.Path.DeliversOrder(a.Spec.Ordered)
}

// Join is one bound stage of the template's left-deep join tree: stage
// k joins the output of everything before it with Inputs[k+1], on the
// columns of Template.Joins[k].
type Join struct {
	Algo      plan.JoinAlgo
	BuildLeft bool // hash only: the accumulated left side is the build side
	EstRows   int64
}

// Bound is one execution's plan: a template with every constant
// resolved and every estimate-driven decision made.
type Bound struct {
	Template *plan.Template
	// Lits and Vals are what the plan was bound from: the literal
	// vector and the parameter values in Template.Params order (nil
	// when there are none), which a re-bind reuses and Explain renders.
	Lits []int64
	Vals []int64
	// Inputs are the bound accesses, driving table first; Joins has one
	// entry per Template.Joins.
	Inputs []Access
	Joins  []Join
	// EmptyWhy is set when the plan short-circuits to an empty result:
	// a contradiction, or LIMIT 0.
	EmptyWhy string
	// SortIdx is the posterior-sort column of the output (-1 = none).
	// When the ORDER BY needs no sort, OrderVia says what delivers it:
	// "scan" (the driving scan's index order) or "group" (the
	// aggregate's key order).
	SortIdx  int
	OrderVia string
	Limit    int64
	HasLim   bool
}

// Src names the parameters the lo and hi bounds of input i's folded
// predicate on column col came from ("" for a literal bound), for
// Explain's $name markers. The bind phase does not keep them: Explain
// folds the column's conjuncts again.
func (b *Bound) Src(i, col int) (lo, hi string) {
	at := &b.Template.Inputs[i]
	for _, group := range at.Merged {
		if at.Conds[group[0]].Col == col {
			_, src := foldGroup(at, group, b.Lits, b.Vals)
			return src[0], src[1]
		}
	}
	return "", ""
}

// Value is the constant v was bound to.
func (b *Bound) Value(v plan.Value) int64 {
	x, _ := resolveValue(v, b.Lits, b.Vals)
	return x
}

// Driving returns the driving-table access.
func (b *Bound) Driving() *Access { return &b.Inputs[0] }

// EstRoot is the cardinality estimate of the scan/join tree before
// projection and aggregation.
func (b *Bound) EstRoot() int64 {
	if n := len(b.Joins); n > 0 {
		return b.Joins[n-1].EstRows
	}
	return b.Inputs[0].EstRows
}

// ParamValues resolves a bind set against the template's parameters:
// their values in Template.Params order, nil when it has none, or
// ErrUnboundParam naming the first parameter b leaves unbound. The
// vector is the binding's own, so the caller's map may change after
// Run returns; a fault-degradation re-bind and a late Explain read it.
func ParamValues(pt *plan.Template, b map[string]int64) ([]int64, error) {
	if len(pt.Params) == 0 {
		return nil, nil
	}
	vals := make([]int64, len(pt.Params))
	for i, name := range pt.Params {
		v, ok := b[name]
		if !ok {
			return nil, fmt.Errorf("%w: $%s", wire.ErrUnboundParam, name)
		}
		vals[i] = v
	}
	return vals, nil
}

// Bind runs the bind phase: substitute the constants — lits for the
// template's literal slots, vals (ParamValues) for its parameters —
// and re-decide everything estimate-sensitive — driving conjunct,
// access path, join algorithm and build side, free or posterior ORDER
// BY, parallelism —
// from the tables' current statistics and the template's scan options.
// It is the only code that produces an executable plan, and it touches
// no device state. table resolves a table name against the engine's
// catalog, dev is the device the tables live on; the caller keeps both
// stable for the call.
func Bind(dev *disk.Device, table func(name string) (*Table, error), pt *plan.Template, lits, vals []int64) (Bound, error) {
	if len(lits) != pt.Slots {
		return Bound{}, fmt.Errorf("smoothscan: internal: %d literals for a %d-slot template", len(lits), pt.Slots)
	}
	out := Bound{Template: pt, Lits: lits, Vals: vals, SortIdx: -1}
	out.Inputs = make([]Access, len(pt.Inputs))
	for i := range pt.Inputs {
		a, err := bindInput(dev, table, pt, i, lits, vals)
		if err != nil {
			return Bound{}, err
		}
		if a.emptyWhy != "" && out.EmptyWhy == "" {
			out.EmptyWhy = a.emptyWhy
		}
		out.Inputs[i] = a
	}

	if pt.HasLim {
		n, src := resolveValue(pt.Limit, lits, vals)
		if n < 0 {
			return Bound{}, fmt.Errorf("smoothscan: negative limit %d bound from $%s", n, src)
		}
		out.Limit, out.HasLim = n, true
	}
	if out.HasLim && out.Limit == 0 {
		out.EmptyWhy = "LIMIT 0"
	}
	if out.EmptyWhy == "" {
		// Refuse here what NewSmoothScan would refuse at open, so Explain
		// and Run reject the same options with the same error.
		for i := range out.Inputs {
			if s := &out.Inputs[i].Spec; s.Path == plan.PathSmooth {
				if err := s.Smooth.Validate(); err != nil {
					return Bound{}, err
				}
			}
		}
	}

	// Join stages: merge when both inputs already arrive ordered by
	// their join columns, hash otherwise, with the smaller estimated
	// input on the build side.
	if len(pt.Joins) > 0 {
		out.Joins = make([]Join, len(pt.Joins))
	}
	estLeft := out.Inputs[0].EstRows
	for k := range pt.Joins {
		jt, right, st := &pt.Joins[k], &out.Inputs[k+1], &out.Joins[k]
		if k == 0 && out.Inputs[0].deliversOrderOn(jt.LeftCol) && right.deliversOrderOn(jt.RightCol) {
			st.Algo = plan.JoinMerge
		} else {
			st.Algo = plan.JoinHash
			st.BuildLeft = estLeft < right.EstRows
		}
		st.EstRows = estJoinRows(estLeft, right.EstRows, right.Spec.File.NumTuples())
		estLeft = st.EstRows
	}

	// ORDER BY: free from the bind-chosen driving scan or from the
	// aggregation's key order, or a posterior sort.
	if pt.OrderIdx >= 0 {
		drv := out.Driving()
		switch {
		case pt.GroupIdx >= 0 && pt.OrderName == pt.AggSchema.Col(0).Name:
			out.OrderVia = "group" // HashAgg emits ascending group keys
		case len(out.Joins) == 0 && drv.Spec.Ordered && pt.GroupIdx < 0 && pt.OrderName == drv.ColName(drv.Spec.Pred.Col):
			out.OrderVia = "scan"
		default:
			out.SortIdx = pt.OrderIdx
		}
	}
	return out, nil
}

// InputEstimate is input i's estimated output after its conjuncts,
// bound exactly as Bind binds it.
func InputEstimate(dev *disk.Device, table func(name string) (*Table, error), pt *plan.Template, i int, lits, vals []int64) (int64, error) {
	a, err := bindInput(dev, table, pt, i, lits, vals)
	return a.EstRows, err
}

// BroadcastSide picks which input of a sharded two-input join to
// replicate to every shard of the other, from each side's estimate
// summed over the shards: the smaller one, the right on a tie.
func BroadcastSide(est0, est1 int64) (bc, scan int) {
	if est0 < est1 {
		return 0, 1
	}
	return 1, 0
}

// bindInput binds input i of the template: fold each column's
// conjuncts with the execution's constants, then bindAccess under the
// input's options. Only the driving table of a join-free query can
// deliver a free ORDER BY.
func bindInput(dev *disk.Device, table func(name string) (*Table, error), pt *plan.Template, i int, lits, vals []int64) (Access, error) {
	at := &pt.Inputs[i]
	t, err := table(at.Table)
	if err != nil {
		return Access{}, err
	}
	var (
		preds    []tuple.RangePred
		emptyWhy string
	)
	if len(at.Merged) > 0 {
		preds = make([]tuple.RangePred, len(at.Merged))
	}
	for g, group := range at.Merged {
		p, _ := foldGroup(at, group, lits, vals)
		if p.Empty() {
			emptyWhy = fmt.Sprintf("predicates on %q are contradictory", at.Schema.Col(p.Col).Name)
		}
		preds[g] = p
	}
	orderCol := ""
	if i == 0 {
		orderCol = pt.FreeOrderCol
	}
	a, err := bindAccess(dev, at.Table, t, preds, at.Opts, orderCol)
	a.emptyWhy = emptyWhy
	return a, err
}

// bindAccess plans one base table's access from its folded per-column
// predicates and scan options: it
// re-decides everything estimate-sensitive — the driving conjunct among
// the indexed ones, the access path (for PathAuto), the parallelism
// clamp — from the table's current statistics, with zero device I/O.
// orderCol, when non-empty, names a column whose order the plan could
// use for free if it happens to drive an order-preserving path (the
// free-ORDER-BY case).
func bindAccess(dev *disk.Device, name string, t *Table, preds []tuple.RangePred, o wire.OptsSpec, orderCol string) (Access, error) {
	a := Access{Table: name}
	if o.MaxRegionPages == 0 {
		o.MaxRegionPages = core.DefaultMaxRegionPages
	}
	params := CostParams(dev, t.File)
	stats := t.Stats
	if stats == nil {
		stats = DefaultStats(t.File.NumTuples(), t.File.NumPages(), nil)
	}
	schema := t.File.Schema()

	// Driving-predicate selection: the most selective indexed conjunct
	// (by the cardinality estimate) drives the access path; everything
	// else is residual. It moves to the front, the others keep their
	// order.
	drivingAt := -1
	bestCard := int64(math.MaxInt64)
	for i, p := range preds {
		if _, ok := t.Indexes[schema.Col(p.Col).Name]; !ok {
			continue
		}
		if card := stats.EstimateCard(p); card < bestCard {
			bestCard, drivingAt = card, i
		}
	}
	if drivingAt < 0 && len(preds) > 0 {
		drivingAt = 0 // no indexed conjunct: full scan driven by the first
	}
	hasDriving := drivingAt >= 0
	driving := tuple.All(0)
	var residual []tuple.RangePred
	if hasDriving {
		driving = preds[drivingAt]
		copy(preds[1:drivingAt+1], preds[:drivingAt])
		preds[0] = driving
		if len(preds) > 1 {
			residual = preds[1:]
		}
	}
	drivingName := schema.Col(driving.Col).Name
	tree := t.Indexes[drivingName]

	// Cardinality estimates (independence assumption across conjuncts).
	est := o.EstimatedRows
	if est == 0 {
		est = stats.EstimateCard(driving)
	}
	sel := 1.0
	for _, r := range residual {
		sel *= stats.EstimateSelectivity(r)
	}

	// Does the caller want output in this column's order? Then an
	// order-preserving access path driven by it satisfies the ORDER BY
	// for free — the optimizer weighs the posterior sort against that.
	wantScanOrder := orderCol != "" && hasDriving && orderCol == drivingName
	ordered := o.Ordered || wantScanOrder

	// Access-path resolution.
	path, ok := plan.SpecPath(o.Path)
	switch {
	case o.Path == plan.SpecAuto && !hasDriving:
		path = plan.PathFull
	case o.Path == plan.SpecAuto:
		choice := ChooseAccessPath(params, stats, driving, tree != nil, ordered)
		a.Choice = &choice
		path, est = choice.Path, choice.EstimatedCard
	case !ok:
		return Access{}, fmt.Errorf("smoothscan: unknown access path %d", o.Path)
	}
	a.EstRows = int64(math.Round(float64(est) * sel))
	if path.NeedsIndex() && tree == nil {
		if path != plan.PathSmooth {
			return Access{}, fmt.Errorf("%w: %q.%q", wire.ErrNoIndex, name, drivingName)
		}
		// The builder's default path is PathSmooth; without an index on
		// the driving column it degrades gracefully to a full scan
		// instead of failing, so predicate-less and unindexed queries
		// still run.
		path = plan.PathFull
	}
	if o.Ordered && !path.DeliversOrder(true) {
		// Explicit scan-level ordering keeps the historical contract:
		// paths that cannot deliver it refuse, rather than silently
		// sorting. Use OrderBy for a plan-level ordering that falls
		// back to a posterior sort.
		if path == plan.PathSwitch {
			return Access{}, errors.New("smoothscan: switch scan cannot guarantee ordered output")
		}
		return Access{}, errors.New("smoothscan: full scan cannot deliver ordered output; add an explicit sort")
	}

	a.Spec = plan.ScanSpec{
		File:     t.File,
		Tree:     tree,
		Pred:     driving,
		Residual: residual,
		Path:     path,
		Smooth: core.Config{
			Policy:            core.Policy(o.Policy),
			Trigger:           core.Trigger(o.Trigger),
			MaxRegionPages:    o.MaxRegionPages,
			EstimatedCard:     est,
			SLABound:          o.SLABound,
			CostParams:        params,
			ResultCacheBudget: o.ResultCacheBudget,
		},
		Ordered:         ordered && path.DeliversOrder(true),
		SwitchThreshold: est,
		Parallelism:     path.Workers(min(int(o.Parallelism), MaxParallelism), t.File.NumPages()),
	}
	return a, nil
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

// resolveValue turns a template Value into a scalar: a literal slot
// reads the execution's literal vector, a parameter its value vector.
// The second return names the parameter ("" for literals) for
// Explain's bind markers.
func resolveValue(v plan.Value, lits, vals []int64) (int64, string) {
	if v.Param != "" {
		return vals[v.Slot], v.Param
	}
	return lits[v.Slot], ""
}

// foldGroup folds one column's conjuncts into a single range: each
// conjunct's bound scalars fold through its comparison kind, and the
// ranges intersect in Where order — exactly what the eager literal
// constructors plus Intersect compute. The parameter sources of the
// binding lo and hi bounds are returned for plan rendering (Src).
func foldGroup(at *plan.AccessT, group []int, lits, vals []int64) (tuple.RangePred, [2]string) {
	var (
		out tuple.RangePred
		src [2]string
	)
	for gi, ci := range group {
		c := at.Conds[ci]
		aVal, aSrc := resolveValue(c.A, lits, vals)
		var bVal int64
		var bSrc string
		if c.Kind == plan.KindBetween {
			bVal, bSrc = resolveValue(c.B, lits, vals)
		}
		lo, hi := plan.FoldRange(c.Kind, aVal, bVal)
		var s [2]string
		switch c.Kind {
		case plan.KindBetween:
			s = [2]string{aSrc, bSrc}
		case plan.KindEq:
			s = [2]string{aSrc, aSrc}
		case plan.KindLt, plan.KindLe:
			s[1] = aSrc
		case plan.KindGt, plan.KindGe:
			s[0] = aSrc
		}
		rp := tuple.RangePred{Col: c.Col, Lo: lo, Hi: hi}
		if gi == 0 {
			out, src = rp, s
			continue
		}
		if rp.Lo > out.Lo {
			src[0] = s[0]
		}
		if rp.Hi < out.Hi {
			src[1] = s[1]
		}
		out = out.Intersect(rp)
	}
	return out, src
}
