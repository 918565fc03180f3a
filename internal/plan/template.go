// Plan templates: the structural half of the prepare → bind → execute
// query lifecycle.
//
// A Template captures everything about a query that does NOT depend on
// the constant values of its predicates: which tables it reads, which
// column each conjunct lands on, the join tree shape and its resolved
// join columns, the projection/grouping/ordering schemas, each input's
// scan options. BuildTemplate does the expensive work — name
// resolution, schema construction, conjunct routing — exactly once from
// a canonical wire.QuerySpec (Canon); the template can then be cached
// engine-wide (see Cache, keyed by SpecKey) and shared by any number of
// executions.
//
// The constants live outside the template as bind-time Values: each
// predicate bound references either a positional literal slot (filled
// from the query that produced the canonical shape) or a named
// parameter (filled from an explicit bind set). FoldRange applies the
// comparison semantics (Eq, Lt, …) to the resolved scalars at bind
// time, reproducing exactly what the literal constructors compute
// eagerly — so a bound execution is value-for-value identical to the
// equivalent literal query.
//
// Everything estimate-sensitive — driving-conjunct choice, access-path
// selection, merge vs hash and the hash build side, parallelism
// clamping — is deliberately NOT in the template: the bind phase
// (internal/optimizer's Bind) re-decides it at every execution from the
// then-current statistics, which is what lets one prepared statement
// flip its driving index between two bind sets.
package plan

import (
	"fmt"
	"math"
	"slices"

	"smoothscan/internal/exec"
	"smoothscan/internal/tuple"
	"smoothscan/internal/wire"
)

// Value is a bind-time scalar source: a named parameter, or a
// positional literal slot filled from the query that was canonicalised
// into the template's shape key.
type Value struct {
	// Param is the parameter name; empty for a literal slot.
	Param string
	// Slot indexes the execution's literal vector when Param is empty,
	// and the template's Params (so a binding's values) otherwise.
	Slot int
}

// PredKind selects the comparison semantics a predicate's bound
// scalars fold into (mirroring the facade's Pred constructors).
type PredKind int

// Predicate kinds.
const (
	// KindBetween matches lo <= v < hi (two bound scalars).
	KindBetween PredKind = iota
	// KindEq matches v == x.
	KindEq
	// KindLt matches v < x.
	KindLt
	// KindLe matches v <= x.
	KindLe
	// KindGt matches v > x.
	KindGt
	// KindGe matches v >= x.
	KindGe
)

// NumArgs returns how many bound scalars the kind folds (Between takes
// two, the comparisons one).
func (k PredKind) NumArgs() int {
	if k == KindBetween {
		return 2
	}
	return 1
}

// FoldRange folds the kind's bound scalars into a half-open [lo, hi)
// range, with exactly the math.MaxInt64 edge handling of the eager
// literal constructors (an Eq/Gt of MaxInt64 matches nothing, a Le of
// it saturates). b is ignored except for KindBetween.
func FoldRange(k PredKind, a, b int64) (lo, hi int64) {
	switch k {
	case KindBetween:
		return a, b
	case KindEq:
		if a == math.MaxInt64 {
			return a, a
		}
		return a, a + 1
	case KindLt:
		return math.MinInt64, a
	case KindLe:
		if a == math.MaxInt64 {
			return math.MinInt64, a
		}
		return math.MinInt64, a + 1
	case KindGt:
		if a == math.MaxInt64 {
			return a, a
		}
		return a + 1, math.MaxInt64
	case KindGe:
		return a, math.MaxInt64
	default:
		return 0, 0
	}
}

// CondT is one conjunct routed to a table input, its column resolved
// against that table's schema.
type CondT struct {
	// Col is the column index in the owning input's base schema.
	Col int
	// Kind selects the fold semantics.
	Kind PredKind
	// A and B are the bound scalars (B only for KindBetween).
	A, B Value
}

// AccessT is the structural slice of one table input: its schema and
// the conjuncts routed to it, grouped per column. Which conjunct
// drives the scan, the access path and the parallelism are bind-time
// decisions and live outside the template.
type AccessT struct {
	// Table names the input's table.
	Table string
	// Schema is the table's row schema.
	Schema *tuple.Schema
	// Conds are the conjuncts routed to this input, in Where order.
	Conds []CondT
	// Merged groups Conds indices per column, groups in first-mention
	// order — the ranges of one group intersect into one predicate at
	// bind time.
	Merged [][]int
	// Opts are the input's scan options as the spec carries them: the
	// driving table's WithOptions, a joined table's JoinWithOptions.
	Opts wire.OptsSpec
}

// JoinT is one stage of the left-deep join tree with its equi-join
// columns resolved. Algorithm and build side are bind-time decisions.
type JoinT struct {
	// LeftCol indexes the accumulated left schema, RightCol the right
	// input's base schema.
	LeftCol, RightCol int
	// LeftName / RightName are the resolved column names.
	LeftName, RightName string
	// Joined is the stage's output schema (left ++ right with collision
	// renaming), precomputed so bind never rebuilds schemas.
	Joined *tuple.Schema
}

// Template is the compiled structure of a query: the outcome of the
// prepare phase, immutable once built, safe to share across
// goroutines and executions.
type Template struct {
	// Inputs are the base-table accesses, driving table first.
	Inputs []AccessT
	// Joins holds len(Inputs)-1 stages of the left-deep join tree.
	Joins []JoinT
	// Base is the scan/join output schema (Inputs[0].Schema when there
	// are no joins, the last Joined otherwise).
	Base *tuple.Schema
	// SelIdx projects Base onto the Select list (nil = no projection);
	// SelSchema is the projected schema (== Base when SelIdx is nil).
	SelIdx    []int
	SelSchema *tuple.Schema
	// GroupIdx is the grouping column in SelSchema; -1 = no grouping.
	GroupIdx  int
	AggSpecs  []exec.AggSpec
	AggSchema *tuple.Schema
	// OrderIdx is the ORDER BY column in the pre-sort schema; -1 = no
	// ordering. OrderName is its column name (the bind phase compares
	// it against the bind-chosen driving column to elide the sort).
	OrderIdx  int
	OrderName string
	// FreeOrderCol names the column whose native scan order would
	// satisfy the ORDER BY for free on the driving input ("" = none).
	FreeOrderCol string
	// HasLim / Limit carry the LIMIT clause; the count is a bind-time
	// Value like any other constant.
	HasLim bool
	Limit  Value
	// Out is the final output schema.
	Out *tuple.Schema
	// Params lists the distinct named parameters in first-use order.
	Params []string
	// Slots is the length of the positional literal vector.
	Slots int
	// ResultShape is the parameter-blind shape, SpecKey(c, true), that
	// result-cache entry keys start with; empty when the engine that
	// built the template caches no results.
	ResultShape string
}

// PredKinds maps the spec's predicate kind bytes to the planner's.
var PredKinds = [...]PredKind{
	wire.PredBetween: KindBetween,
	wire.PredEq:      KindEq,
	wire.PredLt:      KindLt,
	wire.PredLe:      KindLe,
	wire.PredGt:      KindGt,
	wire.PredGe:      KindGe,
}

// AggKinds maps the spec's aggregate kind bytes to the executor's kind
// and the constructor-default output name prefix.
var AggKinds = [...]struct {
	Kind exec.AggKind
	Name string
}{
	wire.AggSum:   {exec.AggSum, "sum"},
	wire.AggCount: {exec.AggCount, "count"},
	wire.AggMin:   {exec.AggMin, "min"},
	wire.AggMax:   {exec.AggMax, "max"},
}

// Canon returns a query's canonical form, the one thing both cache keys
// and BuildTemplate read. A parameter-free conjunct folds into its
// half-open Between range, so Eq(5) and Between(5, 6) share one shape;
// a parameterized one keeps its comparison kind for bind-time folding.
// Every literal argument — the Where conjuncts' in call order (lo then
// hi for Between), then the Limit — moves into the returned literal
// vector, and its ArgSpec.Lit becomes its slot number there. Named
// parameters stay as they are: the bind phase resolves them by name, so
// a prepared query and its literal twin have distinct canonical specs.
// sp's kind bytes must be in range (PredKinds).
func Canon(sp *wire.QuerySpec) (wire.QuerySpec, []int64) {
	c := *sp
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
	for i, p := range sp.Preds {
		kind := PredKinds[p.Kind]
		if p.A.Param == "" && (kind != KindBetween || p.B.Param == "") {
			lo, hi := FoldRange(kind, p.A.Lit, p.B.Lit)
			p.Kind, p.A, p.B = wire.PredBetween, wire.ArgSpec{Lit: lo}, wire.ArgSpec{Lit: hi}
		}
		p.A = slot(p.A)
		if p.Kind == wire.PredBetween {
			p.B = slot(p.B)
		} else {
			p.B = wire.ArgSpec{}
		}
		if p == sp.Preds[i] {
			continue // a parameterized conjunct is already canonical
		}
		if &c.Preds[0] == &sp.Preds[0] { // copy the query's conjuncts before the first change
			c.Preds = slices.Clone(sp.Preds)
		}
		c.Preds[i] = p
	}
	if c.HasLim {
		c.Limit = slot(c.Limit)
	}
	return c, lits
}

// SpecKey is a canonical spec's wire encoding. With blind false it is
// the plan-cache key: two queries with the same key compile to the same
// template and differ only in the literal vector they bind. With blind
// true it is the result-cache shape: every conjunct is a Between and
// every constant is blank, literal or parameter alike — each predicate
// folds to a half-open [lo, hi) range at bind time whichever comparison
// spelled it — so two queries with the same blind key and the same
// resolved constants compute the same result.
func SpecKey(c *wire.QuerySpec, blind bool) string {
	if blind {
		b := *c
		b.Preds = make([]wire.PredSpec, len(c.Preds))
		for i, p := range c.Preds {
			b.Preds[i] = wire.PredSpec{Col: p.Col, Kind: wire.PredBetween}
		}
		b.Limit = wire.ArgSpec{}
		c = &b
	}
	var buf [KeyBuf]byte
	return string(wire.AppendSpec(buf[:0], c))
}

// KeyBuf sizes the stack buffer a cache key is encoded into; a longer
// key spills to the heap.
const KeyBuf = 256

// BuildTemplate runs the structural (prepare) phase: table and column
// resolution, conjunct routing, join tree shape, projection / grouping
// / ordering schemas — everything about the query that does not depend
// on its constant values. sp is a canonical spec (see Canon) with slots
// literal slots; schema resolves a table name against the engine's
// catalog. The result is immutable; the bind phase turns it into an
// executable plan per execution.
func BuildTemplate(sp *wire.QuerySpec, slots int, schema func(table string) (*tuple.Schema, error)) (*Template, error) {
	pt := &Template{GroupIdx: -1, OrderIdx: -1, Slots: slots}

	// Resolve every input table.
	pt.Inputs = make([]AccessT, 1+len(sp.Joins))
	pt.Inputs[0] = AccessT{Table: sp.Table, Opts: sp.Opts}
	for i, j := range sp.Joins {
		pt.Inputs[i+1] = AccessT{Table: j.Table, Opts: j.Opts}
	}
	for i := range pt.Inputs {
		s, err := schema(pt.Inputs[i].Table)
		if err != nil {
			return nil, err
		}
		pt.Inputs[i].Schema = s
	}

	// Bind-time Values: a literal reads the slot Canon gave it,
	// parameters are registered by name in first-use order and read
	// their position there.
	val := func(a wire.ArgSpec) Value {
		if a.Param == "" {
			return Value{Slot: int(a.Lit)}
		}
		i := slices.Index(pt.Params, a.Param)
		if i < 0 {
			i = len(pt.Params)
			pt.Params = append(pt.Params, a.Param)
		}
		return Value{Param: a.Param, Slot: i}
	}

	// Distribute the Where conjuncts: each predicate is pushed beneath
	// the joins into the one input whose schema has the column, and
	// grouped per column (first-mention order) for bind-time
	// intersection.
	for _, c := range sp.Preds {
		at := -1
		for i := range pt.Inputs {
			if pt.Inputs[i].Schema.ColIndex(c.Col) < 0 {
				continue
			}
			if at >= 0 {
				return nil, fmt.Errorf("smoothscan: Where column %q is ambiguous between tables %q and %q", c.Col, pt.Inputs[at].Table, pt.Inputs[i].Table)
			}
			at = i
		}
		if at < 0 {
			if len(pt.Inputs) == 1 {
				return nil, fmt.Errorf("%w: table %q has no column %q", wire.ErrUnknownColumn, sp.Table, c.Col)
			}
			return nil, fmt.Errorf("%w: no joined table has column %q", wire.ErrUnknownColumn, c.Col)
		}
		in := &pt.Inputs[at]
		ct := CondT{Col: in.Schema.ColIndex(c.Col), Kind: PredKinds[c.Kind], A: val(c.A)}
		if c.Kind == wire.PredBetween {
			ct.B = val(c.B)
		}
		idx := len(in.Conds)
		in.Conds = append(in.Conds, ct)
		g := 0
		for g < len(in.Merged) && in.Conds[in.Merged[g][0]].Col != ct.Col {
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
			return nil, fmt.Errorf("%w: join %d: %q is not a column of the query output joined so far", wire.ErrUnknownColumn, k+1, jc.LeftCol)
		}
		rightCol := right.Schema.ColIndex(jc.RightCol)
		if rightCol < 0 {
			return nil, fmt.Errorf("%w: table %q has no column %q", wire.ErrUnknownColumn, right.Table, jc.RightCol)
		}
		// The same concatenation the join operators apply at run time
		// ("r." prefix on right columns shadowed by the left), a
		// still-colliding name a compile-time error instead of a panic.
		joined, err := base.ConcatChecked(right.Schema)
		if err != nil {
			return nil, fmt.Errorf("smoothscan: join output schema: %w (rename columns or reorder joins)", err)
		}
		pt.Joins = append(pt.Joins, JoinT{
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
					return nil, fmt.Errorf("%w: table %q has no column %q", wire.ErrUnknownColumn, sp.Table, name)
				}
				return nil, fmt.Errorf("%w: join output has no column %q", wire.ErrUnknownColumn, name)
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
			return nil, pt.colErr(sp.GroupCol, "GroupBy")
		}
		outNames := map[string]bool{sp.GroupCol: true}
		outCols := []tuple.Column{{Name: sp.GroupCol, Type: tuple.Int64}}
		for _, a := range sp.Aggs {
			spec := exec.AggSpec{Name: a.As, Kind: AggKinds[a.Kind].Kind}
			if a.Kind != wire.AggCount {
				spec.Col = pt.SelSchema.ColIndex(a.Col)
				if spec.Col < 0 {
					return nil, pt.colErr(a.Col, "aggregate")
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
			return nil, fmt.Errorf("%w: %q is not in the query output; add it to Select or GroupBy", wire.ErrUnknownColumn, sp.OrderCol)
		}
		pt.OrderName = sp.OrderCol
	}

	pt.HasLim = sp.HasLim
	if sp.HasLim {
		pt.Limit = val(sp.Limit)
	}
	pt.Out = stage
	return pt, nil
}

// colErr distinguishes "no such column" from "column projected away"
// for GroupBy/aggregate resolution against the template.
func (t *Template) colErr(col, what string) error {
	if t.Base.ColIndex(col) >= 0 {
		return fmt.Errorf("%w: %s column %q was projected away by Select", wire.ErrNotSelected, what, col)
	}
	if len(t.Inputs) == 1 {
		return fmt.Errorf("%w: table %q has no column %q (%s)", wire.ErrUnknownColumn, t.Inputs[0].Table, col, what)
	}
	return fmt.Errorf("%w: join output has no column %q (%s)", wire.ErrUnknownColumn, col, what)
}
