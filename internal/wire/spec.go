package wire

import "encoding/binary"

// QuerySpec is a query's structure as plain data: driving table,
// joins, conjunctive predicates, projection, grouping, ordering, limit,
// scan options, with every argument either an inline literal or a
// named parameter placeholder. It is both the wire's payload and the
// state of the smoothscan.Query builder, so there is nothing to
// translate on either side: a client ships its query's spec, the
// server binds the decoded spec to its DB. All validation happens
// there, in the one place that owns it — of what a peer can forge
// (kind bytes, parameter names) when the spec is bound, of semantics
// (unknown tables and columns, ambiguous conjuncts) at compile time.

// Decode caps: a spec announcing more elements than these is malformed.
// They are far above anything the builder API can express usefully and
// exist only to bound decoder allocations.
const (
	maxPreds   = 256
	maxJoins   = 16
	maxSelCols = 512
	maxAggs    = 64
	maxParams  = 256
	maxRules   = 64
	maxTables  = 256
)

// Predicate comparison kinds (the spec's own numbering; smoothscan maps
// it to the planner's).
const (
	PredBetween byte = 0 // lo <= v < hi (two arguments)
	PredEq      byte = 1
	PredLt      byte = 2
	PredLe      byte = 3
	PredGt      byte = 4
	PredGe      byte = 5
)

// Aggregate kinds for GroupBy.
const (
	AggSum   byte = 0
	AggCount byte = 1
	AggMin   byte = 2
	AggMax   byte = 3
)

// ArgSpec is one predicate or limit argument: a named parameter when
// Param is non-empty, the literal Lit otherwise.
type ArgSpec struct {
	Param string
	Lit   int64
}

// PredSpec is one Where conjunct.
type PredSpec struct {
	Col  string
	Kind byte
	A, B ArgSpec // B only meaningful for PredBetween
}

// OptsSpec mirrors smoothscan.ScanOptions field for field.
type OptsSpec struct {
	Path              byte
	Policy            byte
	Trigger           byte
	Ordered           bool
	EstimatedRows     int64
	SLABound          float64
	MaxRegionPages    int64
	ResultCacheBudget int64
	Parallelism       int32
}

// JoinSpec is one Join clause; Opts configures the joined table's
// access path (JoinWithOptions).
type JoinSpec struct {
	Table    string
	LeftCol  string
	RightCol string
	Opts     OptsSpec
}

// AggSpec is one GroupBy aggregate.
type AggSpec struct {
	Kind byte
	Col  string // empty for AggCount
	As   string // output column override; empty = constructor default
}

// QuerySpec carries a whole query structure.
type QuerySpec struct {
	Table    string
	Preds    []PredSpec
	Joins    []JoinSpec
	Select   []string
	HasSel   bool
	GroupCol string
	Aggs     []AggSpec
	HasAgg   bool
	OrderCol string
	HasOrd   bool
	Limit    ArgSpec
	HasLim   bool
	Opts     OptsSpec
}

func appendArg(b []byte, a ArgSpec) []byte {
	b = appendStr(b, a.Param)
	if a.Param == "" {
		b = binary.AppendVarint(b, a.Lit)
	}
	return b
}

func (d *Decoder) arg() ArgSpec {
	var a ArgSpec
	a.Param = d.Str()
	if a.Param == "" {
		a.Lit = d.Varint()
	}
	return a
}

func appendOpts(b []byte, o OptsSpec) []byte {
	b = append(b, o.Path, o.Policy, o.Trigger)
	b = appendBool(b, o.Ordered)
	b = binary.AppendVarint(b, o.EstimatedRows)
	b = appendF64(b, o.SLABound)
	b = binary.AppendVarint(b, o.MaxRegionPages)
	b = binary.AppendVarint(b, o.ResultCacheBudget)
	return binary.AppendVarint(b, int64(o.Parallelism))
}

func (d *Decoder) optsSpec() OptsSpec {
	var o OptsSpec
	o.Path = d.U8()
	o.Policy = d.U8()
	o.Trigger = d.U8()
	o.Ordered = d.Bool()
	o.EstimatedRows = d.Varint()
	o.SLABound = d.F64()
	o.MaxRegionPages = d.Varint()
	o.ResultCacheBudget = d.Varint()
	o.Parallelism = int32(d.Varint())
	return o
}

// AppendSpec appends the spec's encoding to b and returns the extended
// slice. It is the one serializer of a QuerySpec: the Prepare and
// Execute payloads carry it, and smoothscan's plan- and result-cache
// keys are it. It is append-style rather than an Encoder method so that
// a caller's stack buffer stays on the stack — the keys are encoded on
// every execution.
func AppendSpec(b []byte, q *QuerySpec) []byte {
	b = appendStr(b, q.Table)
	b = binary.AppendUvarint(b, uint64(len(q.Preds)))
	for _, p := range q.Preds {
		b = appendStr(b, p.Col)
		b = append(b, p.Kind)
		b = appendArg(b, p.A)
		if p.Kind == PredBetween {
			b = appendArg(b, p.B)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(q.Joins)))
	for _, j := range q.Joins {
		b = appendStr(b, j.Table)
		b = appendStr(b, j.LeftCol)
		b = appendStr(b, j.RightCol)
		b = appendOpts(b, j.Opts)
	}
	b = appendBool(b, q.HasSel)
	if q.HasSel {
		b = binary.AppendUvarint(b, uint64(len(q.Select)))
		for _, c := range q.Select {
			b = appendStr(b, c)
		}
	}
	b = appendBool(b, q.HasAgg)
	if q.HasAgg {
		b = appendStr(b, q.GroupCol)
		b = binary.AppendUvarint(b, uint64(len(q.Aggs)))
		for _, a := range q.Aggs {
			b = append(b, a.Kind)
			b = appendStr(b, a.Col)
			b = appendStr(b, a.As)
		}
	}
	b = appendBool(b, q.HasOrd)
	if q.HasOrd {
		b = appendStr(b, q.OrderCol)
	}
	b = appendBool(b, q.HasLim)
	if q.HasLim {
		b = appendArg(b, q.Limit)
	}
	return appendOpts(b, q.Opts)
}

// DecodeSpec reads a QuerySpec from the decoder.
func (d *Decoder) DecodeSpec() QuerySpec {
	var q QuerySpec
	q.Table = d.Str()
	if n := d.Count(maxPreds, "pred"); n > 0 {
		q.Preds = make([]PredSpec, 0, n)
		for i := 0; i < n && d.Err == nil; i++ {
			var p PredSpec
			p.Col = d.Str()
			p.Kind = d.U8()
			p.A = d.arg()
			if p.Kind == PredBetween {
				p.B = d.arg()
			}
			q.Preds = append(q.Preds, p)
		}
	}
	if n := d.Count(maxJoins, "join"); n > 0 {
		q.Joins = make([]JoinSpec, 0, n)
		for i := 0; i < n && d.Err == nil; i++ {
			var j JoinSpec
			j.Table = d.Str()
			j.LeftCol = d.Str()
			j.RightCol = d.Str()
			j.Opts = d.optsSpec()
			q.Joins = append(q.Joins, j)
		}
	}
	if q.HasSel = d.Bool(); q.HasSel {
		n := d.Count(maxSelCols, "select")
		q.Select = make([]string, 0, n)
		for i := 0; i < n && d.Err == nil; i++ {
			q.Select = append(q.Select, d.Str())
		}
	}
	if q.HasAgg = d.Bool(); q.HasAgg {
		q.GroupCol = d.Str()
		n := d.Count(maxAggs, "agg")
		q.Aggs = make([]AggSpec, 0, n)
		for i := 0; i < n && d.Err == nil; i++ {
			var a AggSpec
			a.Kind = d.U8()
			a.Col = d.Str()
			a.As = d.Str()
			q.Aggs = append(q.Aggs, a)
		}
	}
	if q.HasOrd = d.Bool(); q.HasOrd {
		q.OrderCol = d.Str()
	}
	if q.HasLim = d.Bool(); q.HasLim {
		q.Limit = d.arg()
	}
	q.Opts = d.optsSpec()
	return q
}
