// Package exec implements a batched Volcano-style query executor:
// pipelined operators composed into trees, the substrate the paper's
// TPC-H experiments run on (Section VI-B). Access paths (package access
// and the Smooth Scan of package core) plug in as leaves; this package
// provides selection, projection, sorting, aggregation, limits and the
// joins the TPC-H and builder plans use (index-nested-loop, hash and
// merge join).
//
// There is one pull protocol, NextBatch; a per-tuple pull is a batch of
// capacity one (see IndexNestedLoopJoin, the one operator that needs
// it). All per-tuple work charges simulated CPU time on the device so
// the harness can reproduce the paper's CPU-vs-I/O breakdowns.
package exec

import (
	"errors"
	"fmt"
	"sort"

	"smoothscan/internal/disk"
	"smoothscan/internal/simcost"
	"smoothscan/internal/tuple"
)

// Operator is the iterator contract shared by every node of a plan,
// including the access paths of packages access and core.
type Operator interface {
	// Schema describes the rows NextBatch produces.
	Schema() *tuple.Schema
	// Open prepares the operator (and its children).
	Open() error
	// NextBatch resets b and fills it with up to b.FillCap() rows,
	// returning the number appended; 0 means end of stream (an operator
	// never returns an empty batch mid-stream). The rows in b are views
	// into the batch and remain valid until the next NextBatch call on
	// the same batch; callers that retain rows must copy them.
	NextBatch(b *tuple.Batch) (int, error)
	// Close releases resources; the operator may be reopened.
	Close() error
}

// ErrClosed is returned by NextBatch before Open or after Close.
var ErrClosed = errors.New("exec: operator is not open")

// Drain runs an operator to completion and returns all rows, cloning
// each out of the batch (the returned rows are owned by the caller).
func Drain(op Operator) ([]tuple.Row, error) {
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()
	var out []tuple.Row
	b := newScratchFor(op)
	for {
		n, err := op.NextBatch(b)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return out, nil
		}
		for i := 0; i < n; i++ {
			out = append(out, b.Row(i).Clone())
		}
	}
}

// Count runs an operator to completion, discarding rows, and returns
// the row count; counting a scan allocates nothing per tuple.
func Count(op Operator) (int64, error) {
	if err := op.Open(); err != nil {
		return 0, err
	}
	defer op.Close()
	var n int64
	b := newScratchFor(op)
	for {
		k, err := op.NextBatch(b)
		if err != nil {
			return n, err
		}
		if k == 0 {
			return n, nil
		}
		n += int64(k)
	}
}

// Values is a leaf operator over in-memory rows; used in tests and as
// the output of blocking phases.
type Values struct {
	schema *tuple.Schema
	rows   []tuple.Row
	pos    int
	open   bool
}

// NewValues creates a Values leaf. Rows are not copied.
func NewValues(schema *tuple.Schema, rows []tuple.Row) *Values {
	return &Values{schema: schema, rows: rows}
}

// Schema returns the row schema.
func (v *Values) Schema() *tuple.Schema { return v.schema }

// Open rewinds the operator.
func (v *Values) Open() error { v.pos = 0; v.open = true; return nil }

// Close marks the operator closed.
func (v *Values) Close() error { v.open = false; return nil }

// Predicate decides whether a row passes a filter.
type Predicate func(tuple.Row) bool

// Filter passes through rows matching the predicate.
type Filter struct {
	child Operator
	pred  Predicate
	dev   *disk.Device
	open  bool
}

// NewFilter wraps child with a row predicate; dev may be nil to skip
// CPU accounting.
func NewFilter(child Operator, dev *disk.Device, pred Predicate) *Filter {
	return &Filter{child: child, pred: pred, dev: dev}
}

// Schema returns the child schema.
func (f *Filter) Schema() *tuple.Schema { return f.child.Schema() }

// Open opens the child.
func (f *Filter) Open() error {
	if err := f.child.Open(); err != nil {
		return err
	}
	f.open = true
	return nil
}

// Close closes the child.
func (f *Filter) Close() error { f.open = false; return f.child.Close() }

// Project maps each input row through a function.
type Project struct {
	child   Operator
	schema  *tuple.Schema
	fn      func(tuple.Row) tuple.Row
	scratch *tuple.Batch // lazily allocated by NextBatch
	open    bool
}

// NewProject wraps child with a row transform producing rows of the
// given schema.
func NewProject(child Operator, schema *tuple.Schema, fn func(tuple.Row) tuple.Row) *Project {
	return &Project{child: child, schema: schema, fn: fn}
}

// Schema returns the projected schema.
func (p *Project) Schema() *tuple.Schema { return p.schema }

// Open opens the child.
func (p *Project) Open() error {
	if err := p.child.Open(); err != nil {
		return err
	}
	p.open = true
	return nil
}

// Close closes the child.
func (p *Project) Close() error { p.open = false; return p.child.Close() }

// ColProject projects its input onto a subset of columns, identified
// by index. Unlike the general Project it needs no per-row closure and
// its batched path copies column values straight between batches, so a
// builder-generated SELECT list costs no per-tuple allocation.
type ColProject struct {
	child   Operator
	cols    []int
	schema  *tuple.Schema
	scratch *tuple.Batch // lazily allocated by NextBatch
	open    bool
}

// NewColProject wraps child with a projection onto the child-schema
// column indices cols (in output order). Column indices must be valid
// for the child schema.
func NewColProject(child Operator, cols []int) (*ColProject, error) {
	in := child.Schema()
	out := make([]tuple.Column, len(cols))
	for i, c := range cols {
		if c < 0 || c >= in.NumCols() {
			return nil, fmt.Errorf("exec: projected column %d outside schema %s", c, in)
		}
		out[i] = in.Col(c)
	}
	schema, err := tuple.NewSchema(out...)
	if err != nil {
		return nil, err
	}
	return &ColProject{child: child, cols: append([]int(nil), cols...), schema: schema}, nil
}

// Schema returns the projected schema.
func (p *ColProject) Schema() *tuple.Schema { return p.schema }

// Open opens the child.
func (p *ColProject) Open() error {
	if err := p.child.Open(); err != nil {
		return err
	}
	p.open = true
	return nil
}

// Close closes the child.
func (p *ColProject) Close() error { p.open = false; return p.child.Close() }

// Limit passes through at most n rows.
type Limit struct {
	child Operator
	n     int64
	seen  int64
	open  bool
}

// NewLimit wraps child with a row limit.
func NewLimit(child Operator, n int64) *Limit { return &Limit{child: child, n: n} }

// Schema returns the child schema.
func (l *Limit) Schema() *tuple.Schema { return l.child.Schema() }

// Open opens the child and resets the count.
func (l *Limit) Open() error {
	if err := l.child.Open(); err != nil {
		return err
	}
	l.seen = 0
	l.open = true
	return nil
}

// Close closes the child.
func (l *Limit) Close() error { l.open = false; return l.child.Close() }

// SortOp materialises and sorts its input by an integer column — the
// posterior sort a plan needs when its access path does not deliver an
// interesting order (the handicap of Full Scan and Sort Scan in
// Figure 5a).
type SortOp struct {
	child    Operator
	col      int
	dev      *disk.Device
	memBytes int64 // 0 = unlimited (pure in-memory sort)
	rows     []tuple.Row
	pos      int
	open     bool
}

// NewSort sorts child's output by column col ascending, assuming the
// whole input fits in memory.
func NewSort(child Operator, dev *disk.Device, col int) *SortOp {
	return &SortOp{child: child, col: col, dev: dev}
}

// NewExternalSort is NewSort with a memory budget: when the
// materialised input exceeds memBytes, the sort spills — one
// sequential write pass and one sequential read pass over the data,
// as a two-pass external merge sort does. This is what makes a
// posterior ORDER BY expensive at high selectivity (Figure 5a).
func NewExternalSort(child Operator, dev *disk.Device, col int, memBytes int64) *SortOp {
	return &SortOp{child: child, col: col, dev: dev, memBytes: memBytes}
}

// chargeSpillIfNeeded charges the external-sort passes when dataBytes
// exceeds the budget.
func chargeSpillIfNeeded(dev *disk.Device, memBytes, dataBytes int64) {
	if dev == nil || memBytes <= 0 || dataBytes <= memBytes {
		return
	}
	pages := (dataBytes + int64(dev.PageSize()) - 1) / int64(dev.PageSize())
	dev.ChargeSpill(pages)
}

// Schema returns the child schema.
func (s *SortOp) Schema() *tuple.Schema { return s.child.Schema() }

// Open drains and sorts the child (blocking).
func (s *SortOp) Open() error {
	rows, err := Drain(s.child)
	if err != nil {
		return err
	}
	if s.dev != nil {
		s.dev.ChargeCPU(simcost.SortCost(len(rows)))
		var dataBytes int64
		for _, r := range rows {
			dataBytes += int64(len(r) * 8)
		}
		chargeSpillIfNeeded(s.dev, s.memBytes, dataBytes)
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Int(s.col) < rows[j].Int(s.col) })
	s.rows = rows
	s.pos = 0
	s.open = true
	return nil
}

// Close releases the buffered rows.
func (s *SortOp) Close() error { s.open = false; s.rows = nil; return nil }

// AggSpec describes one aggregate over an input column.
type AggSpec struct {
	// Name labels the output column.
	Name string
	// Col is the input column (ignored for COUNT).
	Col int
	// Kind selects the aggregate function.
	Kind AggKind
}

// AggKind enumerates supported aggregates.
type AggKind int

// Supported aggregate kinds.
const (
	AggCount AggKind = iota
	AggSum
	AggMin
	AggMax
)

// HashAgg groups by an optional integer column and computes aggregates
// per group (blocking). A negative group column aggregates everything
// into one group.
type HashAgg struct {
	child    Operator
	groupCol int
	specs    []AggSpec
	dev      *disk.Device
	schema   *tuple.Schema

	out  []tuple.Row
	pos  int
	open bool
}

// NewHashAgg creates a grouped aggregation; groupCol < 0 means a
// single global group. The group key output column is named "group";
// use NewHashAggNamed to control it.
func NewHashAgg(child Operator, dev *disk.Device, groupCol int, specs []AggSpec) *HashAgg {
	return NewHashAggNamed(child, dev, groupCol, "group", specs)
}

// NewHashAggNamed is NewHashAgg with an explicit name for the group
// key output column, so builder-generated plans can keep the user's
// column name addressable in the result schema.
func NewHashAggNamed(child Operator, dev *disk.Device, groupCol int, groupName string, specs []AggSpec) *HashAgg {
	cols := []tuple.Column{}
	if groupCol >= 0 {
		cols = append(cols, tuple.Column{Name: groupName, Type: tuple.Int64})
	}
	for _, sp := range specs {
		cols = append(cols, tuple.Column{Name: sp.Name, Type: tuple.Int64})
	}
	return &HashAgg{
		child:    child,
		groupCol: groupCol,
		specs:    specs,
		dev:      dev,
		schema:   tuple.MustSchema(cols...),
	}
}

// Schema returns one column per group key (if any) followed by one per
// aggregate.
func (h *HashAgg) Schema() *tuple.Schema { return h.schema }

type aggState struct {
	count int64
	sum   []int64
	min   []int64
	max   []int64
	seen  bool
}

// Open drains the child and computes the aggregates (blocking).
func (h *HashAgg) Open() error {
	if err := h.child.Open(); err != nil {
		return err
	}
	defer h.child.Close()
	groups := map[int64]*aggState{}
	var order []int64
	in := newScratchFor(h.child)
	for {
		n, err := h.child.NextBatch(in)
		if err != nil {
			return err
		}
		if n == 0 {
			break
		}
		if h.dev != nil {
			h.dev.ChargeCPUN(simcost.Aggregate, int64(n))
		}
		for r := 0; r < n; r++ {
			row := in.Row(r)
			key := int64(0)
			if h.groupCol >= 0 {
				key = row.Int(h.groupCol)
			}
			st := groups[key]
			if st == nil {
				st = &aggState{
					sum: make([]int64, len(h.specs)),
					min: make([]int64, len(h.specs)),
					max: make([]int64, len(h.specs)),
				}
				groups[key] = st
				order = append(order, key)
			}
			st.count++
			for i, sp := range h.specs {
				v := row.Int(sp.Col)
				st.sum[i] += v
				if !st.seen || v < st.min[i] {
					st.min[i] = v
				}
				if !st.seen || v > st.max[i] {
					st.max[i] = v
				}
			}
			st.seen = true
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	h.out = h.out[:0]
	for _, key := range order {
		st := groups[key]
		var row tuple.Row
		if h.groupCol >= 0 {
			row = append(row, uint64(key))
		}
		for i, sp := range h.specs {
			switch sp.Kind {
			case AggCount:
				row = append(row, uint64(st.count))
			case AggSum:
				row = append(row, uint64(st.sum[i]))
			case AggMin:
				row = append(row, uint64(st.min[i]))
			case AggMax:
				row = append(row, uint64(st.max[i]))
			default:
				return fmt.Errorf("exec: unknown aggregate kind %d", sp.Kind)
			}
		}
		h.out = append(h.out, row)
	}
	h.pos = 0
	h.open = true
	return nil
}

// Close releases the buffered groups.
func (h *HashAgg) Close() error { h.open = false; h.out = nil; return nil }
