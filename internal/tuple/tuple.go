// Package tuple defines schemas, rows and predicates shared by the
// storage engine and the query executor.
//
// Rows are fixed-width: every column occupies 8 bytes on disk and is
// either a signed 64-bit integer or a 64-bit float. This matches the
// micro-benchmark of the paper (tables of 10 integer columns, 64-byte
// tuples) and is sufficient for the TPC-H-like workload, where dates
// are day numbers and monetary values are cents.
package tuple

import (
	"fmt"
	"math"
	"strings"
	"unsafe"
)

// ColType is the type of a column.
type ColType uint8

// Supported column types.
const (
	Int64 ColType = iota
	Float64
)

func (t ColType) String() string {
	switch t {
	case Int64:
		return "int64"
	case Float64:
		return "float64"
	default:
		return fmt.Sprintf("ColType(%d)", uint8(t))
	}
}

// Column describes one column of a schema.
type Column struct {
	Name string
	Type ColType
}

// Schema is an ordered list of columns.
type Schema struct {
	cols   []Column
	byName map[string]int
}

// NewSchema builds a schema from columns. Column names must be unique
// and non-empty.
func NewSchema(cols ...Column) (*Schema, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("tuple: schema requires at least one column")
	}
	s := &Schema{cols: append([]Column(nil), cols...), byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("tuple: column %d has empty name", i)
		}
		if _, dup := s.byName[c.Name]; dup {
			return nil, fmt.Errorf("tuple: duplicate column name %q", c.Name)
		}
		if c.Type != Int64 && c.Type != Float64 {
			return nil, fmt.Errorf("tuple: column %q has unknown type %d", c.Name, c.Type)
		}
		s.byName[c.Name] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; intended for statically
// known schemas in tests, examples and the workload generators.
func MustSchema(cols ...Column) *Schema {
	s, err := NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// Ints builds a schema of n Int64 columns named c1..cn, the layout of
// the paper's micro-benchmark table.
func Ints(n int) *Schema {
	cols := make([]Column, n)
	for i := range cols {
		cols[i] = Column{Name: fmt.Sprintf("c%d", i+1), Type: Int64}
	}
	return MustSchema(cols...)
}

// NumCols returns the number of columns.
func (s *Schema) NumCols() int { return len(s.cols) }

// Col returns the i-th column.
func (s *Schema) Col(i int) Column { return s.cols[i] }

// Columns returns a copy of the column list.
func (s *Schema) Columns() []Column { return append([]Column(nil), s.cols...) }

// ColIndex returns the index of the named column, or -1.
func (s *Schema) ColIndex(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}

// TupleSize returns the on-disk size of one row in bytes.
func (s *Schema) TupleSize() int { return 8 * len(s.cols) }

// Concat returns a schema holding s's columns followed by t's, with
// t's names prefixed when they would collide. Used by joins. It
// panics when the rename still collides; planners that must reject
// such chains gracefully use ConcatChecked.
func (s *Schema) Concat(t *Schema) *Schema {
	out, err := s.ConcatChecked(t)
	if err != nil {
		panic(err)
	}
	return out
}

// ConcatChecked is Concat with the rename collision reported as an
// error instead of a panic: a right column whose "r."-prefixed name
// still clashes (e.g. a three-way join over one column name) cannot
// be represented. It is the single definition of the join output
// schema — the plan layer and the join operators must agree on it
// exactly, or column resolution would silently read wrong columns.
func (s *Schema) ConcatChecked(t *Schema) (*Schema, error) {
	cols := s.Columns()
	for _, c := range t.cols {
		name := c.Name
		for _, have := range cols {
			if have.Name == name {
				name = "r." + name
				break
			}
		}
		cols = append(cols, Column{Name: name, Type: c.Type})
	}
	return NewSchema(cols...)
}

func (s *Schema) String() string {
	parts := make([]string, len(s.cols))
	for i, c := range s.cols {
		parts[i] = c.Name + " " + c.Type.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Row is one tuple. Each element holds the raw 8-byte representation
// of its column: int64 values directly, float64 values as IEEE bits.
type Row []uint64

// NewRow allocates a zero row for the schema.
func NewRow(s *Schema) Row { return make(Row, s.NumCols()) }

// Int returns column i as an int64.
func (r Row) Int(i int) int64 { return int64(r[i]) }

// Ints returns the row's values as int64s: the same memory, not a copy,
// so Ints()[i] is Int(i) and a write through either is seen by the
// other. Its capacity is its length.
func (r Row) Ints() []int64 {
	return unsafe.Slice((*int64)(unsafe.Pointer(unsafe.SliceData(r))), len(r))
}

// Words returns b's memory as native-endian 64-bit words, len(b)/8 of
// them, the way Ints views a row: the same memory, not a copy. It
// reports false, with nil, when b does not start on an 8-byte boundary.
func Words(b []byte) ([]uint64, bool) {
	p := unsafe.Pointer(unsafe.SliceData(b))
	if len(b) < 8 || uintptr(p)%8 != 0 {
		return nil, false
	}
	return unsafe.Slice((*uint64)(p), len(b)/8), true
}

// SetInt stores an int64 into column i.
func (r Row) SetInt(i int, v int64) { r[i] = uint64(v) }

// Float returns column i as a float64.
func (r Row) Float(i int) float64 { return math.Float64frombits(r[i]) }

// SetFloat stores a float64 into column i.
func (r Row) SetFloat(i int, v float64) { r[i] = math.Float64bits(v) }

// Clone returns a copy of the row.
func (r Row) Clone() Row { return append(Row(nil), r...) }

// Concat returns a new row holding r followed by t.
func (r Row) Concat(t Row) Row {
	out := make(Row, 0, len(r)+len(t))
	out = append(out, r...)
	return append(out, t...)
}

// IntsRow builds a row from int64 values.
func IntsRow(vals ...int64) Row {
	r := make(Row, len(vals))
	for i, v := range vals {
		r[i] = uint64(v)
	}
	return r
}

// Equal reports whether two rows are bitwise identical.
func (r Row) Equal(t Row) bool {
	if len(r) != len(t) {
		return false
	}
	for i := range r {
		if r[i] != t[i] {
			return false
		}
	}
	return true
}

// RangePred is an inclusive-exclusive range predicate on an integer
// column: Lo <= col < Hi. It is the shape of the paper's stress query
// ("where c2 >= 0 and c2 < X").
type RangePred struct {
	Col int
	Lo  int64 // inclusive
	Hi  int64 // exclusive
}

// Matches reports whether the row satisfies the predicate.
func (p RangePred) Matches(r Row) bool {
	v := r.Int(p.Col)
	return v >= p.Lo && v < p.Hi
}

// All returns a predicate matching every value of the column.
func All(col int) RangePred {
	return RangePred{Col: col, Lo: math.MinInt64, Hi: math.MaxInt64}
}

// Empty reports whether the predicate matches no value at all.
func (p RangePred) Empty() bool { return p.Hi <= p.Lo }

// Intersect returns the conjunction of two predicates on the same
// column: the overlap of their ranges (possibly empty).
func (p RangePred) Intersect(q RangePred) RangePred {
	out := p
	if q.Lo > out.Lo {
		out.Lo = q.Lo
	}
	if q.Hi < out.Hi {
		out.Hi = q.Hi
	}
	return out
}

// MatchesAll reports whether the row satisfies every predicate of the
// conjunction.
func MatchesAll(preds []RangePred, r Row) bool {
	for _, p := range preds {
		if !p.Matches(r) {
			return false
		}
	}
	return true
}

func (p RangePred) String() string {
	return fmt.Sprintf("%d <= c[%d] < %d", p.Lo, p.Col, p.Hi)
}
