package tuple

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewSchemaValidation(t *testing.T) {
	if _, err := NewSchema(); err == nil {
		t.Error("empty schema accepted")
	}
	if _, err := NewSchema(Column{Name: "", Type: Int64}); err == nil {
		t.Error("empty column name accepted")
	}
	if _, err := NewSchema(Column{Name: "a", Type: Int64}, Column{Name: "a", Type: Int64}); err == nil {
		t.Error("duplicate column name accepted")
	}
	if _, err := NewSchema(Column{Name: "a", Type: ColType(99)}); err == nil {
		t.Error("unknown column type accepted")
	}
	s, err := NewSchema(Column{Name: "a", Type: Int64}, Column{Name: "b", Type: Float64})
	if err != nil {
		t.Fatalf("valid schema rejected: %v", err)
	}
	if s.NumCols() != 2 || s.TupleSize() != 16 {
		t.Errorf("NumCols=%d TupleSize=%d", s.NumCols(), s.TupleSize())
	}
}

func TestIntsSchema(t *testing.T) {
	s := Ints(10)
	if s.NumCols() != 10 {
		t.Fatalf("NumCols = %d", s.NumCols())
	}
	if s.TupleSize() != 80 {
		t.Errorf("TupleSize = %d, want 80", s.TupleSize())
	}
	if s.ColIndex("c2") != 1 {
		t.Errorf("ColIndex(c2) = %d, want 1", s.ColIndex("c2"))
	}
	if s.ColIndex("missing") != -1 {
		t.Errorf("ColIndex(missing) = %d, want -1", s.ColIndex("missing"))
	}
	if s.Col(0).Name != "c1" || s.Col(9).Name != "c10" {
		t.Errorf("column names: %v", s.Columns())
	}
}

func TestConcatSchemaRenamesCollisions(t *testing.T) {
	a := MustSchema(Column{Name: "k", Type: Int64}, Column{Name: "v", Type: Int64})
	b := MustSchema(Column{Name: "k", Type: Int64}, Column{Name: "w", Type: Int64})
	c := a.Concat(b)
	if c.NumCols() != 4 {
		t.Fatalf("NumCols = %d", c.NumCols())
	}
	if c.ColIndex("r.k") != 2 {
		t.Errorf("collision not renamed: %v", c)
	}
	if c.ColIndex("w") != 3 {
		t.Errorf("non-colliding name changed: %v", c)
	}
}

func TestRowAccessors(t *testing.T) {
	s := MustSchema(Column{Name: "i", Type: Int64}, Column{Name: "f", Type: Float64})
	r := NewRow(s)
	r.SetInt(0, -42)
	r.SetFloat(1, 3.25)
	if r.Int(0) != -42 {
		t.Errorf("Int = %d", r.Int(0))
	}
	if r.Float(1) != 3.25 {
		t.Errorf("Float = %v", r.Float(1))
	}
}

func TestRowIntsIsAView(t *testing.T) {
	b := NewBatch(2, 2)
	b.Append(IntsRow(1, -2))
	b.Append(IntsRow(3, 4))
	v := b.Row(0).Ints()
	if len(v) != 2 || cap(v) != 2 || v[0] != 1 || v[1] != -2 {
		t.Fatalf("Ints = %v (cap %d), want [1 -2] with cap 2", v, cap(v))
	}
	v[1] = 7
	if b.Row(0).Int(1) != 7 {
		t.Error("a write through Ints is not seen by the row")
	}
	// Capacity ends at the row, so an append cannot overwrite the next.
	_ = append(v, 99)
	if b.Row(1).Int(0) != 3 {
		t.Errorf("append to Ints overwrote the next row: %v", b.Row(1))
	}
	if v := Row(nil).Ints(); len(v) != 0 {
		t.Errorf("nil row Ints = %v, want empty", v)
	}
}

func TestWordsIsAView(t *testing.T) {
	buf := make([]byte, 25)
	words, ok := Words(buf)
	if !ok || len(words) != 3 {
		t.Fatalf("Words(25 aligned bytes) = %d words, ok %v; want 3, true", len(words), ok)
	}
	words[1] = 0x0102
	if buf[8] != 0x02 && buf[15] != 0x02 {
		t.Error("a write through Words is not seen by the bytes")
	}
	if w, ok := Words(buf[1:]); ok || w != nil {
		t.Errorf("Words(misaligned) = %v, %v; want nil, false", w, ok)
	}
	if w, ok := Words(buf[:7]); ok || w != nil {
		t.Errorf("Words(7 bytes) = %v, %v; want nil, false", w, ok)
	}
}

func TestRowCloneIsIndependent(t *testing.T) {
	r := IntsRow(1, 2, 3)
	c := r.Clone()
	c.SetInt(0, 99)
	if r.Int(0) != 1 {
		t.Error("Clone aliases original")
	}
	if !r.Equal(IntsRow(1, 2, 3)) {
		t.Error("Equal failed on identical rows")
	}
	if r.Equal(c) || r.Equal(IntsRow(1, 2)) {
		t.Error("Equal true for different rows")
	}
}

func TestRowConcat(t *testing.T) {
	got := IntsRow(1, 2).Concat(IntsRow(3))
	if !got.Equal(IntsRow(1, 2, 3)) {
		t.Errorf("Concat = %v", got)
	}
}

func TestRangePred(t *testing.T) {
	p := RangePred{Col: 1, Lo: 10, Hi: 20}
	cases := []struct {
		v    int64
		want bool
	}{{9, false}, {10, true}, {15, true}, {19, true}, {20, false}, {-5, false}}
	for _, c := range cases {
		r := IntsRow(0, c.v)
		if p.Matches(r) != c.want {
			t.Errorf("Matches(%d) = %v, want %v", c.v, !c.want, c.want)
		}
	}
}

func TestAllPredicate(t *testing.T) {
	p := All(0)
	for _, v := range []int64{math.MinInt64, -1, 0, 1, math.MaxInt64 - 1} {
		if !p.Matches(IntsRow(v)) {
			t.Errorf("All(0) rejected %d", v)
		}
	}
	// Hi is exclusive, so MaxInt64 itself is excluded; acceptable for
	// generated data, which never uses MaxInt64.
	if p.Matches(IntsRow(math.MaxInt64)) {
		t.Log("All matches MaxInt64 (unexpected but harmless)")
	}
}

// Property: int64 and float64 round-trip through the raw representation.
func TestRowRoundTripProperty(t *testing.T) {
	fInt := func(v int64) bool {
		r := make(Row, 1)
		r.SetInt(0, v)
		return r.Int(0) == v
	}
	if err := quick.Check(fInt, nil); err != nil {
		t.Error(err)
	}
	fFloat := func(v float64) bool {
		r := make(Row, 1)
		r.SetFloat(0, v)
		got := r.Float(0)
		return got == v || (math.IsNaN(got) && math.IsNaN(v))
	}
	if err := quick.Check(fFloat, nil); err != nil {
		t.Error(err)
	}
}

// Property: RangePred.Matches agrees with the direct comparison.
func TestRangePredProperty(t *testing.T) {
	f := func(v, lo, hi int64) bool {
		p := RangePred{Col: 0, Lo: lo, Hi: hi}
		return p.Matches(IntsRow(v)) == (v >= lo && v < hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
