package exec

import (
	"testing"

	"smoothscan/internal/tuple"
)

func colProjectInput() (*Values, []tuple.Row) {
	schema := tuple.MustSchema(
		tuple.Column{Name: "a", Type: tuple.Int64},
		tuple.Column{Name: "b", Type: tuple.Int64},
		tuple.Column{Name: "c", Type: tuple.Int64},
	)
	var rows []tuple.Row
	for i := int64(0); i < 2500; i++ {
		rows = append(rows, tuple.IntsRow(i, i*2, i*3))
	}
	return NewValues(schema, rows), rows
}

func TestColProject(t *testing.T) {
	in, rows := colProjectInput()
	p, err := NewColProject(in, []int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Schema().String(); got != "(c int64, a int64)" {
		t.Errorf("schema = %s", got)
	}
	out, err := Drain(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(rows) {
		t.Fatalf("projected %d rows, want %d", len(out), len(rows))
	}
	for i, r := range out {
		if r.Int(0) != rows[i].Int(2) || r.Int(1) != rows[i].Int(0) {
			t.Fatalf("row %d = %v, want [%d %d]", i, r, rows[i].Int(2), rows[i].Int(0))
		}
	}
}

func TestColProjectValidatesColumns(t *testing.T) {
	in, _ := colProjectInput()
	if _, err := NewColProject(in, []int{3}); err == nil {
		t.Error("out-of-range column accepted")
	}
	if _, err := NewColProject(in, []int{-1}); err == nil {
		t.Error("negative column accepted")
	}
}

func TestHashAggNamed(t *testing.T) {
	schema := tuple.Ints(2)
	rows := []tuple.Row{
		tuple.IntsRow(1, 10),
		tuple.IntsRow(2, 20),
		tuple.IntsRow(1, 30),
	}
	agg := NewHashAggNamed(NewValues(schema, rows), nil, 0, "bucket", []AggSpec{
		{Name: "total", Col: 1, Kind: AggSum},
	})
	if got := agg.Schema().String(); got != "(bucket int64, total int64)" {
		t.Errorf("schema = %s", got)
	}
	out, err := Drain(agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].Int(1) != 40 || out[1].Int(1) != 20 {
		t.Errorf("groups = %v", out)
	}
}
