package exec

import (
	"testing"

	"smoothscan/internal/tuple"
)

// mapLookup is an in-memory Lookup: key -> rows.
type mapLookup struct {
	schema *tuple.Schema
	rows   map[int64][]tuple.Row
}

func (l mapLookup) Schema() *tuple.Schema               { return l.schema }
func (l mapLookup) Find(key int64) ([]tuple.Row, error) { return l.rows[key], nil }

// fanoutLookup returns, for key k, fanout(k) rows (k, 0) .. (k, fanout-1);
// name prefixes its two columns so nested joins concatenate cleanly.
func fanoutLookup(name string, keys int64, fanout func(k int64) int64) mapLookup {
	schema := tuple.MustSchema(
		tuple.Column{Name: name + "k", Type: tuple.Int64},
		tuple.Column{Name: name + "i", Type: tuple.Int64},
	)
	l := mapLookup{schema: schema, rows: map[int64][]tuple.Row{}}
	for k := int64(0); k < keys; k++ {
		for i := int64(0); i < fanout(k); i++ {
			l.rows[k] = append(l.rows[k], tuple.IntsRow(k, i))
		}
	}
	return l
}

// naiveINLJ is the reference: for each outer row in order, its matches
// in Find order.
func naiveINLJ(t *testing.T, outer []tuple.Row, inner Lookup, col int) []tuple.Row {
	t.Helper()
	var out []tuple.Row
	for _, o := range outer {
		ms, err := inner.Find(o.Int(col))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ms {
			out = append(out, o.Concat(m))
		}
	}
	return out
}

// capRecorder wraps an operator and records the fill capacity of every
// batch it is asked to fill.
type capRecorder struct {
	Operator
	caps []int
}

func (r *capRecorder) NextBatch(b *tuple.Batch) (int, error) {
	r.caps = append(r.caps, b.FillCap())
	return r.Operator.NextBatch(b)
}

func seqRows(n int64) []tuple.Row {
	rows := make([]tuple.Row, n)
	for i := range rows {
		rows[i] = tuple.IntsRow(int64(i))
	}
	return rows
}

// TestINLJPullsOuterOneRowAtATime pins the one-row outer pull: however
// wide the consumer's batch, every NextBatch an IndexNestedLoopJoin
// sends down has fill capacity 1 — to a leaf directly, through a Filter
// (Q4's shape) and to a nested IndexNestedLoopJoin and its leaf (Q7's
// shape). Widening the pull would let the outer scan run ahead of the
// inner look-ups and reorder their requests on the shared disk head.
func TestINLJPullsOuterOneRowAtATime(t *testing.T) {
	inner := fanoutLookup("a", 50, func(k int64) int64 { return k % 3 })
	inner2 := fanoutLookup("b", 50, func(k int64) int64 { return 2 })
	shapes := map[string]func(leaf Operator) (Operator, []*capRecorder){
		"direct": func(leaf Operator) (Operator, []*capRecorder) {
			return NewIndexNestedLoopJoin(leaf, inner, 0), nil
		},
		"filter": func(leaf Operator) (Operator, []*capRecorder) {
			f := NewFilter(leaf, nil, func(r tuple.Row) bool { return r.Int(0)%2 == 1 })
			return NewIndexNestedLoopJoin(f, inner, 0), nil
		},
		"nested": func(leaf Operator) (Operator, []*capRecorder) {
			mid := &capRecorder{Operator: NewIndexNestedLoopJoin(leaf, inner, 0)}
			return NewIndexNestedLoopJoin(mid, inner2, 0), []*capRecorder{mid}
		},
	}
	for name, mk := range shapes {
		leaf := &capRecorder{Operator: NewValues(tuple.Ints(1), seqRows(50))}
		op, recs := mk(leaf)
		got, err := Drain(op) // DefaultBatchSize consumer
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 {
			t.Fatalf("%s: no rows", name)
		}
		for _, rec := range append(recs, leaf) {
			if len(rec.caps) < 50 {
				t.Fatalf("%s: only %d pulls recorded", name, len(rec.caps))
			}
			for i, c := range rec.caps {
				if c != 1 {
					t.Fatalf("%s: pull %d had fill capacity %d, want 1", name, i, c)
				}
			}
		}
	}
}

// TestINLJResumesAcrossOutputBatches gives outer rows more matches than
// the output batch holds: the match list resumes on the next call with
// no row lost or repeated, at every capacity, and a reopen after a
// partial drain starts clean.
func TestINLJResumesAcrossOutputBatches(t *testing.T) {
	outer := seqRows(12)
	inner := fanoutLookup("a", 12, func(k int64) int64 { return []int64{0, 1, 7, 20}[k%4] })
	want := naiveINLJ(t, outer, inner, 0)
	j := NewIndexNestedLoopJoin(NewValues(tuple.Ints(1), outer), inner, 0)
	for _, batchCap := range []int{1, 3, 7, 1024} {
		if got := drainBatched(t, j, batchCap); !joinRowsEqual(got, want) {
			t.Errorf("batch=%d: %d rows, want %d (or order differs)", batchCap, len(got), len(want))
		}
	}

	// Partial drain, stopping inside key 2's seven matches.
	if err := j.Open(); err != nil {
		t.Fatal(err)
	}
	if n, err := j.NextBatch(tuple.NewBatchFor(j.Schema(), 4)); err != nil || n != 4 {
		t.Fatalf("partial pull = %d, %v", n, err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got := drainBatched(t, j, 5); !joinRowsEqual(got, want) {
		t.Errorf("reopen after partial drain: %d rows, want %d", len(got), len(want))
	}
}

// TestINLJLookupInnersMatchNaiveJoin runs the real inners — IndexLookup
// and MorphingLookup over a heap table — under the join and compares
// with the naive join over a fresh inner of the same kind.
func TestINLJLookupInnersMatchNaiveJoin(t *testing.T) {
	file, pool, tree, _, _ := lookupFixture(t)
	var outer []tuple.Row
	for i := int64(0); i < 80; i++ {
		outer = append(outer, tuple.IntsRow(i%40, i)) // keys 30..39 match nothing
	}
	for name, mk := range map[string]func() Lookup{
		"index":    func() Lookup { return NewIndexLookup(file, pool, tree) },
		"morphing": func() Lookup { return NewMorphingLookup(file, pool, tree, 1) },
	} {
		want := naiveINLJ(t, outer, mk(), 0)
		for _, batchCap := range []int{1, 64} {
			j := NewIndexNestedLoopJoin(NewValues(tuple.Ints(2), outer), mk(), 0)
			got := drainBatched(t, j, batchCap)
			// MorphingLookup's per-key row order depends on which pages
			// earlier probes analysed, so compare as multisets.
			normalise(got)
			w := append([]tuple.Row(nil), want...)
			normalise(w)
			if !joinRowsEqual(got, w) {
				t.Errorf("%s batch=%d: %d rows, want %d", name, batchCap, len(got), len(w))
			}
		}
	}
}
