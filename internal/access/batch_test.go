package access

import (
	"fmt"
	"testing"

	"smoothscan/internal/tuple"
)

// drainBatch runs an operator to completion with the given batch
// capacity, cloning rows out.
func drainBatch(t *testing.T, op operator, batchCap int) []tuple.Row {
	t.Helper()
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	b := tuple.NewBatchFor(op.Schema(), batchCap)
	var out []tuple.Row
	for {
		n, err := op.NextBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		for i := 0; i < n; i++ {
			out = append(out, b.Row(i).Clone())
		}
	}
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestBatchedAccessPathEquivalence is the capacity-invariance test of
// the traditional access paths: whatever batch capacity the consumer
// pulls with, each path returns exactly the rows of a one-row-per-pull
// drain in the same order and leaves bit-identical device statistics
// (I/O requests, random/sequential split, simulated I/O and CPU time).
func TestBatchedAccessPathEquivalence(t *testing.T) {
	const numRows = 500
	gen := func(i int64) int64 { return (i * 89) % numRows }
	preds := map[string]tuple.RangePred{
		"narrow": {Col: 1, Lo: 10, Hi: 35},
		"wide":   {Col: 1, Lo: 0, Hi: 400},
		"all":    {Col: 1, Lo: 0, Hi: numRows},
	}
	paths := map[string]func(fx *fixture, pred tuple.RangePred) operator{
		"full": func(fx *fixture, pred tuple.RangePred) operator { return NewFullScan(fx.file, fx.pool, pred) },
		"index": func(fx *fixture, pred tuple.RangePred) operator {
			return NewIndexScan(fx.file, fx.pool, fx.tree, pred)
		},
		"sort": func(fx *fixture, pred tuple.RangePred) operator {
			return NewSortScan(fx.file, fx.pool, fx.tree, pred, true, 0)
		},
		"switch": func(fx *fixture, pred tuple.RangePred) operator {
			return NewSwitchScan(fx.file, fx.pool, fx.tree, pred, 20)
		},
	}
	for pathName, mk := range paths {
		for predName, pred := range preds {
			for _, batchCap := range []int{1, 9, 128, 1024} {
				name := fmt.Sprintf("%s/%s/batch=%d", pathName, predName, batchCap)
				t.Run(name, func(t *testing.T) {
					fxA := newFixture(t, numRows, 24, gen)
					want := drain(t, mk(fxA, pred))

					fxB := newFixture(t, numRows, 24, gen)
					got := drainBatch(t, mk(fxB, pred), batchCap)

					if !rowsEqual(want, got) {
						t.Fatalf("rows differ: batch=1 %d, batch=%d %d", len(want), batchCap, len(got))
					}
					if sa, sb := fxA.dev.Stats(), fxB.dev.Stats(); sa != sb {
						t.Errorf("device stats differ:\n batch=1: %+v\n batch=%d: %+v", sa, batchCap, sb)
					}
				})
			}
		}
	}
}
