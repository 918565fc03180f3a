package exec

import (
	"testing"

	"smoothscan/internal/tuple"
)

// TestPutBatchKeepsOnlyExactBatches: the pool takes a DefaultBatchSize
// batch holding an array of exactly its size, and refuses other
// capacities, widths past maxPooledWidth, and a batch whose array a
// TrySwap replaced, whether or not appends grew it since.
func TestPutBatchKeepsOnlyExactBatches(t *testing.T) {
	// swapped returns a pooled-size batch that handed its one row, and
	// its array, to the empty consumer c in exchange for c's array.
	swapped := func(c *tuple.Batch) *tuple.Batch {
		b := tuple.NewBatch(2, DefaultBatchSize)
		b.Append(tuple.IntsRow(1, 2))
		if !c.TrySwap(b) {
			t.Fatal("TrySwap refused")
		}
		return b
	}
	grown := swapped(tuple.NewBatch(2, 8))
	for !grown.Full() {
		grown.AppendSlot()
	}
	cases := []struct {
		name string
		b    *tuple.Batch
		want bool
	}{
		{"exact", tuple.NewBatch(2, DefaultBatchSize), true},
		{"swapped exact array", swapped(tuple.NewBatch(2, DefaultBatchSize)), true},
		{"other capacity", tuple.NewBatch(2, DefaultBatchSize/2), false},
		{"too wide", tuple.NewBatch(maxPooledWidth+1, DefaultBatchSize), false},
		{"growable", tuple.NewGrowableBatch(2), false},
		{"swapped smaller array", swapped(tuple.NewBatch(2, 8)), false},
		{"swapped array grown", grown, false},
		{"swapped oversized array", swapped(tuple.NewBatch(2, 2*DefaultBatchSize)), false},
		{"swapped growable array", swapped(tuple.NewGrowableBatch(2)), false},
	}
	for _, c := range cases {
		if got := PutBatch(c.b); got != c.want {
			t.Errorf("%s: PutBatch = %v, want %v", c.name, got, c.want)
		}
	}
}
