package simcost

import "testing"

func TestSortCost(t *testing.T) {
	if SortCost(0) != 0 || SortCost(1) != 0 {
		t.Error("trivial sorts should cost nothing")
	}
	// 8 items, log2 = 3: 8*3*Compare.
	if got, want := SortCost(8), 8*3*Compare; got != want {
		t.Errorf("SortCost(8) = %v, want %v", got, want)
	}
	if SortCost(1000) <= SortCost(100) {
		t.Error("SortCost not increasing")
	}
}

func TestUnits(t *testing.T) {
	// The tick constants convert to exactly the float64 literals the
	// cost model was written with.
	for _, c := range []struct {
		t    Ticks
		want float64
	}{{Tuple, 0.001}, {Compare, 0.0002}, {Hash, 0.0005}, {Aggregate, 0.0003}} {
		if got := c.t.Units(); got != c.want {
			t.Errorf("Ticks(%d).Units() = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestTupleCostRatio(t *testing.T) {
	// Scanning a full page of ~100 tuples must stay well below the
	// cost of one sequential page read (1 unit), preserving the
	// paper's CPU-vs-I/O premise.
	if c := (102 * Tuple).Units(); c >= 0.5 {
		t.Errorf("per-page CPU cost %v too close to I/O cost", c)
	}
}
