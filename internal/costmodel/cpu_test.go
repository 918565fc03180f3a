package costmodel

import "testing"

func cpuParams(n int64) CPUParams {
	return paperParams(n).WithCPU()
}

func TestCPUTermsAreAdditive(t *testing.T) {
	c := cpuParams(1_000_000)
	if c.FullScanTotalCost() <= c.FullScanCost() {
		t.Error("full scan CPU term missing")
	}
	card := c.Card(0.01)
	if c.IndexScanTotalCost(card) <= c.IndexScanCost(card) {
		t.Error("index scan CPU term missing")
	}
	if c.SortScanTotalCost(card) <= c.SortScanCost(card) {
		t.Error("sort scan CPU terms missing")
	}
}

func TestFullScanCPUShareMatchesPremise(t *testing.T) {
	// The paper's premise: scanning tuples costs an order of
	// magnitude less than fetching their pages. With 102 tuples/page
	// the CPU share of a full scan must stay near 10%.
	c := cpuParams(1_000_000)
	cpu := c.FullScanTotalCost() - c.FullScanCost()
	if share := cpu / c.FullScanTotalCost(); share < 0.05 || share > 0.2 {
		t.Errorf("full-scan CPU share = %v, want ~0.1", share)
	}
}

func TestSmoothScanTotalCostShape(t *testing.T) {
	c := cpuParams(1_000_000)
	// Degenerate: no results -> just the descent.
	if got := c.SmoothScanTotalCost(0); got != float64(c.Height())*c.RandCost {
		t.Errorf("zero-card cost = %v", got)
	}
	// Low cardinality: far below a full scan.
	low := c.SmoothScanTotalCost(10)
	if low >= c.FullScanTotalCost()/10 {
		t.Errorf("low-card smooth cost %v too close to full scan %v", low, c.FullScanTotalCost())
	}
	// Full selectivity: within a modest factor of the full scan
	// (leaf walk + expansion seeks + same CPU).
	high := c.SmoothScanTotalCost(c.NumTuples)
	fs := c.FullScanTotalCost()
	if high < fs || high > 1.6*fs {
		t.Errorf("full-selectivity smooth cost %v vs full scan %v", high, fs)
	}
	// Monotone in cardinality.
	prev := 0.0
	for _, sel := range []float64{0.0001, 0.001, 0.01, 0.1, 0.5, 1} {
		got := c.SmoothScanTotalCost(c.Card(sel))
		if got < prev {
			t.Errorf("not monotone at sel %v: %v < %v", sel, got, prev)
		}
		prev = got
	}
}

func TestSortCPU(t *testing.T) {
	if sortCPU(0, 1) != 0 || sortCPU(1, 1) != 0 {
		t.Error("trivial sorts should cost 0")
	}
	if sortCPU(1024, 0.0002) <= sortCPU(512, 0.0002) {
		t.Error("sort CPU not increasing")
	}
}
