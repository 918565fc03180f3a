package optimizer

import (
	"math"
	"testing"
	"testing/quick"

	"smoothscan/internal/costmodel"
	"smoothscan/internal/disk"
	"smoothscan/internal/heap"
	"smoothscan/internal/plan"
	"smoothscan/internal/tuple"
)

func TestHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(10, 5, 4); err == nil {
		t.Error("inverted domain accepted")
	}
	if _, err := NewHistogram(0, 10, 0); err == nil {
		t.Error("zero buckets accepted")
	}
}

func TestHistogramUniformEstimates(t *testing.T) {
	h, err := NewHistogram(0, 99, 10)
	if err != nil {
		t.Fatal(err)
	}
	for v := int64(0); v < 100; v++ {
		h.Add(v)
	}
	cases := []struct {
		lo, hi int64
		want   float64
	}{
		{0, 100, 1.0},
		{0, 50, 0.5},
		{25, 75, 0.5},
		{0, 10, 0.1},
		{90, 200, 0.1}, // clipped at domain top
		{50, 50, 0},
		{-100, 0, 0},
	}
	for _, c := range cases {
		got := h.EstimateRange(c.lo, c.hi)
		if math.Abs(got-c.want) > 0.02 {
			t.Errorf("EstimateRange(%d,%d) = %v, want %v", c.lo, c.hi, got, c.want)
		}
	}
}

func TestHistogramSkewedEstimates(t *testing.T) {
	h, err := NewHistogram(0, 99, 10)
	if err != nil {
		t.Fatal(err)
	}
	// 90% of the mass in [0,10).
	for i := 0; i < 900; i++ {
		h.Add(int64(i % 10))
	}
	for i := 0; i < 100; i++ {
		h.Add(int64(10 + i%90))
	}
	if got := h.EstimateRange(0, 10); math.Abs(got-0.9) > 0.05 {
		t.Errorf("dense bucket estimate = %v, want ~0.9", got)
	}
	if got := h.EstimateRange(50, 60); got > 0.05 {
		t.Errorf("sparse range estimate = %v, want small", got)
	}
}

func TestHistogramOutOfDomainValues(t *testing.T) {
	h, err := NewHistogram(0, 9, 2)
	if err != nil {
		t.Fatal(err)
	}
	h.Add(-5) // clamped into first bucket
	h.Add(50) // clamped into last bucket
	if h.Total() != 2 {
		t.Errorf("Total = %d", h.Total())
	}
}

func loadFile(t *testing.T, gen func(i int64) int64, n int64) (*heap.File, *disk.Device) {
	t.Helper()
	dev := disk.NewDevice(disk.Profile{Name: "t", RandCost: 10, SeqCost: 1, PageSize: 256})
	file, err := heap.Create(dev, tuple.Ints(2))
	if err != nil {
		t.Fatal(err)
	}
	b := file.NewBuilder()
	for i := int64(0); i < n; i++ {
		if err := b.Append(tuple.IntsRow(i, gen(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	return file, dev
}

func TestCollectStats(t *testing.T) {
	file, dev := loadFile(t, func(i int64) int64 { return i % 100 }, 1000)
	stats, err := CollectStats(file, func(p int64) ([]byte, error) { return dev.ReadPage(file.Space(), p) }, []int{1}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if stats.NumTuples != 1000 || stats.NumPages != file.NumPages() {
		t.Errorf("counts: %+v", stats)
	}
	pred := tuple.RangePred{Col: 1, Lo: 0, Hi: 10}
	if got := stats.EstimateSelectivity(pred); math.Abs(got-0.1) > 0.02 {
		t.Errorf("selectivity = %v, want ~0.1", got)
	}
	if got := stats.EstimateCard(pred); got < 80 || got > 120 {
		t.Errorf("card = %d, want ~100", got)
	}
}

func TestDefaultStatsUniformityAssumption(t *testing.T) {
	stats := DefaultStats(1000, 10, map[int][2]int64{1: {0, 99}})
	pred := tuple.RangePred{Col: 1, Lo: 0, Hi: 50}
	if got := stats.EstimateSelectivity(pred); math.Abs(got-0.5) > 0.01 {
		t.Errorf("uniform estimate = %v, want 0.5", got)
	}
	// Unknown column: magic constant.
	if got := stats.EstimateSelectivity(tuple.RangePred{Col: 0, Lo: 0, Hi: 1}); got != 1.0/3 {
		t.Errorf("magic constant = %v, want 1/3", got)
	}
}

func TestDefaultStatsWrongOnSkew(t *testing.T) {
	// The motivation of the whole paper: with skew, the uniformity
	// assumption is badly wrong.
	file, dev := loadFile(t, func(i int64) int64 {
		if i < 900 {
			return 0
		}
		return i % 100
	}, 1000)
	real, err := CollectStats(file, func(p int64) ([]byte, error) { return dev.ReadPage(file.Space(), p) }, []int{1}, 20)
	if err != nil {
		t.Fatal(err)
	}
	fake := DefaultStats(1000, file.NumPages(), map[int][2]int64{1: {0, 99}})
	pred := tuple.RangePred{Col: 1, Lo: 0, Hi: 5}
	realSel := real.EstimateSelectivity(pred)
	fakeSel := fake.EstimateSelectivity(pred)
	if realSel < 0.85 {
		t.Errorf("real stats missed the skew: %v", realSel)
	}
	if fakeSel > 0.1 {
		t.Errorf("default stats should underestimate: %v", fakeSel)
	}
}

func params(n int64) costmodel.Params {
	return costmodel.Params{TupleSize: 80, PageSize: 8192, KeySize: 8, NumTuples: n, RandCost: 10, SeqCost: 1}
}

func TestChooseAccessPathLowSelectivity(t *testing.T) {
	stats := DefaultStats(10_000_000, 98040, map[int][2]int64{1: {0, 100_000}})
	pred := tuple.RangePred{Col: 1, Lo: 0, Hi: 1} // ~0.001% estimated
	c := ChooseAccessPath(params(10_000_000), stats, pred, true, false)
	if c.Path == plan.PathFull {
		t.Errorf("full scan chosen at 0.001%% selectivity")
	}
	if c.EstimatedCard <= 0 {
		t.Errorf("estimated card = %d", c.EstimatedCard)
	}
}

func TestChooseAccessPathHighSelectivity(t *testing.T) {
	stats := DefaultStats(10_000_000, 98040, map[int][2]int64{1: {0, 100_000}})
	pred := tuple.RangePred{Col: 1, Lo: 0, Hi: 50_000} // ~50%
	c := ChooseAccessPath(params(10_000_000), stats, pred, true, false)
	if c.Path != plan.PathFull {
		t.Errorf("path = %v, want full-scan at 50%%", c.Path)
	}
}

func TestChooseAccessPathNoIndex(t *testing.T) {
	stats := DefaultStats(10_000_000, 98040, map[int][2]int64{1: {0, 100_000}})
	pred := tuple.RangePred{Col: 1, Lo: 0, Hi: 1}
	c := ChooseAccessPath(params(10_000_000), stats, pred, false, false)
	if c.Path != plan.PathFull {
		t.Errorf("path = %v without an index", c.Path)
	}
}

func TestMisestimationFlipsDecision(t *testing.T) {
	// The Figure 1 mechanism: the data is skewed so the true
	// cardinality is huge, but default stats estimate it tiny, so the
	// optimizer picks an index scan whose true cost is catastrophic.
	p := params(10_000_000)
	fake := DefaultStats(10_000_000, p.Pages(), map[int][2]int64{1: {0, 10_000_000}})
	pred := tuple.RangePred{Col: 1, Lo: 0, Hi: 100} // est. 0.001%, true (say) 50%
	c := ChooseAccessPath(p, fake, pred, true, false)
	if c.Path == plan.PathFull {
		t.Fatalf("misestimate did not flip the choice")
	}
	trueCard := p.Card(0.5)
	trueCost := p.IndexScanCost(trueCard)
	if trueCost < 20*p.FullScanCost() {
		t.Errorf("regression factor only %v", trueCost/p.FullScanCost())
	}
}

// Property: equi-width histogram error is bounded by the mass of the
// two buckets the range boundaries fall into (within-bucket uniformity
// is the only approximation).
func TestHistogramAccuracyProperty(t *testing.T) {
	const buckets = 16
	f := func(vals []uint16, loRaw, width uint8) bool {
		if len(vals) == 0 {
			return true
		}
		h, err := NewHistogram(0, 255, buckets)
		if err != nil {
			return false
		}
		trueCount := 0
		boundary := map[int]bool{}
		lo := int64(loRaw)
		hi := lo + int64(width)
		boundary[h.bucketOf(lo)] = true
		if hi <= 255 {
			boundary[h.bucketOf(hi)] = true
		}
		boundaryMass := 0
		for _, v := range vals {
			x := int64(v % 256)
			h.Add(x)
			if x >= lo && x < hi {
				trueCount++
			}
			if boundary[h.bucketOf(x)] {
				boundaryMass++
			}
		}
		got := h.EstimateRange(lo, hi)
		want := float64(trueCount) / float64(len(vals))
		bound := float64(boundaryMass)/float64(len(vals)) + 1e-9
		return math.Abs(got-want) <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
