// Package optimizer implements the slice of a query optimizer the
// paper's experiments exercise: per-column statistics (equi-width
// histograms), cardinality estimation for range predicates, and
// cost-based access-path selection between Full Scan, Index Scan and
// Sort Scan using the Section V cost model.
//
// Because the whole point of the paper is what happens when statistics
// are missing or stale, the package also provides the two classic ways
// estimates go wrong: default statistics (the uniformity and
// independence assumptions commercial systems fall back on) and stale
// statistics (built before the data changed). The Figure 1 experiment
// feeds these into access-path selection to reproduce tuning-induced
// regressions.
package optimizer

import (
	"fmt"
	"math"

	"smoothscan/internal/costmodel"
	"smoothscan/internal/heap"
	"smoothscan/internal/plan"
	"smoothscan/internal/tuple"
)

// Histogram is an equi-width histogram over an integer column.
type Histogram struct {
	lo, hi  int64 // value domain [lo, hi]
	buckets []int64
	total   int64
}

// NewHistogram creates an empty histogram with the given bucket count
// over [lo, hi].
func NewHistogram(lo, hi int64, buckets int) (*Histogram, error) {
	if hi < lo {
		return nil, fmt.Errorf("optimizer: histogram domain [%d,%d] inverted", lo, hi)
	}
	if buckets <= 0 {
		return nil, fmt.Errorf("optimizer: %d buckets", buckets)
	}
	return &Histogram{lo: lo, hi: hi, buckets: make([]int64, buckets)}, nil
}

// Add records one value.
func (h *Histogram) Add(v int64) {
	h.buckets[h.bucketOf(v)]++
	h.total++
}

func (h *Histogram) bucketOf(v int64) int {
	if v < h.lo {
		return 0
	}
	if v > h.hi {
		return len(h.buckets) - 1
	}
	span := h.hi - h.lo + 1
	idx := int((v - h.lo) * int64(len(h.buckets)) / span)
	if idx >= len(h.buckets) {
		idx = len(h.buckets) - 1
	}
	return idx
}

// Total returns the number of recorded values.
func (h *Histogram) Total() int64 { return h.total }

// EstimateRange estimates the selectivity of lo <= v < hi, assuming
// uniformity within buckets.
func (h *Histogram) EstimateRange(lo, hi int64) float64 {
	if h.total == 0 || hi <= lo {
		return 0
	}
	span := h.hi - h.lo + 1
	bucketWidth := float64(span) / float64(len(h.buckets))
	var count float64
	for i, c := range h.buckets {
		bLo := float64(h.lo) + float64(i)*bucketWidth
		bHi := bLo + bucketWidth
		// Overlap of [lo, hi) with [bLo, bHi).
		oLo := math.Max(float64(lo), bLo)
		oHi := math.Min(float64(hi), bHi)
		if oHi <= oLo {
			continue
		}
		count += float64(c) * (oHi - oLo) / bucketWidth
	}
	sel := count / float64(h.total)
	if sel < 0 {
		sel = 0
	}
	if sel > 1 {
		sel = 1
	}
	return sel
}

// TableStats carries the optimizer's knowledge of one table.
type TableStats struct {
	// NumTuples and NumPages as the optimizer believes them.
	NumTuples int64
	NumPages  int64
	// Histograms per column index; a missing column falls back to the
	// uniformity assumption over the domain recorded in Domains.
	Histograms map[int]*Histogram
	// Domains records assumed [lo, hi] per column for the fallback.
	Domains map[int][2]int64
}

// CollectStats scans the heap file (a maintenance operation, not part
// of any measured query) and builds accurate statistics with the given
// histogram resolution.
func CollectStats(file *heap.File, read func(pageNo int64) ([]byte, error), cols []int, buckets int) (*TableStats, error) {
	// First pass: domains.
	mins := map[int]int64{}
	maxs := map[int]int64{}
	for _, c := range cols {
		mins[c] = math.MaxInt64
		maxs[c] = math.MinInt64
	}
	row := tuple.NewRow(file.Schema())
	var pages [][]byte
	for pageNo := int64(0); pageNo < file.NumPages(); pageNo++ {
		page, err := read(pageNo)
		if err != nil {
			return nil, err
		}
		pages = append(pages, page)
		n := heap.PageTupleCount(page)
		for s := 0; s < n; s++ {
			row = file.DecodeRow(page, s, row)
			for _, c := range cols {
				v := row.Int(c)
				if v < mins[c] {
					mins[c] = v
				}
				if v > maxs[c] {
					maxs[c] = v
				}
			}
		}
	}
	stats := &TableStats{
		NumTuples:  file.NumTuples(),
		NumPages:   file.NumPages(),
		Histograms: map[int]*Histogram{},
		Domains:    map[int][2]int64{},
	}
	for _, c := range cols {
		lo, hi := mins[c], maxs[c]
		if file.NumTuples() == 0 {
			lo, hi = 0, 0
		}
		h, err := NewHistogram(lo, hi, buckets)
		if err != nil {
			return nil, err
		}
		stats.Histograms[c] = h
		stats.Domains[c] = [2]int64{lo, hi}
	}
	for _, page := range pages {
		n := heap.PageTupleCount(page)
		for s := 0; s < n; s++ {
			row = file.DecodeRow(page, s, row)
			for _, c := range cols {
				stats.Histograms[c].Add(row.Int(c))
			}
		}
	}
	return stats, nil
}

// DefaultStats returns the statistics a system falls back on with no
// ANALYZE run: the declared tuple count and a uniformity assumption
// over the declared column domains — no histograms at all.
func DefaultStats(numTuples, numPages int64, domains map[int][2]int64) *TableStats {
	return &TableStats{
		NumTuples:  numTuples,
		NumPages:   numPages,
		Histograms: map[int]*Histogram{},
		Domains:    domains,
	}
}

// EstimateSelectivity estimates the fraction of tuples matching the
// predicate, using the column histogram when present and the
// uniformity assumption otherwise.
func (s *TableStats) EstimateSelectivity(pred tuple.RangePred) float64 {
	if h, ok := s.Histograms[pred.Col]; ok {
		return h.EstimateRange(pred.Lo, pred.Hi)
	}
	dom, ok := s.Domains[pred.Col]
	if !ok || dom[1] < dom[0] {
		// Nothing known: the classic magic constant for a range
		// predicate (System R used 1/3; PostgreSQL uses similar
		// defaults).
		return 1.0 / 3
	}
	span := float64(dom[1]-dom[0]) + 1
	lo := math.Max(float64(pred.Lo), float64(dom[0]))
	hi := math.Min(float64(pred.Hi), float64(dom[1])+1)
	if hi <= lo {
		return 0
	}
	return (hi - lo) / span
}

// EstimateCard returns the estimated result cardinality.
func (s *TableStats) EstimateCard(pred tuple.RangePred) int64 {
	return int64(math.Round(s.EstimateSelectivity(pred) * float64(s.NumTuples)))
}

// Choice is the optimizer's decision for one table access.
type Choice struct {
	// Path is one of the traditional paths: full, index or sort scan.
	Path plan.Path
	// EstimatedCard is the cardinality estimate that drove the
	// decision — the value the OptimizerDriven Smooth Scan trigger
	// monitors.
	EstimatedCard int64
	// EstimatedCost in I/O cost units.
	EstimatedCost float64
}

// ChooseAccessPath picks the cheapest access path for the predicate
// under the Section V cost model and the (possibly wrong) statistics.
// hasIndex reports whether pred.Col has a secondary index; ordered
// requires index-key output order, adding a posterior sort penalty to
// the paths that do not deliver it.
func ChooseAccessPath(params costmodel.Params, stats *TableStats, pred tuple.RangePred, hasIndex, ordered bool) Choice {
	card := stats.EstimateCard(pred)
	// Sort penalty for paths that destroy the interesting order,
	// charged in CPU-equivalent cost units (n log2 n comparisons).
	sortPenalty := 0.0
	if ordered && card > 1 {
		sortPenalty = float64(card) * math.Log2(float64(card)) * 0.0002
	}
	best := Choice{Path: plan.PathFull, EstimatedCard: card, EstimatedCost: params.FullScanCost() + sortPenalty}
	if hasIndex {
		if c := params.IndexScanCost(card); c < best.EstimatedCost {
			best = Choice{Path: plan.PathIndex, EstimatedCard: card, EstimatedCost: c}
		}
		if c := params.SortScanCost(card) + sortPenalty; c < best.EstimatedCost {
			best = Choice{Path: plan.PathSort, EstimatedCard: card, EstimatedCost: c}
		}
	}
	return best
}
