package costmodel

import (
	"math"

	"smoothscan/internal/simcost"
)

// CPU-inclusive cost model.
//
// Section V models I/O only and notes that "a detailed cost model
// including the CPU costs can be found in [the technical report]".
// This file supplies that extension: per-tuple processing and per-
// comparison sort costs on top of the I/O terms, using the same cost
// constants the simulation charges (internal/simcost), so predictions
// are directly comparable with measured engine time.

// ResidentProbeSlots is what following one index pointer to a tuple
// costs in wall-clock when the buffer pool already holds its page,
// counted in the slots an Entire Page Probe tests in the same time. The
// Entire Page Probe trades that CPU for I/O, and a resident page saves
// none, so an unordered Smooth Scan probes a resident page it has not
// analysed pointer by pointer while fewer than one examined slot in
// ResidentProbeSlots has qualified (core.SmoothScan). It is a property
// of this engine's code on its host, not a simulated cost: the time
// per pointer of the index scan over the time per slot of the full
// scan, both with the pool holding the table, in the root
// BenchmarkSmoothScanWarmPool. Over ten runs on a 2-vCPU Xeon
// (go1.24.0) its 1 % cells (index 263 µs for ~2 085 pointers, full
// 1 091 µs for 200 000 slots) put the ratio at 23.3, and its 5 % cells
// (1 338 µs for ~10 120 pointers, 1 296 µs) at 19.8, medians of the
// per-run ratios. Near the break-even both paths cost about the same,
// so an imprecise value costs little.
const ResidentProbeSlots = 20

// CPUParams extends Params with CPU cost rates (cost units per
// operation; one sequential page read = 1 unit).
type CPUParams struct {
	Params
	// TupleCPU is the cost of decoding one tuple and evaluating the
	// predicate on it.
	TupleCPU float64
	// CompareCPU is the cost of one comparison during sorting.
	CompareCPU float64
}

// WithCPU attaches the simulation's CPU rates (simcost.Tuple and
// simcost.Compare, in cost units) to I/O parameters.
func (p Params) WithCPU() CPUParams {
	return CPUParams{Params: p, TupleCPU: simcost.Tuple.Units(), CompareCPU: simcost.Compare.Units()}
}

// FullScanTotalCost is the full scan's I/O plus examining every tuple.
func (c CPUParams) FullScanTotalCost() float64 {
	return c.FullScanCost() + float64(c.NumTuples)*c.TupleCPU
}

// IndexScanTotalCost is the index scan's I/O plus per-result decoding.
func (c CPUParams) IndexScanTotalCost(card int64) float64 {
	return c.IndexScanCost(card) + float64(card)*c.TupleCPU
}

// SortScanTotalCost adds the TID pre-sort and per-result decoding to
// the sort scan's I/O.
func (c CPUParams) SortScanTotalCost(card int64) float64 {
	return c.SortScanCost(card) + sortCPU(card, c.CompareCPU) + float64(card)*c.TupleCPU
}

// SmoothScanTotalCost predicts an Eager smooth scan at the given
// result cardinality over a uniformly spread table: Eq. 23 I/O for the
// mode split (one page in Mode 1, the rest flattened), plus the
// engine-visible terms Section V leaves out (result-leaf walk,
// expansion seeks) and the CPU to analyse every tuple of every fetched
// page (the Entire-Page-Probe trade of CPU for I/O).
func (c CPUParams) SmoothScanTotalCost(card int64) float64 {
	if card <= 0 {
		return float64(c.Height()) * c.RandCost
	}
	m1 := min(card, 1)
	io := c.SmoothScanCost(0, m1, card-m1)
	io += float64(c.LeavesRes(card)) * c.SeqCost
	io += 2 * float64(Mode2RandIOMin(c.PagesWithResults(card))) * c.RandCost
	pagesFetched := c.Mode2Pages(m1, card-m1) + m1
	examined := pagesFetched * c.TuplesPerPage()
	return io + float64(examined)*c.TupleCPU
}

func sortCPU(n int64, perCompare float64) float64 {
	if n < 2 {
		return 0
	}
	return float64(n) * math.Log2(float64(n)) * perCompare
}
