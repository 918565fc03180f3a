// Package costmodel implements the analytical cost model of Section V
// of the Smooth Scan paper: Equations 3–23, expressed in units of disk
// I/O cost (random and sequential page accesses), plus the
// competitive-ratio analysis summarised in Section V-A.
//
// The model is used three ways, mirroring the paper:
//   - to predict access-path costs (the optimizer's costing),
//   - to compute the SLA-driven morphing trigger (Section III-C), and
//   - to bound worst-case suboptimality (competitive analysis).
package costmodel

import (
	"fmt"
	"math"
)

// Params are the inputs of Table I.
type Params struct {
	// TupleSize is TS: tuple size in bytes, including overhead.
	TupleSize int
	// PageSize is PS in bytes; heap and index pages share it.
	PageSize int
	// KeySize is KS: indexing key size in bytes.
	KeySize int
	// NumTuples is #T.
	NumTuples int64
	// RandCost and SeqCost are the per-page access costs.
	RandCost float64
	SeqCost  float64
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	switch {
	case p.TupleSize <= 0 || p.PageSize <= 0 || p.KeySize <= 0:
		return fmt.Errorf("costmodel: sizes must be positive: %+v", p)
	case p.TupleSize > p.PageSize:
		return fmt.Errorf("costmodel: tuple size %d exceeds page size %d", p.TupleSize, p.PageSize)
	case p.NumTuples < 0:
		return fmt.Errorf("costmodel: negative tuple count %d", p.NumTuples)
	case p.RandCost <= 0 || p.SeqCost <= 0:
		return fmt.Errorf("costmodel: costs must be positive: %+v", p)
	}
	return nil
}

// TuplesPerPage is Eq. 3: #TP = floor(PS/TS).
func (p Params) TuplesPerPage() int64 { return int64(p.PageSize / p.TupleSize) }

// Pages is Eq. 4: #P = ceil(#T / #TP).
func (p Params) Pages() int64 {
	tp := p.TuplesPerPage()
	if tp == 0 || p.NumTuples == 0 {
		return 0
	}
	return (p.NumTuples + tp - 1) / tp
}

// Fanout is Eq. 5: fanout = floor(PS / (1.2*KS)) — 20% extra space per
// key for the child pointer.
func (p Params) Fanout() int64 { return int64(float64(p.PageSize) / (1.2 * float64(p.KeySize))) }

// Leaves is Eq. 6: #leaves = ceil(#T / fanout).
func (p Params) Leaves() int64 {
	f := p.Fanout()
	if f == 0 || p.NumTuples == 0 {
		return 0
	}
	return (p.NumTuples + f - 1) / f
}

// Height is Eq. 7: height = ceil(log_fanout(#leaves)) + 1.
func (p Params) Height() int64 {
	leaves := p.Leaves()
	if leaves <= 1 {
		return 1
	}
	f := float64(p.Fanout())
	return int64(math.Ceil(math.Log(float64(leaves))/math.Log(f))) + 1
}

// Card is Eq. 8: card = sel × #T, with sel in [0,1].
func (p Params) Card(sel float64) int64 {
	return int64(math.Round(sel * float64(p.NumTuples)))
}

// LeavesRes is Eq. 9: #leaves_res = ceil(card / fanout).
func (p Params) LeavesRes(card int64) int64 {
	f := p.Fanout()
	if f == 0 || card == 0 {
		return 0
	}
	return (card + f - 1) / f
}

// PagesWithResults is Eq. 13: #P_res = min(card, #P) — worst case
// (uniform spread), every result tuple on a distinct page.
func (p Params) PagesWithResults(card int64) int64 {
	return min(card, p.Pages())
}

// FullScanCost is Eq. 10: all pages, sequentially.
func (p Params) FullScanCost() float64 {
	return float64(p.Pages()) * p.SeqCost
}

// IndexScanCost is Eq. 11: one tree descent plus one random heap
// access per result tuple, plus a sequential walk of the result
// leaves.
func (p Params) IndexScanCost(card int64) float64 {
	if card < 0 {
		card = 0
	}
	return float64(p.Height()+card)*p.RandCost + float64(p.LeavesRes(card))*p.SeqCost
}

// SortScanCost models the paper's Sort Scan (bitmap heap scan): the
// index leaves holding results are walked sequentially after one
// descent, qualifying TIDs are sorted (CPU, not modelled here), and
// the result pages are fetched in increasing page order — a nearly
// sequential pattern charged one random (initial seek) plus sequential
// transfers. The paper gives no closed formula for Sort Scan; this
// extension follows its description in Section II.
func (p Params) SortScanCost(card int64) float64 {
	if card <= 0 {
		return float64(p.Height()) * p.RandCost
	}
	pres := p.PagesWithResults(card)
	leafWalk := float64(p.Height())*p.RandCost + float64(p.LeavesRes(card)-1)*p.SeqCost
	// Fetching p_res pages in increasing page order, spread (worst
	// case, uniform) over the whole table: the device either seeks to
	// each result page or streams across the span, whichever is
	// cheaper — the page-ordered pattern lets the prefetcher pick.
	seekAll := float64(pres) * p.RandCost
	stream := p.RandCost + float64(p.Pages()-1)*p.SeqCost
	return leafWalk + math.Min(seekAll, stream)
}

// SmoothScanCost is Eq. 23: total cost given how the result
// cardinality is split across modes (Eq. 12). cardM0 tuples are
// produced with a classic index scan before morphing (Mode 0), cardM1
// with Entire Page Probe, cardM2 with Flattening Access.
func (p Params) SmoothScanCost(cardM0, cardM1, cardM2 int64) float64 {
	return p.Mode0Cost(cardM0) + p.Mode1Cost(cardM1) + p.Mode2Cost(cardM1, cardM2)
}

// Mode0Cost: identical to the index scan for the same cardinality
// (Section V, "Mode 0").
func (p Params) Mode0Cost(cardM0 int64) float64 {
	if cardM0 <= 0 {
		return 0
	}
	return p.IndexScanCost(cardM0)
}

// Mode1Cost is Eqs. 14–15: #P_m1 = min(card_m1, #P) pages, each a
// random access (worst case: one qualifying tuple per page).
func (p Params) Mode1Cost(cardM1 int64) float64 {
	if cardM1 <= 0 {
		return 0
	}
	return float64(min(cardM1, p.Pages())) * p.RandCost
}

// Mode2Pages is Eq. 16: #P_m2 = min(card_m2, #P − #P_m1).
func (p Params) Mode2Pages(cardM1, cardM2 int64) int64 {
	if cardM2 <= 0 {
		return 0
	}
	pm1 := min(max(cardM1, 0), p.Pages())
	return min(cardM2, p.Pages()-pm1)
}

// Mode2RandIOMin is Eq. 20: the minimum number of random jumps needed
// to fetch #P_m2 pages under doubling expansion, log2(#P_m2 + 1).
func Mode2RandIOMin(pm2 int64) int64 {
	if pm2 <= 0 {
		return 0
	}
	return int64(math.Ceil(math.Log2(float64(pm2 + 1))))
}

// Mode2RandIOMax is Eq. 21: min(#P_m2, log2(#P + 1)) — the paper notes
// both bounds converge to log2(#P+1), which callers typically use.
func (p Params) Mode2RandIOMax(pm2 int64) int64 {
	if pm2 <= 0 {
		return 0
	}
	bound := int64(math.Ceil(math.Log2(float64(p.Pages() + 1))))
	return min(pm2, bound)
}

// Mode2Cost is Eq. 22: jumps at random cost, the rest sequential.
func (p Params) Mode2Cost(cardM1, cardM2 int64) float64 {
	pm2 := p.Mode2Pages(cardM1, cardM2)
	if pm2 == 0 {
		return 0
	}
	randio := Mode2RandIOMin(pm2)
	return float64(randio)*p.RandCost + float64(pm2-randio)*p.SeqCost
}

// WorstCaseSmoothScanCost is the upper bound used by the SLA trigger:
// the remaining cost of a Smooth Scan that must still fetch every heap
// page (selectivity 100%) after cardM0 tuples were produced with the
// traditional index. On top of the Eq. 23 terms it accounts for two
// costs Section V leaves out but a real execution pays: walking the
// remaining index leaves (the scan is still driven by leaf pointers)
// and the head movement between index and heap around each morphing
// expansion (two seeks per expansion, at most ~log2(#P) expansions).
func (p Params) WorstCaseSmoothScanCost(cardM0 int64) float64 {
	rest := p.NumTuples - max(cardM0, 0)
	if rest < 0 {
		rest = 0
	}
	// After the morph every page not yet seen is fetched with the
	// flattening pattern; Mode 1 covers only the first page probe.
	eq23 := p.SmoothScanCost(cardM0, min(rest, 1), rest-min(rest, 1))
	leafWalk := float64(p.LeavesRes(rest)) * p.SeqCost
	bounces := 2 * float64(Mode2RandIOMin(p.Pages())) * p.RandCost
	return eq23 + leafWalk + bounces
}

// SLATriggerCard computes the morphing trigger for the SLA-driven
// strategy (Section III-C): the largest cardinality that may be
// produced with a traditional index scan such that, should selectivity
// turn out to be 100%, morphing at that point still completes within
// slaBound cost units. Returns 0 when even immediate morphing cannot
// meet the bound.
func (p Params) SLATriggerCard(slaBound float64) int64 {
	lo, hi := int64(0), p.NumTuples
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if p.Mode0Cost(mid)+p.WorstCaseSmoothScanCost(mid) <= slaBound {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// OptimalCost returns the cheapest of the traditional alternatives
// (full scan, index scan, sort scan) for the cardinality — the
// denominator of the competitive ratio.
func (p Params) OptimalCost(card int64) float64 {
	return math.Min(p.FullScanCost(), math.Min(p.IndexScanCost(card), p.SortScanCost(card)))
}
