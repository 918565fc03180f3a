package costmodel

// This file implements the competitive analysis summarised in
// Section V-A of the paper. The full derivation lives in the paper's
// technical report; the closed forms below reproduce the numbers the
// paper states: with r = rand_cost/seq_cost, the worst case for the
// Elastic policy is an access pattern where every second page holds
// exactly one match — local selectivity never rises above global
// selectivity, so Smooth Scan never morphs further and pays one random
// jump plus one (partly wasted) sequential read per two pages, against
// a full scan paying one sequential read per page:
//
//	CR_elastic = (r + 1) / 2
//
// and the theoretical bound (region size pinned at one page, every
// probe a random access plus a wasted adjacent read) is
//
//	CR_bound = r + 1.
//
// For the paper's HDD (r = 10) these give 5.5 and 11, matching
// Section V-A. The paper quotes 3 and 6 for SSDs, which correspond to
// r = 5; its Section VI-E measurement of the SSD used in experiments
// is r = 2, for which the formulas give 1.5 and 3. We report the
// formula value for whatever profile is supplied.

// ElasticWorstCaseCR is the closed-form worst-case competitive ratio
// of the Elastic policy versus the optimal access path: (r+1)/2.
func (p Params) ElasticWorstCaseCR() float64 {
	r := p.RandCost / p.SeqCost
	return (r + 1) / 2
}

// TheoreticalCRBound is the hard upper bound of Section V-A: r + 1.
func (p Params) TheoreticalCRBound() float64 {
	return p.RandCost/p.SeqCost + 1
}

// EveryKthPageCR computes, numerically, the competitive ratio of an
// Elastic Smooth Scan over the adversarial family "exactly one match
// every k-th page" (k >= 1). For k = 1 consecutive probes are
// physically sequential and the ratio approaches 1; k = 2 is the
// paper's worst case; large k approaches the index-scan regime where
// Smooth Scan is itself near-optimal.
func (p Params) EveryKthPageCR(k int64) float64 {
	if k < 1 {
		k = 1
	}
	pages := p.Pages()
	if pages == 0 {
		return 1
	}
	card := pages / k
	if card == 0 {
		card = 1
	}
	var ssCost float64
	if k == 1 {
		// Adjacent probes: after the first random access the head
		// stays in place; every subsequent page is sequential.
		ssCost = float64(p.Height())*p.RandCost + p.RandCost + float64(pages-1)*p.SeqCost
	} else {
		// Each probe jumps k pages ahead (random) and the region
		// (stuck at <= 2 pages) adds one sequential read; leaf
		// pointers are consumed from a sequential leaf walk.
		probes := card
		regionSeq := min(2, float64(k)) - 1
		ssCost = float64(p.Height())*p.RandCost +
			float64(p.LeavesRes(card))*p.SeqCost +
			float64(probes)*(p.RandCost+regionSeq*p.SeqCost)
	}
	return ssCost / p.OptimalCost(card)
}

// MaxAdversarialCR scans the every-k-th-page family for the worst
// ratio, the numeric counterpart of ElasticWorstCaseCR.
func (p Params) MaxAdversarialCR(maxK int64) (worst float64, atK int64) {
	for k := int64(1); k <= maxK; k++ {
		if cr := p.EveryKthPageCR(k); cr > worst {
			worst, atK = cr, k
		}
	}
	return worst, atK
}

// GreedyLowSelectivityCR computes the competitive ratio of the Greedy
// policy at a given (low) selectivity: Greedy doubles the morphing
// region on every probe, so after n probes it has read about 2^n
// pages regardless of whether they contain results. Section V-A notes
// this yields a CR that grows (sublinearly) with the table size, which
// is why Greedy is rejected.
func (p Params) GreedyLowSelectivityCR(sel float64) float64 {
	return p.GreedyCRForCard(p.Card(sel))
}

// GreedyCRForCard is GreedyLowSelectivityCR for an explicit result
// cardinality, which makes the growth-with-table-size effect directly
// comparable across table sizes.
func (p Params) GreedyCRForCard(card int64) float64 {
	if card == 0 {
		return 1
	}
	pages := p.Pages()
	// Pages fetched by doubling until card probes happened or the
	// table is exhausted: 2^card - 1, capped at #P.
	var fetched int64
	if card >= 63 {
		fetched = pages
	} else {
		fetched = min((int64(1)<<uint(card))-1, pages)
	}
	jumps := min(card, Mode2RandIOMin(fetched)+1)
	ssCost := float64(p.Height())*p.RandCost +
		float64(jumps)*p.RandCost + float64(fetched-jumps)*p.SeqCost
	return ssCost / p.OptimalCost(card)
}
