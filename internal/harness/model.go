package harness

import (
	"fmt"

	"smoothscan/internal/disk"
)

// ModelAccuracy validates the Section V cost model (with the CPU
// extension) against the engine: for each selectivity it compares the
// model's predicted total cost with the measured simulated time for
// Full Scan, Index Scan and Smooth Scan. The paper states the model's
// accuracy "is corroborated in experiments" in its technical report;
// this is that experiment. A ratio near 1.00 means the analytical
// model predicts the engine.
func (r *Runner) ModelAccuracy() (*Table, error) {
	tab, dev, err := r.micro(disk.HDD)
	if err != nil {
		return nil, err
	}
	pool := r.poolFor(dev, tab.File.NumPages())
	params := r.microParams(dev, tab.File.NumTuples()).WithCPU()

	grid := []float64{0.001, 0.01, 0.1, 1, 10, 50, 100}
	var rows [][]string
	for _, pct := range grid {
		pred := tab.PredForSelectivity(pct / 100)
		card := int64(float64(tab.File.NumTuples()) * pct / 100)

		fsStats, _, _, err := measureScan(dev, pool, tab, pred, false, fullScanPath.spec)
		if err != nil {
			return nil, err
		}
		isStats, isRows, _, err := measureScan(dev, pool, tab, pred, false, indexScanPath.spec)
		if err != nil {
			return nil, err
		}
		ssStats, _, _, err := measureScan(dev, pool, tab, pred, false, smoothScanPath.spec)
		if err != nil {
			return nil, err
		}
		// Predictions use the measured cardinality (the model takes
		// card as input; its accuracy is about costs, not estimates).
		card = isRows
		rows = append(rows, []string{
			fmtSel(pct),
			fmt.Sprintf("%d", card),
			fmtRatio(params.FullScanTotalCost() / fsStats.Time()),
			fmtRatio(params.IndexScanTotalCost(card) / isStats.Time()),
			fmtRatio(params.SmoothScanTotalCost(card) / ssStats.Time()),
		})
	}
	return &Table{
		Title:  "Cost-model validation: predicted / measured total cost",
		Header: []string{"sel(%)", "card", "FullScan", "IndexScan", "SmoothScan"},
		Rows:   rows,
		Notes: []string{
			"1.00 = perfect prediction. FullScan is exact by construction. IndexScan",
			"over-predicts slightly where the buffer pool absorbs repeated accesses.",
			"SmoothScan uses Eq. 23's flattened pattern (log2 jumps, Eq. 20); at",
			"mid-low selectivity the Elastic engine pays closer to one seek per result",
			"page — the Eq. 21 regime the paper notes ('could at worst be equal to the",
			"number of pages that contain the results') — so the model under-predicts",
			"there and converges above ~10% selectivity.",
		},
	}, nil
}
