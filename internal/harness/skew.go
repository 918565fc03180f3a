package harness

import (
	"fmt"

	"smoothscan/internal/core"
	"smoothscan/internal/disk"
	"smoothscan/internal/workload"
)

// Fig8 reproduces Figure 8 (Handling Skew): a table whose first 1% of
// rows all match the predicate (a dense head) plus a 0.001% sprinkle
// of matches across the rest (the sparse tail) — overall selectivity
// just above 1%. It reports execution time (8a) and pages read (8b)
// for Full Scan, Index Scan, Selectivity-Increase Smooth Scan and
// Elastic Smooth Scan.
func (r *Runner) Fig8() (*Table, error) {
	dev := disk.NewDevice(disk.HDD)
	// The tail sprinkle scales with the table so roughly 20 sparse
	// matches exist at any scale (the paper's 1.5B-row instance uses
	// one in 100K; proportions are preserved, absolute counts are
	// not meaningful at laptop scale).
	sparseEvery := r.cfg.SkewRows / 20
	if sparseEvery < 50 {
		sparseEvery = 50
	}
	cfg := workload.SkewConfig{
		NumRows:     r.cfg.SkewRows,
		DenseRows:   r.cfg.SkewRows / 100,
		SparseEvery: sparseEvery,
		Seed:        r.cfg.Seed,
	}
	tab, err := workload.BuildSkewed(dev, cfg)
	if err != nil {
		return nil, err
	}
	pool := r.poolFor(dev, tab.File.NumPages())
	pred := tab.PredForSelectivity(0) // c2 == 0 only: [0, 0) is empty, build directly
	pred.Hi = 1                       // c2 in [0,1): the skewed match value

	variants := []microPath{
		fullScanPath,
		indexScanPath,
		smoothPath("SI Smooth", core.Config{Policy: core.SelectivityIncrease}),
		smoothPath("Elastic Smooth", core.Config{Policy: core.Elastic}),
	}
	var rows [][]string
	var elasticPages, siPages int64
	for _, v := range variants {
		st, n, built, err := measureScan(dev, pool, tab, pred, false, v.spec)
		if err != nil {
			return nil, err
		}
		// Smooth Scan reports the pages it fetched itself; the fixed
		// paths' pages read are the device's.
		fetched := st.PagesRead
		if built.Smooth != nil {
			fetched = built.Smooth.Stats().PagesFetched
		}
		switch v.name {
		case "SI Smooth":
			siPages = fetched
		case "Elastic Smooth":
			elasticPages = fetched
		}
		rows = append(rows, []string{v.name, fmtTime(st.Time()), fmt.Sprintf("%d", fetched), fmt.Sprintf("%d", n)})
	}
	notes := []string{
		"paper: SI fetches 56x more pages than Elastic (8.8M vs 150K) and is 5x slower;",
		"Elastic shrinks its region through the sparse tail and stays near-optimal.",
	}
	if elasticPages > 0 {
		notes = append(notes, fmt.Sprintf("measured: SI fetched %.1fx the pages of Elastic", float64(siPages)/float64(elasticPages)))
	}
	return &Table{
		Title:  fmt.Sprintf("Handling skew: dense head (%d rows) + sparse tail (every %dth)", cfg.DenseRows, cfg.SparseEvery),
		Header: []string{"access path", "time", "pages read", "results"},
		Rows:   rows,
		Notes:  notes,
	}, nil
}
