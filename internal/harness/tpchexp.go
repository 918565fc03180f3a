package harness

import (
	"fmt"

	"smoothscan/internal/bufferpool"
	"smoothscan/internal/disk"
	"smoothscan/internal/plan"
	"smoothscan/internal/tpch"
)

func (r *Runner) tpchDB() (*tpch.DB, error) {
	dev := disk.NewDevice(disk.HDD)
	return tpch.Gen(dev, tpch.Config{NumOrders: r.cfg.TPCHOrders, Seed: r.cfg.Seed})
}

func (r *Runner) tpchPool(db *tpch.DB) *bufferpool.Pool {
	return r.poolFor(db.Dev, db.Lineitem.File.NumPages())
}

// Fig1 reproduces Figure 1: the motivating DBMS-X experiment. A
// 19-query TPC-H-like workload runs twice: "original" (no indexes:
// every query scans LINEITEM fully) and "tuned" (the advisor created
// the l_shipdate index and the optimizer — armed only with default
// uniformity statistics over a stale, much wider date domain —
// re-picks access paths). Misestimated queries flip to index scans
// and regress by orders of magnitude; well-estimated ones improve.
// The table reports tuned time normalised to original time (log-scale
// in the paper).
func (r *Runner) Fig1() (*Table, error) {
	db, err := r.tpchDB()
	if err != nil {
		return nil, err
	}
	pool := r.tpchPool(db)
	params := r.microParams(db.Dev, db.Lineitem.File.NumTuples())
	params.TupleSize = db.Lineitem.File.Schema().TupleSize()

	// The 19 TPC-H queries, reduced to their LINEITEM access with the
	// paper's approximate true selectivities. estFactor is the
	// multiplicative error of the tuned optimizer's estimate (stale
	// domain statistics): estFactor < 1 underestimates, the Figure 1
	// failure mode.
	queries := []struct {
		name      string
		trueSel   float64
		estFactor float64
	}{
		{"Q1", 0.98, 1.0},
		{"Q2", 0.0008, 1.0},
		{"Q3", 0.03, 0.01}, // mild under-estimate: small regression
		{"Q4", 0.65, 1.0},
		{"Q5", 0.20, 1.0},
		{"Q6", 0.02, 1.0},
		{"Q7", 0.30, 1.0},
		{"Q8", 0.03, 1.0},
		{"Q9", 0.10, 1.0},
		{"Q10", 0.25, 1.0},
		{"Q11", 0.0005, 1.0},
		{"Q12", 0.60, 0.001}, // the paper's 400x regression
		{"Q13", 0.95, 1.0},
		{"Q14", 0.01, 1.0},
		{"Q16", 0.002, 1.0},
		{"Q18", 0.05, 0.01},  // mild under-estimate
		{"Q19", 0.12, 0.002}, // the paper's 20x regression
		{"Q21", 0.06, 0.01},  // mild under-estimate
		{"Q22", 0.001, 1.0},
	}

	var rows [][]string
	var worstName string
	var worstRatio float64
	for _, q := range queries {
		pred := db.ShipdatePred(q.trueSel)
		estCard := int64(q.trueSel * q.estFactor * float64(db.Lineitem.File.NumTuples()))
		if estCard < 1 {
			estCard = 1
		}
		// Tuned plan: cheapest path under the (mis)estimate. DBMS-X's
		// regressions are index look-ups ("table look-up", Section
		// VI-B), so the simulated advisor chooses between full scan
		// and index scan, preferring the pipelined index at low
		// estimates as commercial optimizers do.
		tunedPath := plan.PathFull
		if params.IndexScanCost(estCard) < params.FullScanCost() {
			tunedPath = plan.PathIndex
		}

		runScan := func(path plan.Path) (float64, error) {
			op, err := db.ScanLineitem(pool, pred, plan.ScanSpec{Path: path})
			if err != nil {
				return 0, err
			}
			st, _, err := measure(db.Dev, pool, op)
			return st.Time(), err
		}
		original, err := runScan(plan.PathFull)
		if err != nil {
			return nil, err
		}
		tuned, err := runScan(tunedPath)
		if err != nil {
			return nil, err
		}
		ratio := tuned / original
		if ratio > worstRatio {
			worstRatio, worstName = ratio, q.name
		}
		rows = append(rows, []string{
			q.name,
			fmt.Sprintf("%.3f", q.trueSel),
			fmt.Sprintf("%d", estCard),
			tunedPath.String(),
			fmtRatio(ratio),
		})
	}
	return &Table{
		Title:  "Tuning-induced regressions under stale statistics (tuned / original, log-scale in paper)",
		Header: []string{"query", "true-sel", "est-card", "tuned-path", "normalized-time"},
		Rows:   rows,
		Notes: []string{
			"paper: Q12 regresses ~400x, Q19 ~20x, Q3/Q18/Q21 smaller; overall workload 22x worse.",
			fmt.Sprintf("measured worst: %s at %.0fx", worstName, worstRatio),
		},
	}, nil
}

// Fig1Q12 is the plan-level companion to Fig1: it executes the actual
// Q12 join under the original (hash join), tuned (index-scan-driven
// INLJ) and Smooth-Scan-rescued physical plans, reproducing the
// paper's minute-to-eleven-hours mechanism and showing that swapping
// only the access path (plus the §IV-B morphing inner) undoes it
// without re-optimization.
func (r *Runner) Fig1Q12() (*Table, error) {
	db, err := r.tpchDB()
	if err != nil {
		return nil, err
	}
	pool := r.tpchPool(db)
	var rows [][]string
	var original float64
	for _, q12 := range []tpch.Q12Plan{tpch.Q12PlanHash, tpch.Q12PlanTunedINLJ, tpch.Q12PlanSmooth} {
		pool.Reset()
		db.Dev.ResetStats()
		res, err := db.Q12(pool, q12)
		if err != nil {
			return nil, err
		}
		st := db.Dev.Stats()
		if q12 == tpch.Q12PlanHash {
			original = st.Time()
		}
		rows = append(rows, []string{
			q12.String(),
			fmtTime(st.Time()),
			fmtRatio(st.Time() / original),
			fmt.Sprintf("%d", st.Requests),
			fmt.Sprintf("%d", res.Rows),
		})
	}
	return &Table{
		Title:  "Figure 1 detail: Q12 plan-level regression and Smooth Scan rescue",
		Header: []string{"plan", "time", "vs original", "io-requests", "rows"},
		Rows:   rows,
		Notes: []string{
			"paper: tuned Q12 went from a minute to 11 hours (~400x); the only plan change",
			"needed to undo it is the access path (plus the morphing INLJ inner).",
		},
	}, nil
}

// Fig4 reproduces Figure 4: the five TPC-H queries under plain
// PostgreSQL's chosen plans versus the same plans with Smooth Scan as
// the LINEITEM access path, with the CPU-vs-I/O breakdown.
func (r *Runner) Fig4() (*Table, error) {
	db, err := r.tpchDB()
	if err != nil {
		return nil, err
	}
	pool := r.tpchPool(db)
	plans := tpch.PaperPlans()
	var rows [][]string
	for _, q := range db.Queries() {
		for _, variant := range []struct {
			label string
			spec  plan.ScanSpec
		}{
			{"pSQL", plan.ScanSpec{Path: plans[q.Name]}},
			{"pSQL+SS", plan.ScanSpec{Path: plan.PathSmooth}},
		} {
			pool.Reset()
			db.Dev.ResetStats()
			res, err := q.Run(pool, variant.spec)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", q.Name, variant.label, err)
			}
			st := db.Dev.Stats()
			rows = append(rows, []string{
				fmt.Sprintf("%s (%.0f%%)", q.Name, q.Selectivity*100),
				variant.label,
				variant.spec.Path.String(),
				fmtTime(st.Time()),
				fmtTime(st.CPUTime),
				fmtTime(st.IOTime),
				fmt.Sprintf("%d", res.Rows),
			})
		}
	}
	return &Table{
		Title:  "TPC-H with and without Smooth Scan (simulated time; CPU vs I/O-wait breakdown)",
		Header: []string{"query", "variant", "lineitem-path", "time", "cpu", "io-wait", "rows"},
		Rows:   rows,
		Notes: []string{
			"paper: SS prevents 10x (Q6), 7x (Q7), 8x (Q14) degradations; adds 14% on Q1 and <1% on Q4.",
		},
	}, nil
}

// Table2 reproduces Table II: the number of I/O requests and the data
// volume transferred per query, plain plans vs Smooth Scan.
func (r *Runner) Table2() (*Table, error) {
	db, err := r.tpchDB()
	if err != nil {
		return nil, err
	}
	pool := r.tpchPool(db)
	plans := tpch.PaperPlans()
	var rows [][]string
	for _, q := range db.Queries() {
		cells := []string{q.Name}
		for _, spec := range []plan.ScanSpec{
			{Path: plans[q.Name]},
			{Path: plan.PathSmooth},
		} {
			pool.Reset()
			db.Dev.ResetStats()
			if _, err := q.Run(pool, spec); err != nil {
				return nil, err
			}
			st := db.Dev.Stats()
			cells = append(cells,
				fmt.Sprintf("%.1fK", float64(st.Requests)/1000),
				fmt.Sprintf("%.1fMB", float64(st.BytesRead)/(1<<20)),
			)
		}
		rows = append(rows, cells)
	}
	return &Table{
		Title:  "I/O analysis: requests and data read, pSQL vs Smooth Scan",
		Header: []string{"query", "pSQL req", "pSQL read", "SS req", "SS read"},
		Rows:   rows,
		Notes: []string{
			"paper: SS may transfer more data but issues far fewer I/O requests",
			"(Q6: 566K -> 95K; Q14: 416K -> 87K), exploiting access locality.",
		},
	}, nil
}

// CompetitiveRatios reproduces the Section V-A summary: closed-form
// worst-case competitive ratios, the numeric adversarial scan, and the
// Greedy growth that disqualifies it.
func (r *Runner) CompetitiveRatios() (*Table, error) {
	var rows [][]string
	for _, prof := range []disk.Profile{disk.HDD, disk.SSD} {
		p := r.microParams(disk.NewDevice(prof), 10_000_000)
		worst, atK := p.MaxAdversarialCR(64)
		rows = append(rows, []string{
			prof.Name,
			fmt.Sprintf("%.1f:%.0f", prof.RandCost, prof.SeqCost),
			fmtRatio(p.ElasticWorstCaseCR()),
			fmtRatio(p.TheoreticalCRBound()),
			fmt.Sprintf("%s (k=%d)", fmtRatio(worst), atK),
			fmtRatio(p.GreedyCRForCard(20)),
		})
	}
	return &Table{
		Title:  "Competitive analysis (Section V-A)",
		Header: []string{"device", "rand:seq", "elastic CR (r+1)/2", "bound r+1", "numeric worst CR", "greedy CR @card=20"},
		Rows:   rows,
		Notes: []string{
			"paper: elastic CR 5.5 (HDD) with bound 11; SSD quoted as 3/6 (corresponds to r=5;",
			"the measured SSD ratio r=2 gives 1.5/3). Empirically the paper observes CR ~2.",
		},
	}, nil
}
