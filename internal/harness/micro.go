package harness

import (
	"fmt"

	"smoothscan/internal/bufferpool"
	"smoothscan/internal/core"
	"smoothscan/internal/disk"
	"smoothscan/internal/exec"
	"smoothscan/internal/plan"
	"smoothscan/internal/tuple"
	"smoothscan/internal/workload"
)

// microPath is one access-path series in a sweep: its column name and
// the access path with its knobs (Path, Smooth, SwitchThreshold). The
// sweep fills in the rest of the spec.
type microPath struct {
	name string
	spec plan.ScanSpec
}

var (
	fullScanPath  = microPath{"FullScan", plan.ScanSpec{Path: plan.PathFull}}
	indexScanPath = microPath{"IndexScan", plan.ScanSpec{Path: plan.PathIndex}}
	sortScanPath  = microPath{"SortScan", plan.ScanSpec{Path: plan.PathSort}}
	// smoothScanPath is the paper's default Smooth Scan: the zero
	// core.Config is the Elastic policy with the Eager trigger.
	smoothScanPath = microPath{"SmoothScan", plan.ScanSpec{Path: plan.PathSmooth}}
)

func smoothPath(name string, cfg core.Config) microPath {
	return microPath{name, plan.ScanSpec{Path: plan.PathSmooth, Smooth: cfg}}
}

// poolBytes is the memory budget query operators get for sorting: the
// same budget the buffer pool has, as in a real server where work_mem
// and shared buffers compete for the same RAM.
func poolBytes(pool *bufferpool.Pool) int64 {
	return int64(pool.Capacity()) * int64(pool.Device().PageSize())
}

// measureScan builds spec over tab through plan.Build and measures it
// cold (see measure). spec supplies the access path and its knobs;
// measureScan fills in the table, pool, index, predicate, the
// requested index-key order and the pool-sized sort budget. A path
// that cannot deliver the order pays a posterior external sort.
func measureScan(dev *disk.Device, pool *bufferpool.Pool, tab *workload.Table, pred tuple.RangePred, ordered bool, spec plan.ScanSpec) (disk.Stats, int64, *plan.Scan, error) {
	spec.File, spec.Pool, spec.Tree, spec.Pred = tab.File, pool, tab.Index, pred
	spec.Ordered, spec.SortBudget = ordered, poolBytes(pool)
	built, err := plan.Build(spec)
	if err != nil {
		return disk.Stats{}, 0, nil, err
	}
	op := built.Op
	if ordered && !spec.Path.DeliversOrder(true) {
		op = exec.NewExternalSort(op, pool.Channel(), tab.IndexCol, spec.SortBudget)
	}
	st, n, err := measure(dev, pool, op)
	return st, n, built, err
}

// sweepSpec is one selectivity sweep over the micro-benchmark table:
// every path measured cold at every grid point (percentages), one row
// per point — sel, then total simulated time per path.
type sweepSpec struct {
	title   string
	profile disk.Profile
	grid    []float64
	// ordered requests index-key order (an ORDER BY on the indexed
	// column).
	ordered bool
	paths   []microPath
	notes   []string
}

// sweep runs the spec and wraps its rows in a Table.
func (r *Runner) sweep(s sweepSpec) (*Table, error) {
	tab, dev, err := r.micro(s.profile)
	if err != nil {
		return nil, err
	}
	pool := r.poolFor(dev, tab.File.NumPages())
	header := []string{"sel(%)"}
	for _, p := range s.paths {
		header = append(header, p.name)
	}
	rows := make([][]string, 0, len(s.grid))
	for _, pct := range s.grid {
		row := []string{fmtSel(pct)}
		for _, p := range s.paths {
			st, _, _, err := measureScan(dev, pool, tab, tab.PredForSelectivity(pct/100), s.ordered, p.spec)
			if err != nil {
				return nil, fmt.Errorf("%s at %v%%: %w", p.name, pct, err)
			}
			row = append(row, fmtTime(st.Time()))
		}
		rows = append(rows, row)
	}
	return &Table{Title: s.title, Header: header, Rows: rows, Notes: s.notes}, nil
}

// classicPaths are the Figure 5/10 series: the traditional access
// paths against Elastic Smooth Scan.
var classicPaths = []microPath{fullScanPath, indexScanPath, sortScanPath, smoothScanPath}

// Fig5a reproduces Figure 5a: Smooth Scan vs the traditional access
// paths across the selectivity range, with an ORDER BY on the indexed
// column. Paths without an interesting order pay a posterior sort.
func (r *Runner) Fig5a() (*Table, error) {
	return r.sweep(sweepSpec{
		title:   "Smooth Scan vs alternatives WITH order by (HDD, simulated time units)",
		profile: disk.HDD, grid: selGrid, ordered: true, paths: classicPaths,
		notes: []string{
			"paper: IndexScan degrades 10x by 0.1% sel and >100x at 100%; SortScan best below 1%;",
			"SmoothScan best above ~2.5% because it avoids the posterior sort.",
		},
	})
}

// Fig5b reproduces Figure 5b: the same sweep without the ORDER BY.
func (r *Runner) Fig5b() (*Table, error) {
	return r.sweep(sweepSpec{
		title:   "Smooth Scan vs alternatives WITHOUT order by (HDD)",
		profile: disk.HDD, grid: selGrid, paths: classicPaths,
		notes: []string{
			"paper: FullScan best above ~2.5%; SmoothScan within ~20% of FullScan at 100%",
			"(here the gap includes the index leaf walk, shrinking with table size).",
		},
	})
}

// Fig6 reproduces Figure 6: sensitivity to the morphing modes —
// Smooth Scan capped at Mode 1 (Entire Page Probe) vs full Mode 2+
// (Flattening Access), against Full and Index Scan.
func (r *Runner) Fig6() (*Table, error) {
	return r.sweep(sweepSpec{
		title:   "Sensitivity to Smooth Scan modes (HDD)",
		profile: disk.HDD,
		grid:    []float64{0, 0.001, 0.01, 0.1, 1, 5, 20, 50, 75, 100},
		paths: []microPath{
			fullScanPath,
			indexScanPath,
			smoothPath("SS(EntirePage)", core.Config{Policy: core.Elastic, MaxMode: core.ModeEntirePage}),
			smoothPath("SS(Flattening)", core.Config{Policy: core.Elastic}),
		},
		notes: []string{
			"paper: EntirePage-only beats IndexScan 10x at 100% but stays ~14x over FullScan;",
			"Flattening closes the gap to ~1.2x of FullScan.",
		},
	})
}

// Fig7a reproduces Figure 7a: the impact of the morphing policy
// (Greedy vs Selectivity-Increase vs Elastic) with the Eager trigger.
func (r *Runner) Fig7a() (*Table, error) {
	return r.sweep(sweepSpec{
		title:   "Impact of morphing policies (HDD)",
		profile: disk.HDD, grid: fineGrid,
		paths: []microPath{
			smoothPath("Greedy", core.Config{Policy: core.Greedy}),
			smoothPath("SelIncrease", core.Config{Policy: core.SelectivityIncrease}),
			smoothPath("Elastic", core.Config{Policy: core.Elastic}),
		},
		notes: []string{
			"paper: Greedy converges fastest and over-reads at low selectivity;",
			"Elastic adapts best and is the paper's default.",
		},
	})
}

// Fig7b reproduces Figure 7b: the impact of the morphing trigger —
// Eager vs Optimizer-driven (morph after the optimizer's estimate is
// violated) vs SLA-driven (morph at the cost-model trigger point for
// an SLA of two full scans). The SLA bound column mirrors the dotted
// line of the paper's plot.
func (r *Runner) Fig7b() (*Table, error) {
	params := r.microParams(disk.NewDevice(disk.HDD), r.cfg.MicroRows)
	slaBound := 2 * params.FullScanCost()
	// The paper's optimizer estimate is 15K tuples of 400M; scale it.
	estimate := int64(15000.0 * float64(r.cfg.MicroRows) / 400_000_000)
	if estimate < 2 {
		estimate = 2
	}
	t, err := r.sweep(sweepSpec{
		title:   "Impact of morphing triggers (HDD)",
		profile: disk.HDD, grid: fineGrid,
		paths: []microPath{
			smoothPath("Eager", core.Config{Policy: core.Elastic}),
			smoothPath("OptDriven", core.Config{
				Policy:        core.SelectivityIncrease, // per the paper: SI after the shift
				Trigger:       core.OptimizerDriven,
				EstimatedCard: estimate,
			}),
			smoothPath("SLADriven", core.Config{
				Policy:     core.Greedy, // per the paper: Greedy after the SLA switch
				Trigger:    core.SLADriven,
				SLABound:   slaBound,
				CostParams: params,
			}),
		},
		notes: []string{
			fmt.Sprintf("optimizer estimate (scaled) = %d tuples; SLA = 2 full scans = %s units; cost-model trigger card = %d",
				estimate, fmtTime(slaBound), params.SLATriggerCard(slaBound)),
			"paper: Eager is smooth everywhere; the other triggers show a cliff where they morph",
			"but stay below the SLA bound at 100% selectivity.",
		},
	})
	if err != nil {
		return nil, err
	}
	t.Header = append(t.Header, "SLA-bound")
	for i := range t.Rows {
		t.Rows[i] = append(t.Rows[i], fmtTime(slaBound))
	}
	return t, nil
}

// Fig9 reproduces Figure 9: the auxiliary-structure analysis — Result
// Cache overhead and hit rate (9a), morphing accuracy (9b) — on the
// ordered micro-benchmark query.
func (r *Runner) Fig9() (*Table, error) {
	tab, dev, err := r.micro(disk.HDD)
	if err != nil {
		return nil, err
	}
	pool := r.poolFor(dev, tab.File.NumPages())
	grid := []float64{0.001, 0.1, 1, 2.5, 20, 50, 75, 100}
	var rows [][]string
	for _, pct := range grid {
		pred := tab.PredForSelectivity(pct / 100)
		// Ordered run (uses the Result Cache).
		stOrd, _, ord, err := measureScan(dev, pool, tab, pred, true, smoothScanPath.spec)
		if err != nil {
			return nil, err
		}
		// Unordered run (no Result Cache) to isolate the overhead.
		stUn, _, _, err := measureScan(dev, pool, tab, pred, false, smoothScanPath.spec)
		if err != nil {
			return nil, err
		}
		overhead := 0.0
		if stUn.Time() > 0 {
			overhead = (stOrd.Time() - stUn.Time()) / stUn.Time()
			if overhead < 0 {
				overhead = 0
			}
		}
		ss := ord.Smooth.Stats()
		rows = append(rows, []string{
			fmtSel(pct),
			fmtPct(overhead),
			fmtPct(ss.CacheHitRate()),
			fmtPct(ss.MorphingAccuracy()),
			fmt.Sprintf("%d", ss.CachePeakTuples),
			fmt.Sprintf("%.1fKB", float64(ss.CachePeakBytes)/1024),
		})
	}
	return &Table{
		Title:  "Auxiliary data structures: Result Cache and morphing accuracy",
		Header: []string{"sel(%)", "cache-overhead", "cache-hit-rate", "morph-accuracy", "peak-tuples", "peak-bytes"},
		Rows:   rows,
		Notes: []string{
			"paper: cache overhead <= 14%; hit rate reaches 100% by 1% sel;",
			"morphing accuracy reaches 100% by 2.5% sel.",
		},
	}, nil
}

// Fig10 reproduces Figure 10: the Figure 5b sweep on the SSD profile
// (random:sequential = 2:1).
func (r *Runner) Fig10() (*Table, error) {
	return r.sweep(sweepSpec{
		title:   "Smooth Scan on SSD (rand:seq = 2:1)",
		profile: disk.SSD, grid: selGrid, paths: classicPaths,
		notes: []string{
			"paper: the index-beneficial region extends to ~0.1% on SSD (vs 0.01% on HDD);",
			"SmoothScan beats SortScan above 0.1% and is within ~10% of FullScan at 100%.",
		},
	})
}

// Fig11 reproduces Figure 11: the Switch Scan performance cliff. The
// threshold plays the optimizer's 32K-tuple estimate, scaled to the
// table size so that the cliff lands at the paper's ~0.009%
// selectivity.
func (r *Runner) Fig11() (*Table, error) {
	threshold := int64(0.00009 * float64(r.cfg.MicroRows)) // 0.009% of rows
	if threshold < 4 {
		threshold = 4
	}
	return r.sweep(sweepSpec{
		title:   fmt.Sprintf("Switch Scan cliff (threshold = %d tuples = 0.009%% sel)", threshold),
		profile: disk.HDD,
		grid:    []float64{0.001, 0.004, 0.008, 0.009, 0.01, 0.02, 0.05, 0.1, 1, 10, 100},
		paths: []microPath{
			fullScanPath,
			{"SwitchScan", plan.ScanSpec{Path: plan.PathSwitch, SwitchThreshold: threshold}},
			smoothScanPath,
		},
		notes: []string{
			"paper: Switch Scan jumps by a full-scan's worth of time the moment the",
			"threshold is crossed, then tracks FullScan; SmoothScan degrades smoothly.",
		},
	})
}
