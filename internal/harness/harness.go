// Package harness regenerates every table and figure of the paper's
// evaluation (Section VI) on the simulated substrate, plus the
// sharding and result-cache sweeps over the public facade. Each
// experiment is a method on Runner returning a Table of the same
// rows/series the paper plots; the experiments registry names them,
// cmd/ssbench prints them and BenchmarkExperiments times them.
//
// Absolute numbers are simulated cost units (1 unit = one sequential
// 8 KB page read), not seconds; the object of the reproduction is the
// shape: who wins, by what factor, and where the crossovers fall.
package harness

import (
	"fmt"
	"io"
	"strings"

	"smoothscan/internal/bufferpool"
	"smoothscan/internal/costmodel"
	"smoothscan/internal/disk"
	"smoothscan/internal/exec"
	"smoothscan/internal/workload"
)

// Config holds the scale knobs. The zero value is usable: Defaults
// fills laptop-scale sizes that preserve the paper's structure
// (the paper's tables are 400M–1.5B rows; these default to hundreds of
// thousands).
type Config struct {
	// MicroRows sizes the Section VI-C micro-benchmark table.
	MicroRows int64
	// SkewRows sizes the Section VI-D skewed table.
	SkewRows int64
	// TPCHOrders sizes the TPC-H-like database (LINEITEM ≈ 4×).
	TPCHOrders int64
	// PoolFraction sizes the buffer pool relative to the scanned
	// table (the paper keeps the cache cold and small).
	PoolFraction float64
	// Seed drives all generators.
	Seed int64
}

// Defaults fills unset fields.
func (c *Config) Defaults() {
	if c.MicroRows == 0 {
		c.MicroRows = 200_000
	}
	if c.SkewRows == 0 {
		c.SkewRows = 400_000
	}
	if c.TPCHOrders == 0 {
		c.TPCHOrders = 8_000
	}
	if c.PoolFraction == 0 {
		c.PoolFraction = 0.1
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
}

// Runner executes experiments.
type Runner struct {
	cfg Config
}

// New creates a Runner, applying defaults to the config.
func New(cfg Config) *Runner {
	cfg.Defaults()
	return &Runner{cfg: cfg}
}

// Config returns the effective configuration.
func (r *Runner) Config() Config { return r.cfg }

// experiments is the one registry of experiments, in `-exp all`
// order: the paper's exhibits, then the facade sweeps.
var experiments = []struct {
	id  string
	run func(*Runner) (*Table, error)
}{
	{"fig1", (*Runner).Fig1},
	{"fig1-q12", (*Runner).Fig1Q12},
	{"fig4", (*Runner).Fig4},
	{"tab2", (*Runner).Table2},
	{"fig5a", (*Runner).Fig5a},
	{"fig5b", (*Runner).Fig5b},
	{"fig6", (*Runner).Fig6},
	{"fig7a", (*Runner).Fig7a},
	{"fig7b", (*Runner).Fig7b},
	{"fig8", (*Runner).Fig8},
	{"fig9", (*Runner).Fig9},
	{"fig10", (*Runner).Fig10},
	{"fig11", (*Runner).Fig11},
	{"tab-cr", (*Runner).CompetitiveRatios},
	{"model", (*Runner).ModelAccuracy},
	{"join", (*Runner).JoinExp},
	{"fault", (*Runner).FaultExp},
	{"shard", (*Runner).ShardExp},
	{"cache", (*Runner).CacheExp},
}

// IDs lists the experiment identifiers in registry order.
func IDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}

// ByID runs one experiment by identifier and stamps the table with it.
func (r *Runner) ByID(id string) (*Table, error) {
	for _, e := range experiments {
		if e.id != id {
			continue
		}
		t, err := e.run(r)
		if err != nil {
			return nil, err
		}
		t.ID = id
		return t, nil
	}
	return nil, fmt.Errorf("harness: unknown experiment %q (known: %v)", id, IDs())
}

// Table is a printable experiment result.
type Table struct {
	// ID is the experiment's registry id, stamped by ByID.
	ID string
	// Title describes the experiment.
	Title string
	// Header names the columns.
	Header []string
	// Rows holds the formatted cells.
	Rows [][]string
	// Notes carries per-experiment commentary (paper-vs-measured).
	Notes []string
}

// Print renders the table.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	printRow(t.Header)
	printRow(dashes(widths))
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func dashes(widths []int) []string {
	out := make([]string, len(widths))
	for i, w := range widths {
		out[i] = strings.Repeat("-", w)
	}
	return out
}

// poolFor sizes a buffer pool for a table of numPages pages.
func (r *Runner) poolFor(dev *disk.Device, numPages int64) *bufferpool.Pool {
	n := int(float64(numPages) * r.cfg.PoolFraction)
	if n < 64 {
		n = 64
	}
	return bufferpool.New(dev, n)
}

// micro builds the micro-benchmark table on a device of the given
// profile.
func (r *Runner) micro(prof disk.Profile) (*workload.Table, *disk.Device, error) {
	dev := disk.NewDevice(prof)
	tab, err := workload.BuildMicro(dev, workload.MicroConfig{NumRows: r.cfg.MicroRows, Seed: r.cfg.Seed})
	return tab, dev, err
}

// microParams returns Section V cost-model parameters matching the
// micro table geometry.
func (r *Runner) microParams(dev *disk.Device, numTuples int64) costmodel.Params {
	return costmodel.Params{
		TupleSize: 80,
		PageSize:  dev.PageSize(),
		KeySize:   8,
		NumTuples: numTuples,
		RandCost:  dev.Profile().RandCost,
		SeqCost:   dev.Profile().SeqCost,
	}
}

// measure runs op cold (pool reset, stats reset) and returns the
// device stats delta and produced rows.
func measure(dev *disk.Device, pool *bufferpool.Pool, op exec.Operator) (disk.Stats, int64, error) {
	pool.Reset()
	dev.ResetStats()
	n, err := exec.Count(op)
	if err != nil {
		return disk.Stats{}, 0, err
	}
	return dev.Stats(), n, nil
}

// selGrid is the paper's Figure 5/6/10 selectivity grid, in percent.
var selGrid = []float64{0, 0.001, 0.01, 0.1, 1, 20, 50, 75, 100}

// fineGrid is the Figure 7 grid: a fine region at the low end plus
// coarse coverage.
var fineGrid = []float64{0, 0.001, 0.002, 0.003, 0.004, 0.005, 0.006, 0.007, 0.008, 0.009, 0.01, 5, 10, 20, 30, 40, 50, 75, 100}

func fmtSel(pct float64) string {
	if pct == 0 {
		return "0.0"
	}
	if pct < 0.01 {
		return fmt.Sprintf("%.3f", pct)
	}
	if pct < 1 {
		return fmt.Sprintf("%.2f", pct)
	}
	return fmt.Sprintf("%.0f", pct)
}

func fmtTime(v float64) string {
	switch {
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

func fmtRatio(v float64) string { return fmt.Sprintf("%.2f", v) }

func fmtPct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
