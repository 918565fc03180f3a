// Command ssbench regenerates the tables and figures of the Smooth
// Scan paper's evaluation on the simulated substrate.
//
// Usage:
//
//	ssbench -list
//	ssbench -exp fig5a
//	ssbench -exp all -micro-rows 400000
//	ssbench -exp all -format csv      # CI equivalence diff
//	ssbench -plan "0.02"              # Explain a builder query
//
// Times are simulated cost units (one sequential 8 KB page read = 1);
// the reproduction targets the paper's shapes, not absolute seconds.
// Every table is deterministic; wall-clock performance is bench/'s job
// (BENCHMARK.json), not this harness's.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"smoothscan"
	"smoothscan/internal/cacheexp"
	"smoothscan/internal/harness"
	"smoothscan/internal/shardexp"
)

// experimentIDs is the -exp all order: the paper experiments first,
// then the sharded scatter-gather and result-cache sweeps (which live
// outside internal/harness because they drive the public facade).
func experimentIDs() []string {
	return append(harness.IDs(), shardexp.ID, cacheexp.ID)
}

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment id or 'all'")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		microRows  = flag.Int64("micro-rows", 200_000, "micro-benchmark table rows (paper: 400M)")
		skewRows   = flag.Int64("skew-rows", 400_000, "skewed table rows (paper: 1.5B)")
		tpchOrders = flag.Int64("tpch-orders", 8_000, "TPC-H orders (LINEITEM ~4x; paper: SF10)")
		poolFrac   = flag.Float64("pool", 0.1, "buffer pool size as a fraction of the scanned table")
		seed       = flag.Int64("seed", 42, "generator seed")
		format     = flag.String("format", "table", "output format: table or csv")
		planSel    = flag.String("plan", "", "instead of experiments: build the micro table through the public API and print the Explain plan of a builder query at this selectivity (0..1]")
	)
	flag.Parse()

	if *planSel != "" {
		if err := explainDemo(*planSel, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		fmt.Println("experiments (paper order):")
		for _, id := range experimentIDs() {
			fmt.Println(" ", id)
		}
		return
	}

	r := harness.New(harness.Config{
		MicroRows:    *microRows,
		SkewRows:     *skewRows,
		TPCHOrders:   *tpchOrders,
		PoolFraction: *poolFrac,
		Seed:         *seed,
	})
	fmt.Printf("smoothscan reproduction harness — config %+v\n\n", r.Config())

	run := func(id string) error {
		start := time.Now()
		var tab *harness.Table
		var err error
		if id == shardexp.ID {
			tab, err = shardexp.Run(shardexp.Config{Seed: *seed})
		} else if id == cacheexp.ID {
			tab, err = cacheexp.Run(cacheexp.Config{Seed: *seed})
		} else {
			tab, err = r.ByID(id)
		}
		if err != nil {
			return err
		}
		if *format == "csv" {
			fmt.Printf("# %s: %s\n", tab.ID, tab.Title)
			if err := tab.WriteCSV(os.Stdout); err != nil {
				return err
			}
			fmt.Println()
			return nil
		}
		tab.Print(os.Stdout)
		fmt.Printf("  (%s in %v wall time)\n\n", id, time.Since(start).Round(time.Millisecond))
		return nil
	}

	if strings.EqualFold(*exp, "all") {
		for _, id := range experimentIDs() {
			if err := run(id); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				os.Exit(1)
			}
		}
		return
	}
	if err := run(*exp); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

// explainDemo shows the composable query surface over the experiment
// substrate: it loads a micro-benchmark-shaped table through the
// public API and prints the optimizer's Explain plan for a
// multi-predicate builder query at the given selectivity, with and
// without ANALYZE statistics.
func explainDemo(selArg string, seed int64) error {
	sel, err := strconv.ParseFloat(selArg, 64)
	if err != nil || sel <= 0 || sel > 1 {
		return fmt.Errorf("-plan wants a selectivity in (0,1], got %q", selArg)
	}
	const rows, domain = 100_000, 100_000
	db, err := smoothscan.Open(smoothscan.Options{})
	if err != nil {
		return err
	}
	tb, err := db.CreateTable("micro", "id", "val", "payload")
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	for i := int64(0); i < rows; i++ {
		if err := tb.Append(i, rng.Int63n(domain), rng.Int63n(1000)); err != nil {
			return err
		}
	}
	if err := tb.Finish(); err != nil {
		return err
	}
	if err := db.CreateIndex("micro", "val"); err != nil {
		return err
	}
	width := int64(float64(domain) * sel)
	if width < 1 {
		width = 1
	}
	q := func() *smoothscan.Query {
		return db.Query("micro").
			Where("val", smoothscan.Between(0, width)).
			Where("payload", smoothscan.Lt(500)).
			Select("id", "val").
			OrderBy("val").
			WithOptions(smoothscan.ScanOptions{Path: smoothscan.PathAuto})
	}
	plan, err := q().Explain()
	if err != nil {
		return err
	}
	fmt.Printf("selectivity %.4f, no statistics (uniformity assumption):\n%s\n", sel, plan)
	if err := db.Analyze("micro", "val", "payload"); err != nil {
		return err
	}
	plan, err = q().Explain()
	if err != nil {
		return err
	}
	fmt.Printf("after ANALYZE:\n%s", plan)
	return nil
}
