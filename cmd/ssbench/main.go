// Command ssbench regenerates the tables and figures of the Smooth
// Scan paper's evaluation on the simulated substrate.
//
// Usage:
//
//	ssbench -list
//	ssbench -exp fig5a
//	ssbench -exp all -micro-rows 400000
//	ssbench -exp all -format csv      # CI equivalence diff
//
// Times are simulated cost units (one sequential 8 KB page read = 1);
// the reproduction targets the paper's shapes, not absolute seconds.
// Every table is deterministic; wall-clock performance is bench/'s job
// (BENCHMARK.json), not this harness's.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"smoothscan/internal/harness"
)

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
	)
	flag.Parse()
	if *format != "table" && *format != "csv" {
		fmt.Fprintf(os.Stderr, "ssbench: -format must be table or csv, got %q\n", *format)
		flag.Usage()
		os.Exit(2)
	}

	if *list {
		fmt.Println("experiments (paper order):")
		for _, id := range harness.IDs() {
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
		tab, err := r.ByID(id)
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

	ids := []string{*exp}
	if strings.EqualFold(*exp, "all") {
		ids = harness.IDs()
	}
	for _, id := range ids {
		if err := run(id); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
	}
}
