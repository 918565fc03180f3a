// SLA guard: Section III-C's SLA-driven trigger. A dashboard query
// must finish within a budget (here: 2.5 full scans' worth of I/O)
// no matter what the selectivity turns out to be. The scan starts as
// a cheap index look-up and, at the cost-model-computed point where a
// worst-case completion would endanger the SLA, morphs into Smooth
// Scan behaviour — bounding the damage a wrong cardinality estimate
// can do.
package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"

	"smoothscan"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

func run() error {
	db, err := smoothscan.Open(smoothscan.Options{Disk: smoothscan.HDD, PoolPages: 512})
	if err != nil {
		return err
	}
	const n = 150_000
	tb, err := db.CreateTable("metrics", "c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8", "c9", "c10")
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(3))
	for i := int64(0); i < n; i++ {
		if err := tb.Append(i, rng.Int63n(100_000), 0, 0, 0, 0, 0, 0, 0, 0); err != nil {
			return err
		}
	}
	if err := tb.Finish(); err != nil {
		return err
	}
	if err := db.CreateIndex("metrics", "c2"); err != nil {
		return err
	}

	fullScan, err := db.FullScanCost("metrics")
	if err != nil {
		return err
	}
	sla := 2.5 * fullScan
	fmt.Printf("full scan costs %.0f units; SLA budget = %.0f units\n\n", fullScan, sla)

	// The dashboard believes the filter is selective — but today every
	// row matches (selectivity 100%), the paper's nightmare scenario
	// for a plain index scan.
	for _, variant := range []struct {
		label string
		opts  smoothscan.ScanOptions
	}{
		{"plain index scan", smoothscan.ScanOptions{Path: smoothscan.PathIndex}},
		{"SLA-guarded smooth scan", smoothscan.ScanOptions{
			Policy:   smoothscan.Greedy, // converge hard once triggered
			Trigger:  smoothscan.SLADriven,
			SLABound: sla,
		}},
	} {
		db.ColdCache()
		db.ResetStats()
		rows, err := db.Query("metrics").Where("c2", smoothscan.Between(0, 100_000)).
			WithOptions(variant.opts).Run(context.Background())
		if err != nil {
			return err
		}
		count := 0
		for rows.Next() {
			count++
		}
		if rows.Err() != nil {
			return rows.Err()
		}
		st := db.Stats()
		verdict := "within SLA"
		if st.IOTime > sla {
			verdict = fmt.Sprintf("SLA VIOLATED by %.1fx", st.IOTime/sla)
		}
		fmt.Printf("%-26s %d rows, I/O=%9.0f units  -> %s\n", variant.label, count, st.IOTime, verdict)
		if ss, ok := rows.SmoothStats(); ok {
			fmt.Printf("%-26s morphing triggered after %d tuples (cost-model decision)\n", "", ss.TriggeredAt)
		}
		rows.Close()
	}
	return nil
}
