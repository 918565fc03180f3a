// Command ssdemo is a guided walk-through of the Smooth Scan library:
// it loads a table, runs the same query under every access path and
// narrates what the morphing operator did.
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
	fmt.Println("Smooth Scan demo — statistics-oblivious access paths")
	fmt.Println()

	db, err := smoothscan.Open(smoothscan.Options{Disk: smoothscan.HDD, PoolPages: 512})
	if err != nil {
		return err
	}
	const n = 100_000
	fmt.Printf("loading %d rows (10 int columns, secondary index on c2)...\n", n)
	tb, err := db.CreateTable("events", "c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8", "c9", "c10")
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(1))
	for i := int64(0); i < n; i++ {
		if err := tb.Append(i, rng.Int63n(100_000), 0, 0, 0, 0, 0, 0, 0, 0); err != nil {
			return err
		}
	}
	if err := tb.Finish(); err != nil {
		return err
	}
	if err := db.CreateIndex("events", "c2"); err != nil {
		return err
	}
	pages, _ := db.NumPages("events")
	fmt.Printf("table occupies %d heap pages\n\n", pages)

	// The paper's stress query at two selectivities: a point-ish query
	// and a half-table query. The optimizer would need accurate
	// statistics to choose correctly; Smooth Scan needs nothing.
	for _, q := range []struct {
		label  string
		lo, hi int64
	}{
		{"0.1% selectivity (c2 < 100)", 0, 100},
		{"50% selectivity (c2 < 50000)", 0, 50_000},
	} {
		fmt.Printf("--- query: %s ---\n", q.label)
		for _, p := range []smoothscan.AccessPath{
			smoothscan.PathFull, smoothscan.PathIndex, smoothscan.PathSort, smoothscan.PathSmooth,
		} {
			db.ColdCache()
			db.ResetStats()
			rows, err := db.Query("events").Where("c2", smoothscan.Between(q.lo, q.hi)).
				WithOptions(smoothscan.ScanOptions{Path: p}).Run(context.Background())
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
			fmt.Printf("%-8s %7d rows  time=%8.1f  (io=%8.1f cpu=%6.1f rand=%6d seq=%7d)\n",
				p, count, st.Time(), st.IOTime, st.CPUTime, st.RandomAccesses, st.SeqAccesses)
			if ss, ok := rows.SmoothStats(); ok {
				fmt.Printf("         smooth: fetched %d pages (%d with results), skipped %d leaf ptrs, "+
					"region peaked at %d pages (%d expansions, %d shrinks)\n",
					ss.PagesFetched, ss.PagesWithResults, ss.LeafPointersSkipped,
					ss.PeakRegionPages, ss.Expansions, ss.Shrinks)
			}
			rows.Close()
		}
		fmt.Println()
	}
	fmt.Println("note how the index scan wins at 0.1% but collapses at 50%, while")
	fmt.Println("smooth scan stays near the best alternative at both extremes —")
	fmt.Println("without any cardinality estimate.")
	return nil
}
