package smoothscan_test

import (
	"context"
	"fmt"
	"math/rand"

	"smoothscan"
)

// Skewed analytics: the paper's Section VI-D scenario. A sensor table
// whose error events cluster at the start (a bad deployment week)
// followed by rare scattered errors. One execution strategy cannot
// serve both regions; the Elastic policy morphs two ways — expanding
// through the dense head, shrinking through the sparse tail — while
// the Selectivity-Increase ratchet over-reads the tail dramatically.
func Example_skewedAnalytics() {
	db, err := smoothscan.Open(smoothscan.Options{Disk: smoothscan.HDD, PoolPages: 512})
	if err != nil {
		panic(err)
	}

	// readings(id, status, 8 payload columns): the first 20,000 rows
	// are errors (status 0) — the bad deployment week, physically
	// clustered at the start of the heap — then one error in 10,000.
	const n = 200_000
	tb, err := db.CreateTable("readings",
		"id", "status", "v1", "v2", "v3", "v4", "v5", "v6", "v7", "v8")
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := int64(0); i < n; i++ {
		status := int64(1 + rng.Int63n(999)) // healthy codes 1..999
		if i < 20_000 || i%10_000 == 0 {
			status = 0 // error
		}
		if err := tb.Append(i, status,
			rng.Int63n(1_000_000), 0, 0, 0, 0, 0, 0, 0); err != nil {
			panic(err)
		}
	}
	if err := tb.Finish(); err != nil {
		panic(err)
	}
	if err := db.CreateIndex("readings", "status"); err != nil {
		panic(err)
	}
	pages, _ := db.NumPages("readings")
	fmt.Printf("%d rows on %d pages; errors: dense head (10%%) + sparse tail\n\n", int64(n), pages)

	for _, policy := range []struct {
		name string
		p    smoothscan.Policy
	}{
		{"SelectivityIncrease (ratchet)", smoothscan.SelectivityIncrease},
		{"Elastic (two-way morphing)", smoothscan.Elastic},
	} {
		db.ColdCache()
		db.ResetStats()
		rows, err := db.Query("readings").Where("status", smoothscan.Between(0, 1)).
			WithOptions(smoothscan.ScanOptions{Policy: policy.p}).Run(context.Background())
		if err != nil {
			panic(err)
		}
		count := 0
		for rows.Next() {
			count++
		}
		if rows.Err() != nil {
			panic(rows.Err())
		}
		st := db.Stats()
		ss, _ := rows.SmoothStats()
		fmt.Printf("%-32s %5d errors  time=%8.1f  pages-fetched=%6d  expansions=%d shrinks=%d\n",
			policy.name, count, st.Time(), ss.PagesFetched, ss.Expansions, ss.Shrinks)
		rows.Close()
	}

	fmt.Println("\nthe ratchet keeps its huge morphing region after the dense head and")
	fmt.Println("drags most of the table in; Elastic shrinks back and touches a fraction.")
	// Output:
	// 200000 rows on 1961 pages; errors: dense head (10%) + sparse tail
	//
	// SelectivityIncrease (ratchet)    20018 errors  time=  1776.5  pages-fetched=  1378  expansions=7 shrinks=0
	// Elastic (two-way morphing)       20018 errors  time=   767.5  pages-fetched=   397  expansions=13 shrinks=12
	//
	// the ratchet keeps its huge morphing region after the dense head and
	// drags most of the table in; Elastic shrinks back and touches a fraction.
}
