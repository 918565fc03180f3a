package smoothscan_test

import (
	"context"
	"fmt"
	"math/rand"

	"smoothscan"
)

// Statistics-oblivious execution: the paper's core claim. Yesterday,
// tenant 7 had a hundred log events, so the plan cache holds an index
// scan for "events of tenant 7". Overnight a misbehaving client made
// tenant 7 responsible for 70% of the table. The cached index plan
// collapses; a freshly optimized plan would be fine — but only after
// someone re-runs ANALYZE and invalidates the plan. Smooth Scan needs
// neither: it is the same operator in both worlds and lands near the
// optimum in each.
func Example_statisticsOblivious() {
	db, err := smoothscan.Open(smoothscan.Options{Disk: smoothscan.HDD, PoolPages: 512})
	if err != nil {
		panic(err)
	}

	// Today's data: 70% of rows belong to tenant 7 (heavy skew).
	const n = 120_000
	tb, err := db.CreateTable("logs",
		"seq", "tenant", "p1", "p2", "p3", "p4", "p5", "p6", "p7", "p8")
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(11))
	for i := int64(0); i < n; i++ {
		tenant := int64(7)
		if rng.Int63n(100) < 30 {
			tenant = rng.Int63n(10_000)
		}
		if err := tb.Append(i, tenant, rng.Int63n(1_000_000), 0, 0, 0, 0, 0, 0, 0); err != nil {
			panic(err)
		}
	}
	if err := tb.Finish(); err != nil {
		panic(err)
	}
	if err := db.CreateIndex("logs", "tenant"); err != nil {
		panic(err)
	}

	query := func(label string, opts smoothscan.ScanOptions) (float64, error) {
		db.ColdCache()
		db.ResetStats()
		rows, err := db.Query("logs").Where("tenant", smoothscan.Between(7, 8)).
			WithOptions(opts).Run(context.Background())
		if err != nil {
			return 0, err
		}
		count := 0
		for rows.Next() {
			count++
		}
		if rows.Err() != nil {
			return 0, rows.Err()
		}
		st := db.Stats()
		fmt.Printf("%-38s %6d rows  time=%9.1f\n", label, count, st.Time())
		return st.Time(), rows.Close()
	}

	fmt.Println("query: all events of tenant 7 (truly ~70% of the table today)")
	fmt.Println()
	stale, err := query("yesterday's cached plan (index scan)", smoothscan.ScanOptions{Path: smoothscan.PathIndex})
	if err != nil {
		panic(err)
	}
	smooth, err := query("smooth scan (no statistics, no cache)", smoothscan.ScanOptions{})
	if err != nil {
		panic(err)
	}
	if err := db.Analyze("logs", "tenant"); err != nil {
		panic(err)
	}
	fresh, err := query("re-optimized plan (full scan)", smoothscan.ScanOptions{Path: smoothscan.PathFull})
	if err != nil {
		panic(err)
	}
	fmt.Println()
	fmt.Printf("the stale plan cost %.0fx the optimum; smooth scan, with zero knowledge,\n", stale/fresh)
	fmt.Printf("stayed within %.1fx of it — robustness without statistics.\n", smooth/fresh)
	// Output:
	// query: all events of tenant 7 (truly ~70% of the table today)
	//
	// yesterday's cached plan (index scan)    83907 rows  time=   5184.9
	// smooth scan (no statistics, no cache)   83907 rows  time=   1684.0
	// re-optimized plan (full scan)           83907 rows  time=   1306.0
	//
	// the stale plan cost 4x the optimum; smooth scan, with zero knowledge,
	// stayed within 1.3x of it — robustness without statistics.
}
