package smoothscan_test

import (
	"context"
	"fmt"
	"math/rand"

	"smoothscan"
)

// Quickstart: load a table, build a secondary index, and run composable
// queries with the Smooth Scan access path — no statistics required.
func Example_quickstart() {
	// A database on a simulated HDD (random I/O 10x slower than
	// sequential) with a 256-page buffer pool.
	db, err := smoothscan.Open(smoothscan.Options{Disk: smoothscan.HDD, PoolPages: 256})
	if err != nil {
		panic(err)
	}

	// Orders: (id, amount_cents, items). 50,000 rows, amounts uniform.
	tb, err := db.CreateTable("orders", "id", "amount", "items")
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(2024))
	for i := int64(0); i < 50_000; i++ {
		if err := tb.Append(i, rng.Int63n(10_000_00), 1+rng.Int63n(8)); err != nil {
			panic(err)
		}
	}
	if err := tb.Finish(); err != nil {
		panic(err)
	}
	if err := db.CreateIndex("orders", "amount"); err != nil {
		panic(err)
	}

	// Query: orders between 100.00 and 150.00 with few items — ranges
	// whose cardinality an optimizer must guess. Smooth Scan does not
	// care: it adapts while running. The builder composes the pipeline;
	// the second predicate rides along as a residual evaluated inside
	// the page decode.
	q := db.Query("orders").
		Where("amount", smoothscan.Between(100_00, 150_00)).
		Where("items", smoothscan.Lt(4)).
		Select("id", "amount")

	// Explain compiles the query without touching the device.
	plan, err := q.Explain()
	if err != nil {
		panic(err)
	}
	fmt.Print(plan)

	rows, err := q.Run(context.Background())
	if err != nil {
		panic(err)
	}
	defer rows.Close()
	var count, total int64
	for rows.Next() {
		amount, _ := rows.Col("amount")
		total += amount
		count++
	}
	if rows.Err() != nil {
		panic(rows.Err())
	}
	if err := rows.Close(); err != nil {
		panic(err)
	}

	fmt.Printf("matched %d orders, total %d.%02d\n", count, total/100, total%100)

	// ExecStats unifies the query's observability: its own I/O account,
	// Smooth Scan morphing counters, per-operator row counts.
	st := rows.ExecStats()
	fmt.Printf("simulated cost: %.1f units (%.1f I/O + %.1f CPU), %d pages read\n",
		st.IO.Time(), st.IO.IOTime, st.IO.CPUTime, st.IO.PagesRead)
	if st.HasSmooth {
		fmt.Printf("smooth scan: fetched %d heap pages, morphing accuracy %.0f%%, peak region %d pages\n",
			st.Smooth.PagesFetched, 100*st.Smooth.MorphingAccuracy(), st.Smooth.PeakRegionPages)
	}
	for _, op := range st.Operators {
		fmt.Printf("operator %-12s %6d rows in %d batches\n", op.Name, op.Rows, op.Batches)
	}
	// Output:
	// Query(orders) via smooth
	// └─ project(id, amount)                            est≈5556 rows
	//    └─ smooth-scan(orders: 10000<=amount<15000, policy=elastic, trigger=eager, residual: items<4) est≈5556 rows
	// matched 102 orders, total 12728.34
	// simulated cost: 545.7 units (496.0 I/O + 49.7 CPU), 149 pages read
	// smooth scan: fetched 147 heap pages, morphing accuracy 48%, peak region 128 pages
	// operator smooth          102 rows in 1 batches
	// operator project         102 rows in 1 batches
}
