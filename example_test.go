package smoothscan_test

import (
	"context"
	"fmt"

	"smoothscan"
)

// Example shows the minimal end-to-end flow: load, index, scan with
// the default (Smooth Scan) access path.
func Example() {
	db, err := smoothscan.Open(smoothscan.Options{})
	if err != nil {
		panic(err)
	}
	tb, err := db.CreateTable("t", "id", "val")
	if err != nil {
		panic(err)
	}
	for i := int64(0); i < 1000; i++ {
		if err := tb.Append(i, i%10); err != nil {
			panic(err)
		}
	}
	if err := tb.Finish(); err != nil {
		panic(err)
	}
	if err := db.CreateIndex("t", "val"); err != nil {
		panic(err)
	}

	rows, err := db.Query("t").Where("val", smoothscan.Between(3, 5)).Run(context.Background())
	if err != nil {
		panic(err)
	}
	defer rows.Close()
	count := 0
	for rows.Next() {
		count++
	}
	if rows.Err() != nil {
		panic(rows.Err())
	}
	fmt.Println("matched:", count)
	// Output: matched: 200
}

// ExampleQuery_WithOptions_orderedSmooth demonstrates index-key-ordered
// delivery through the Result Cache.
func ExampleQuery_WithOptions_orderedSmooth() {
	db, _ := smoothscan.Open(smoothscan.Options{})
	tb, _ := db.CreateTable("t", "id", "val")
	for _, v := range []int64{5, 3, 9, 3, 7} {
		tb.Append(0, v)
	}
	tb.Finish()
	db.CreateIndex("t", "val")

	rows, _ := db.Query("t").Where("val", smoothscan.Between(0, 10)).
		WithOptions(smoothscan.ScanOptions{Ordered: true}).Run(context.Background())
	defer rows.Close()
	for rows.Next() {
		v, _ := rows.Col("val")
		fmt.Print(v, " ")
	}
	fmt.Println()
	// Output: 3 3 5 7 9
}

// ExampleQuery_WithOptions_accessPaths runs the same query under
// different access paths; the result is identical, the cost profile is
// not.
func ExampleQuery_WithOptions_accessPaths() {
	db, _ := smoothscan.Open(smoothscan.Options{})
	tb, _ := db.CreateTable("t", "id", "val")
	for i := int64(0); i < 5000; i++ {
		tb.Append(i, i%100)
	}
	tb.Finish()
	db.CreateIndex("t", "val")

	for _, p := range []smoothscan.AccessPath{
		smoothscan.PathFull, smoothscan.PathIndex, smoothscan.PathSmooth,
	} {
		db.ColdCache()
		rows, _ := db.Query("t").Where("val", smoothscan.Between(10, 20)).
			WithOptions(smoothscan.ScanOptions{Path: p}).Run(context.Background())
		n := 0
		for rows.Next() {
			n++
		}
		rows.Close()
		fmt.Printf("%s: %d rows\n", p, n)
	}
	// Output:
	// full: 500 rows
	// index: 500 rows
	// smooth: 500 rows
}

// ExampleDB_FullScanCost shows expressing an SLA bound in terms of the
// cost model, the paper's Section III-C strategy.
func ExampleDB_FullScanCost() {
	db, _ := smoothscan.Open(smoothscan.Options{})
	// Realistic 80-byte tuples: on very narrow tables the index is as
	// large as the heap and fixed seek costs dominate any SLA budget.
	tb, _ := db.CreateTable("t", "c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8", "c9", "c10")
	for i := int64(0); i < 50_000; i++ {
		tb.Append(i, (i*7919)%50_000, 0, 0, 0, 0, 0, 0, 0, 0)
	}
	tb.Finish()
	db.CreateIndex("t", "c2")

	fs, _ := db.FullScanCost("t")
	db.ResetStats()
	rows, err := db.Query("t").Where("c2", smoothscan.Between(0, 50_000)).
		WithOptions(smoothscan.ScanOptions{
			Trigger:  smoothscan.SLADriven,
			Policy:   smoothscan.Greedy,
			SLABound: 2 * fs,
		}).Run(context.Background())
	if err != nil {
		panic(err)
	}
	defer rows.Close()
	n := 0
	for rows.Next() {
		n++
	}
	fmt.Println("rows:", n, "within SLA:", db.Stats().IOTime <= 2*fs)
	// Output: rows: 50000 within SLA: true
}

// ExampleDB_Query composes a multi-predicate aggregation with the
// builder: the optimizer drives the scan by the indexed predicate and
// pushes the other conjunct into the page decode as a residual.
func ExampleDB_Query() {
	db, _ := smoothscan.Open(smoothscan.Options{})
	tb, _ := db.CreateTable("orders", "id", "amount", "items")
	for i := int64(0); i < 10_000; i++ {
		tb.Append(i, i%500, i%7)
	}
	tb.Finish()
	db.CreateIndex("orders", "amount")

	rows, err := db.Query("orders").
		Where("amount", smoothscan.Between(100, 104)).
		Where("items", smoothscan.Lt(3)).
		GroupBy("amount", smoothscan.Count(), smoothscan.Sum("items")).
		OrderBy("amount").
		Run(context.Background())
	if err != nil {
		panic(err)
	}
	defer rows.Close()
	for rows.Next() {
		amount, _ := rows.Col("amount")
		n, _ := rows.Col("count")
		fmt.Printf("amount %d: %d orders\n", amount, n)
	}
	// Output:
	// amount 100: 9 orders
	// amount 101: 8 orders
	// amount 102: 8 orders
	// amount 103: 8 orders
}

// ExampleQuery_Explain prints the compiled plan without executing the
// query (no simulated I/O is charged).
func ExampleQuery_Explain() {
	db, _ := smoothscan.Open(smoothscan.Options{})
	tb, _ := db.CreateTable("t", "id", "val", "tag")
	for i := int64(0); i < 5_000; i++ {
		tb.Append(i, i%100, i%9)
	}
	tb.Finish()
	db.CreateIndex("t", "val")

	plan, err := db.Query("t").
		Where("val", smoothscan.Between(10, 20)).
		Where("tag", smoothscan.Eq(3)).
		Select("id", "val").
		Limit(5).
		Explain()
	if err != nil {
		panic(err)
	}
	fmt.Print(plan)
	// Output:
	// Query(t) via smooth
	// └─ limit(5)                                       est≈5 rows
	//    └─ project(id, val)                            est≈556 rows
	//       └─ smooth-scan(t: 10<=val<20, policy=elastic, trigger=eager, residual: tag=3) est≈556 rows
}
