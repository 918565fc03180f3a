package smoothscan_test

import (
	"context"
	"fmt"
	"math/rand"

	"smoothscan"
)

// Multi-table joins through the Query builder: a fact table joined to
// a dimension table, with per-table predicates pushed beneath the
// join into each side's access path. The example prints the Explain
// join tree (build/probe sides, per-input paths and estimates), runs
// the query, and reads the join's build/probe counters and the
// build-phase I/O split out of Rows.ExecStats.
func Example_join() {
	db, err := smoothscan.Open(smoothscan.Options{})
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(3))

	// Dimension: 10,000 orders with a date and a priority.
	const numOrders = 10_000
	ob, err := db.CreateTable("orders", "o_id", "o_date", "o_pri")
	if err != nil {
		panic(err)
	}
	for i := int64(0); i < numOrders; i++ {
		if err := ob.Append(i, rng.Int63n(2_000), rng.Int63n(5)); err != nil {
			panic(err)
		}
	}
	if err := ob.Finish(); err != nil {
		panic(err)
	}

	// Fact: 200,000 line items, each referencing an order.
	ib, err := db.CreateTable("items", "i_id", "i_order", "i_date", "i_qty")
	if err != nil {
		panic(err)
	}
	for i := int64(0); i < 200_000; i++ {
		if err := ib.Append(i, rng.Int63n(numOrders), rng.Int63n(2_000), 1+rng.Int63n(50)); err != nil {
			panic(err)
		}
	}
	if err := ib.Finish(); err != nil {
		panic(err)
	}
	for _, ix := range [][2]string{{"items", "i_date"}, {"orders", "o_date"}, {"items", "i_order"}, {"orders", "o_id"}} {
		if err := db.CreateIndex(ix[0], ix[1]); err != nil {
			panic(err)
		}
	}

	// Recent items joined to early orders, quantities per priority.
	// Each conjunct is pushed beneath the join into its own table's
	// access path: i_date drives the items scan, o_date the orders
	// scan feeding the hash build.
	query := func() *smoothscan.Query {
		return db.Query("items").
			Join("orders", "i_order", "o_id").
			Where("i_date", smoothscan.Lt(200)).
			Where("o_date", smoothscan.Lt(1_000)).
			Select("o_pri", "i_qty").
			GroupBy("o_pri", smoothscan.Count(), smoothscan.Sum("i_qty"))
	}

	plan, err := query().Explain()
	if err != nil {
		panic(err)
	}
	fmt.Printf("plan:\n%s\n", plan)

	rows, err := query().Run(context.Background())
	if err != nil {
		panic(err)
	}
	defer rows.Close()
	fmt.Println("o_pri  count  sum_qty")
	for rows.Next() {
		r := rows.Row()
		fmt.Printf("%5d  %5d  %7d\n", r[0], r[1], r[2])
	}
	if err := rows.Err(); err != nil {
		panic(err)
	}
	if err := rows.Close(); err != nil {
		panic(err)
	}

	st := rows.ExecStats()
	for _, j := range st.Joins {
		buildRows, probeRows := j.RightRows, j.LeftRows
		if j.BuildLeft {
			buildRows, probeRows = j.LeftRows, j.RightRows
		}
		fmt.Printf("\n%s join: build %d rows (%d keys, %.0f cost units of I/O), probe %d rows, joined %d\n",
			j.Algo, buildRows, j.BuildKeys, j.BuildIO.Time(), probeRows, j.OutputRows)
	}
	fmt.Printf("total simulated I/O+CPU: %.0f cost units over %d device reads\n",
		st.IO.Time(), st.IO.PagesRead)
	fmt.Println("\nconclusion: one builder chain plans both access paths, pushes each\n" +
		"predicate beneath the join, and the probe side still morphs adaptively.")
	// Output:
	// plan:
	// Query(items ⋈ orders)
	// └─ hash-agg(group by o_pri: count, sum_i_qty)     est≈? rows
	//    └─ project(o_pri, i_qty)                       est≈22220 rows
	//       └─ hash-join(i_order = orders.o_id, build=orders, probe=items) est≈22220 rows
	//          └─ smooth-scan(items: i_date<200, policy=elastic, trigger=eager) est≈66667 rows
	//          └─ smooth-scan(orders: o_date<1000, policy=elastic, trigger=eager) est≈3333 rows
	//
	// o_pri  count  sum_qty
	//     0   1944    49606
	//     1   2048    52120
	//     2   1982    50242
	//     3   2002    50516
	//     4   1958    50979
	//
	// hash join: build 5018 rows (5018 keys, 141 cost units of I/O), probe 19911 rows, joined 9934
	// total simulated I/O+CPU: 1331 cost units over 879 device reads
	//
	// conclusion: one builder chain plans both access paths, pushes each
	// predicate beneath the join, and the probe side still morphs adaptively.
}
