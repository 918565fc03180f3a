package smoothscan_test

import (
	"context"
	"fmt"
	"math/rand"

	"smoothscan"
)

// Multi-predicate queries: the optimizer picks which conjunct drives
// the scan. Two indexed columns with very different selectivities show
// the driving-index choice flipping as the predicates change — and the
// losing conjunct turning into a residual predicate evaluated inside
// the page decode, so rows failing it are never materialised.
func Example_multiPredicate() {
	db, err := smoothscan.Open(smoothscan.Options{})
	if err != nil {
		panic(err)
	}

	// Events: a wide timestamp domain and a narrow type domain, both
	// indexed. 200,000 rows.
	tb, err := db.CreateTable("events", "id", "ts", "type", "payload")
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := int64(0); i < 200_000; i++ {
		if err := tb.Append(i, rng.Int63n(1_000_000), rng.Int63n(100), rng.Int63n(1000)); err != nil {
			panic(err)
		}
	}
	if err := tb.Finish(); err != nil {
		panic(err)
	}
	for _, col := range []string{"ts", "type"} {
		if err := db.CreateIndex("events", col); err != nil {
			panic(err)
		}
	}
	// Statistics let the optimizer compare the conjuncts' true
	// selectivities (without Analyze it falls back to uniformity
	// assumptions — the paper's recipe for misestimation).
	if err := db.Analyze("events", "ts", "type"); err != nil {
		panic(err)
	}

	explain := func(title string, q *smoothscan.Query) error {
		plan, err := q.Explain()
		if err != nil {
			return err
		}
		fmt.Printf("-- %s\n%s\n", title, plan)
		return nil
	}

	// A narrow timestamp window dominates: ts drives, type is residual.
	if err := explain("narrow ts window, broad type set",
		db.Query("events").
			Where("ts", smoothscan.Between(500_000, 505_000)).
			Where("type", smoothscan.Ge(10))); err != nil {
		panic(err)
	}

	// Flip the widths: now the type equality is far more selective, so
	// the optimizer flips the driving index and ts becomes residual.
	if err := explain("broad ts window, single type",
		db.Query("events").
			Where("ts", smoothscan.Between(100_000, 900_000)).
			Where("type", smoothscan.Eq(42))); err != nil {
		panic(err)
	}

	// Run the flipped query and show the unified stats.
	rows, err := db.Query("events").
		Where("ts", smoothscan.Between(100_000, 900_000)).
		Where("type", smoothscan.Eq(42)).
		GroupBy("type", smoothscan.Count(), smoothscan.Sum("payload")).
		Run(context.Background())
	if err != nil {
		panic(err)
	}
	defer rows.Close()
	for rows.Next() {
		typ, _ := rows.Col("type")
		n, _ := rows.Col("count")
		sum, _ := rows.Col("sum_payload")
		fmt.Printf("type %d: %d events, payload sum %d\n", typ, n, sum)
	}
	if rows.Err() != nil {
		panic(rows.Err())
	}
	if err := rows.Close(); err != nil {
		panic(err)
	}
	st := rows.ExecStats()
	fmt.Printf("scan produced %d rows for the aggregate; device: %d pages read, %.1f cost units\n",
		st.Operators[0].Rows, st.IO.PagesRead, st.IO.Time())
	// Output:
	// -- narrow ts window, broad type set
	// Query(events) via smooth
	// └─ smooth-scan(events: 500000<=ts<505000, policy=elastic, trigger=eager, residual: type>=10) est≈904 rows
	//
	// -- broad ts window, single type
	// Query(events) via smooth
	// └─ smooth-scan(events: type=42, policy=elastic, trigger=eager, residual: 100000<=ts<900000) est≈1211 rows
	//
	// type 42: 1536 events, payload sum 765072
	// scan produced 1536 rows for the aggregate; device: 791 pages read, 1081.5 cost units
}
