package smoothscan_test

import (
	"context"
	"fmt"
	"math/rand"

	"smoothscan"
)

// Prepared statements: compile a parameterized query once with
// DB.Prepare, then execute it many times with different Bind sets.
// The structural work — name resolution, join shape, projection —
// happens once at Prepare; every Run re-decides only the
// estimate-sensitive choices from the statistics of the moment. The
// same Stmt therefore flips its driving index between two bind sets:
// a narrow type window drives by the type index, a narrow timestamp
// window drives by the timestamp index, with the losing conjunct
// pushed down as a residual each time.
func Example_prepared() {
	db, err := smoothscan.Open(smoothscan.Options{})
	if err != nil {
		panic(err)
	}

	// Events: a wide timestamp domain and a narrow type domain, both
	// indexed, with statistics so the bind phase can compare the
	// conjuncts' selectivities.
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
	if err := db.Analyze("events", "ts", "type"); err != nil {
		panic(err)
	}

	// One statement, four parameters. Param placeholders go anywhere a
	// literal goes — predicate bounds here; Limit works too.
	stmt, err := db.Prepare(db.Query("events").
		Where("ts", smoothscan.Between(smoothscan.Param("ts_lo"), smoothscan.Param("ts_hi"))).
		Where("type", smoothscan.Between(smoothscan.Param("ty_lo"), smoothscan.Param("ty_hi"))))
	if err != nil {
		panic(err)
	}
	fmt.Printf("prepared with parameters %v\n\n", stmt.Params())

	show := func(title string, b smoothscan.Bind) error {
		plan, err := stmt.Explain(b)
		if err != nil {
			return err
		}
		fmt.Printf("-- %s\n%s", title, plan)
		rows, err := stmt.Run(context.Background(), b)
		if err != nil {
			return err
		}
		n := 0
		for rows.Next() {
			n++
		}
		if err := rows.Err(); err != nil {
			rows.Close()
			return err
		}
		st := rows.ExecStats()
		if err := rows.Close(); err != nil {
			return err
		}
		fmt.Printf("   -> %d rows, plan reused: %v\n\n", n, st.PlanCacheHit)
		return nil
	}

	// Bind set 1: wide ts window, single type value — the type index
	// drives, ts becomes the residual.
	if err := show("narrow type (type index drives)", smoothscan.Bind{
		"ts_lo": 100_000, "ts_hi": 900_000, "ty_lo": 42, "ty_hi": 43,
	}); err != nil {
		panic(err)
	}

	// Bind set 2: narrow ts window, wide type range — the SAME
	// statement now drives by the ts index.
	if err := show("narrow ts (ts index drives)", smoothscan.Bind{
		"ts_lo": 500_000, "ts_hi": 505_000, "ty_lo": 10, "ty_hi": 90,
	}); err != nil {
		panic(err)
	}

	// Ad-hoc queries share the machinery transparently: same canonical
	// shape -> same cached template, visible in the DB-wide counters.
	for i := 0; i < 3; i++ {
		rows, err := db.Query("events").Where("ts", smoothscan.Lt(1_000+int64(i))).Run(context.Background())
		if err != nil {
			panic(err)
		}
		for rows.Next() {
		}
		rows.Close()
	}
	cs := db.PlanCacheStats()
	fmt.Printf("plan cache: %d hits, %d misses, %d entries\n", cs.Hits, cs.Misses, cs.Entries)
	// Output:
	// prepared with parameters [ts_lo ts_hi ty_lo ty_hi]
	//
	// -- narrow type (type index drives)
	// Query(events) via smooth
	//    bind: $ts_hi=900000, $ts_lo=100000, $ty_hi=43, $ty_lo=42
	//    re-planned at bind: driving(events)=type
	// └─ smooth-scan(events: $ty_lo<=type<$ty_hi, policy=elastic, trigger=eager, residual: $ts_lo<=ts<$ts_hi) est≈1211 rows
	//    -> 1536 rows, plan reused: true
	//
	// -- narrow ts (ts index drives)
	// Query(events) via smooth
	//    bind: $ts_hi=505000, $ts_lo=500000, $ty_hi=90, $ty_lo=10
	//    re-planned at bind: driving(events)=ts
	// └─ smooth-scan(events: $ts_lo<=ts<$ts_hi, policy=elastic, trigger=eager, residual: $ty_lo<=type<$ty_hi) est≈809 rows
	//    -> 778 rows, plan reused: true
	//
	// plan cache: 2 hits, 2 misses, 2 entries
}
