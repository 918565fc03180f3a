package tpch

import (
	"fmt"

	"smoothscan/internal/bufferpool"
	"smoothscan/internal/exec"
	"smoothscan/internal/plan"
	"smoothscan/internal/tuple"
)

// ScanLineitem builds the LINEITEM access operator for a shipdate
// range predicate through the shared plan-construction layer
// (internal/plan) — the same constructor behind the public Query
// builder. spec names the access path and its knobs; ScanLineitem
// fills in the table, pool, index and predicate, so the TPC-H plans
// differ from user queries, and from each other, only in their
// declarative spec, exactly as the paper frames it ("the access path
// operator choice is the only change compared to the original plan",
// Section VI-B).
func (db *DB) ScanLineitem(pool *bufferpool.Pool, pred tuple.RangePred, spec plan.ScanSpec) (exec.Operator, error) {
	if pred.Col != LShipdate {
		return nil, fmt.Errorf("tpch: lineitem scans are driven by the l_shipdate index, got predicate on column %d", pred.Col)
	}
	spec.File, spec.Pool, spec.Tree, spec.Pred = db.Lineitem.File, pool, db.ShipIdx, pred
	built, err := plan.Build(spec)
	if err != nil {
		return nil, err
	}
	return built.Op, nil
}

// QueryResult summarises one query execution.
type QueryResult struct {
	// Rows is the number of rows the root operator produced.
	Rows int64
}

// run drains a query's root operator.
func run(root exec.Operator) (QueryResult, error) {
	n, err := exec.Count(root)
	return QueryResult{Rows: n}, err
}

// Q1 is the pricing-summary query: a ~98%-selectivity scan of
// LINEITEM aggregated by (returnflag, linestatus). The paper's plain
// PostgreSQL picks Sort Scan here (the optimal choice); Smooth Scan
// must add only marginal overhead.
func (db *DB) Q1(pool *bufferpool.Pool, spec plan.ScanSpec) (QueryResult, error) {
	pred := db.ShipdatePred(0.98)
	scan, err := db.ScanLineitem(pool, pred, spec)
	if err != nil {
		return QueryResult{}, err
	}
	// group key = returnflag*2 + linestatus (6 groups).
	keyed := exec.NewProject(scan, tuple.Ints(4), func(r tuple.Row) tuple.Row {
		return tuple.IntsRow(
			r.Int(LReturnflag)*2+r.Int(LLinestatus),
			r.Int(LQuantity),
			r.Int(LExtendedprice),
			r.Int(LDiscount),
		)
	})
	agg := exec.NewHashAgg(keyed, pool.Channel(), 0, []exec.AggSpec{
		{Name: "sum_qty", Col: 1, Kind: exec.AggSum},
		{Name: "sum_base_price", Col: 2, Kind: exec.AggSum},
		{Name: "count_order", Col: 0, Kind: exec.AggCount},
	})
	return run(agg)
}

// Q4 is the order-priority query: LINEITEM at ~65% selectivity as the
// outer of an index-nested-loop join with ORDERS (primary-key
// look-up), with the l_commitdate < l_receiptdate residual. Plain
// PostgreSQL correctly picks a full scan for the outer.
func (db *DB) Q4(pool *bufferpool.Pool, spec plan.ScanSpec) (QueryResult, error) {
	pred := db.ShipdatePred(0.65)
	scan, err := db.ScanLineitem(pool, pred, spec)
	if err != nil {
		return QueryResult{}, err
	}
	late := exec.NewFilter(scan, pool.Channel(), func(r tuple.Row) bool {
		return r.Int(LCommitdate) < r.Int(LReceiptdate)
	})
	join := exec.NewIndexNestedLoopJoin(late, exec.NewIndexLookup(db.Orders.File, pool, db.Orders.PK), LOrderkey)
	// o_orderdate lands after the 13 lineitem columns.
	ordCol := lineitemCols + OOrderdate
	priCol := lineitemCols + OOrderpriority
	quarter := exec.NewFilter(join, pool.Channel(), func(r tuple.Row) bool {
		d := r.Int(ordCol)
		return d >= 820 && d < 912 // one quarter
	})
	keyed := exec.NewProject(quarter, tuple.Ints(1), func(r tuple.Row) tuple.Row {
		return tuple.IntsRow(r.Int(priCol))
	})
	agg := exec.NewHashAgg(keyed, pool.Channel(), 0, []exec.AggSpec{
		{Name: "order_count", Col: 0, Kind: exec.AggCount},
	})
	return run(agg)
}

// Q6 is the forecasting-revenue query: a ~2%-selectivity predicate on
// LINEITEM with a global aggregate. This is the query where plain
// PostgreSQL's index-scan choice costs it a factor of 10 in the paper.
func (db *DB) Q6(pool *bufferpool.Pool, spec plan.ScanSpec) (QueryResult, error) {
	pred := db.ShipdatePred(0.02)
	scan, err := db.ScanLineitem(pool, pred, spec)
	if err != nil {
		return QueryResult{}, err
	}
	disc := exec.NewFilter(scan, pool.Channel(), func(r tuple.Row) bool {
		return r.Int(LDiscount) >= 2 && r.Int(LDiscount) <= 8 && r.Int(LQuantity) < 40
	})
	rev := exec.NewProject(disc, tuple.Ints(1), func(r tuple.Row) tuple.Row {
		return tuple.IntsRow(r.Int(LExtendedprice) * r.Int(LDiscount) / 100)
	})
	agg := exec.NewHashAgg(rev, pool.Channel(), -1, []exec.AggSpec{
		{Name: "revenue", Col: 0, Kind: exec.AggSum},
	})
	return run(agg)
}

// Q7 is the volume-shipping query: a six-table join driven by a ~30%
// scan of LINEITEM (joined to SUPPLIER, ORDERS, CUSTOMER and NATION
// twice). An index choice over LINEITEM costs plain PostgreSQL a
// factor of 7 in the paper.
func (db *DB) Q7(pool *bufferpool.Pool, spec plan.ScanSpec) (QueryResult, error) {
	pred := db.ShipdatePred(0.30)
	scan, err := db.ScanLineitem(pool, pred, spec)
	if err != nil {
		return QueryResult{}, err
	}
	// lineitem ⋈ supplier (s_suppkey).
	jSupp := exec.NewIndexNestedLoopJoin(scan, exec.NewIndexLookup(db.Supplier.File, pool, db.Supplier.PK), LSuppkey)
	sNation := lineitemCols + SNationkey
	// ⋈ orders (l_orderkey).
	jOrd := exec.NewIndexNestedLoopJoin(jSupp, exec.NewIndexLookup(db.Orders.File, pool, db.Orders.PK), LOrderkey)
	oCust := lineitemCols + supplierCols + OCustkey
	// ⋈ customer (o_custkey).
	jCust := exec.NewIndexNestedLoopJoin(jOrd, exec.NewIndexLookup(db.Customer.File, pool, db.Customer.PK), oCust)
	cNation := lineitemCols + supplierCols + ordersCols + CNationkey
	// nation pair filter: (supp ∈ 1, cust ∈ 2) or (supp ∈ 2, cust ∈ 1).
	pair := exec.NewFilter(jCust, pool.Channel(), func(r tuple.Row) bool {
		a, b := r.Int(sNation), r.Int(cNation)
		return (a == 1 && b == 2) || (a == 2 && b == 1)
	})
	year := exec.NewProject(pair, tuple.Ints(2), func(r tuple.Row) tuple.Row {
		return tuple.IntsRow(r.Int(LShipdate)/365, r.Int(LExtendedprice)*(100-r.Int(LDiscount))/100)
	})
	agg := exec.NewHashAgg(year, pool.Channel(), 0, []exec.AggSpec{
		{Name: "revenue", Col: 1, Kind: exec.AggSum},
	})
	return run(agg)
}

// Q14 is the promotion-effect query: LINEITEM at ~1% selectivity
// joined to PART by primary-key look-up. Smooth Scan beats the index
// scan by a factor of 8 in the paper.
func (db *DB) Q14(pool *bufferpool.Pool, spec plan.ScanSpec) (QueryResult, error) {
	pred := db.MonthPred(72) // one month, ≈1% of seven years
	scan, err := db.ScanLineitem(pool, pred, spec)
	if err != nil {
		return QueryResult{}, err
	}
	join := exec.NewIndexNestedLoopJoin(scan, exec.NewIndexLookup(db.Part.File, pool, db.Part.PK), LPartkey)
	pType := lineitemCols + PType
	rev := exec.NewProject(join, tuple.Ints(2), func(r tuple.Row) tuple.Row {
		promo := int64(0)
		if r.Int(pType) < 30 {
			promo = r.Int(LExtendedprice) * (100 - r.Int(LDiscount)) / 100
		}
		return tuple.IntsRow(promo, r.Int(LExtendedprice)*(100-r.Int(LDiscount))/100)
	})
	agg := exec.NewHashAgg(rev, pool.Channel(), -1, []exec.AggSpec{
		{Name: "promo_revenue", Col: 0, Kind: exec.AggSum},
		{Name: "total_revenue", Col: 1, Kind: exec.AggSum},
	})
	return run(agg)
}

// MonthPred returns a one-month shipdate range starting at the given
// month index (0-based from 1992-01).
func (db *DB) MonthPred(month int64) tuple.RangePred {
	lo := month * 30
	return tuple.RangePred{Col: LShipdate, Lo: lo, Hi: lo + 30}
}

// PaperPlans returns the access path plain PostgreSQL chose for each
// query in the paper's Figure 4 runs.
func PaperPlans() map[string]plan.Path {
	return map[string]plan.Path{
		"Q1":  plan.PathSort,  // optimal at 98%
		"Q4":  plan.PathFull,  // optimal at 65%
		"Q6":  plan.PathIndex, // suboptimal: costs 10× in the paper
		"Q7":  plan.PathIndex, // suboptimal: costs 7×
		"Q14": plan.PathIndex, // suboptimal: costs 8×
	}
}

// Queries returns the five benchmark queries keyed by name, with their
// nominal LINEITEM selectivities.
func (db *DB) Queries() []QuerySpec {
	return []QuerySpec{
		{Name: "Q1", Selectivity: 0.98, Run: db.Q1},
		{Name: "Q4", Selectivity: 0.65, Run: db.Q4},
		{Name: "Q6", Selectivity: 0.02, Run: db.Q6},
		{Name: "Q7", Selectivity: 0.30, Run: db.Q7},
		{Name: "Q14", Selectivity: 0.01, Run: db.Q14},
	}
}

// QuerySpec names one runnable query.
type QuerySpec struct {
	Name        string
	Selectivity float64
	Run         func(*bufferpool.Pool, plan.ScanSpec) (QueryResult, error)
}
