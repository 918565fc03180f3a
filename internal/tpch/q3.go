package tpch

import (
	"smoothscan/internal/bufferpool"
	"smoothscan/internal/exec"
	"smoothscan/internal/plan"
	"smoothscan/internal/tuple"
)

// OrderDatePred returns a predicate on ORDERS.o_orderdate whose
// selectivity over the generated (uniform) order dates is sel:
// o_orderdate < threshold.
func (db *DB) OrderDatePred(sel float64) tuple.RangePred {
	span := int64(MaxDate - 151) // generator's o_orderdate domain
	if sel <= 0 {
		return tuple.RangePred{Col: OOrderdate, Lo: MinDate, Hi: MinDate}
	}
	if sel >= 1 {
		return tuple.RangePred{Col: OOrderdate, Lo: MinDate, Hi: MaxDate + 200}
	}
	return tuple.RangePred{Col: OOrderdate, Lo: MinDate, Hi: MinDate + int64(sel*float64(span))}
}

// ScanOrders builds a full-scan access over ORDERS with the predicate
// pushed into the page decode, through the shared plan layer.
func (db *DB) ScanOrders(pool *bufferpool.Pool, pred tuple.RangePred) (exec.Operator, error) {
	built, err := plan.Build(plan.ScanSpec{
		File: db.Orders.File,
		Pool: pool,
		Pred: pred,
		Path: plan.PathFull,
	})
	if err != nil {
		return nil, err
	}
	return built.Op, nil
}

// Q3 is the shipping-priority query (TPC-H Q3 restricted to the two
// big tables): LINEITEM under a shipdate predicate joined to ORDERS
// under an orderdate predicate on l_orderkey = o_orderkey, revenue
// aggregated per o_orderpriority. Unlike the Figure 4 queries' INLJ
// plans, Q3 runs the batched hash join: ORDERS (the smaller, filtered
// input) builds, the LINEITEM access path — the Smooth Scan morphing
// target — probes. lineSel and orderSel set each input's predicate
// selectivity; spec picks the LINEITEM access path, as everywhere
// else in this package.
func (db *DB) Q3(pool *bufferpool.Pool, spec plan.ScanSpec, lineSel, orderSel float64) (QueryResult, exec.JoinStats, error) {
	scan, err := db.ScanLineitem(pool, db.ShipdatePred(lineSel), spec)
	if err != nil {
		return QueryResult{}, exec.JoinStats{}, err
	}
	orders, err := db.ScanOrders(pool, db.OrderDatePred(orderSel))
	if err != nil {
		return QueryResult{}, exec.JoinStats{}, err
	}
	join, err := plan.BuildJoin(plan.JoinSpec{
		Left:     scan,
		Right:    orders,
		LeftCol:  LOrderkey,
		RightCol: OOrderkey,
		Algo:     plan.JoinHash,
		Ch:       pool.Channel(),
	})
	if err != nil {
		return QueryResult{}, exec.JoinStats{}, err
	}
	priCol := lineitemCols + OOrderpriority
	keyed := exec.NewProject(join, tuple.Ints(2), func(r tuple.Row) tuple.Row {
		return tuple.IntsRow(
			r.Int(priCol),
			r.Int(LExtendedprice)*(100-r.Int(LDiscount))/100,
		)
	})
	agg := exec.NewHashAgg(keyed, pool.Channel(), 0, []exec.AggSpec{
		{Name: "revenue", Col: 1, Kind: exec.AggSum},
		{Name: "order_count", Col: 0, Kind: exec.AggCount},
	})
	res, err := run(agg)
	return res, join.(exec.JoinStatser).JoinStats(), err
}
