package tpch

import (
	"fmt"

	"smoothscan/internal/access"
	"smoothscan/internal/bufferpool"
	"smoothscan/internal/exec"
	"smoothscan/internal/plan"
	"smoothscan/internal/tuple"
)

// Q12 is the shipping-modes-and-order-priority query — the paper's
// headline Figure 1 casualty: after tuning, DBMS-X underestimates the
// qualifying LINEITEM cardinality so badly that it flips the plan to a
// nested-loop join driven by index look-ups, and the query goes from a
// minute to eleven hours (a factor of ~400).
//
// This file reproduces the mechanism at the plan level. The query
// joins LINEITEM (receipt dates in a ~60%-selectivity window) with
// ORDERS and counts lines per order priority. Three physical plans:
//
//   - Q12PlanHash — the sane original: scan LINEITEM once, hash-join
//     ORDERS. Cost is two sequential scans.
//   - Q12PlanTunedINLJ — the tuned regression: an index scan drives
//     LINEITEM through the shipdate index (the optimizer believed the
//     window was tiny), probing ORDERS per tuple. Because index order
//     decorrelates from physical order, both the LINEITEM accesses and
//     the ORDERS probes are random: the "table look-up" blow-up.
//   - Q12PlanSmooth — the same plan shape with Smooth Scan as the
//     LINEITEM access path and the §IV-B morphing inner for ORDERS:
//     no re-optimization, yet near-original performance.
type Q12Plan int

// Q12 physical plans.
const (
	Q12PlanHash Q12Plan = iota
	Q12PlanTunedINLJ
	Q12PlanSmooth
)

func (p Q12Plan) String() string {
	switch p {
	case Q12PlanHash:
		return "hash-join (original)"
	case Q12PlanTunedINLJ:
		return "index-scan + INLJ (tuned)"
	case Q12PlanSmooth:
		return "smooth-scan + morphing INLJ"
	default:
		return fmt.Sprintf("Q12Plan(%d)", int(p))
	}
}

// Q12 runs the query under the chosen physical plan. All plans return
// the identical result.
func (db *DB) Q12(pool *bufferpool.Pool, p Q12Plan) (QueryResult, error) {
	pred := db.ShipdatePred(0.60)
	priCol := lineitemCols + OOrderpriority

	buildAgg := func(joined exec.Operator) exec.Operator {
		keyed := exec.NewProject(joined, tuple.Ints(1), func(r tuple.Row) tuple.Row {
			return tuple.IntsRow(r.Int(priCol))
		})
		return exec.NewHashAgg(keyed, pool.Channel(), 0, []exec.AggSpec{
			{Name: "line_count", Col: 0, Kind: exec.AggCount},
		})
	}

	switch p {
	case Q12PlanHash:
		scan, err := db.ScanLineitem(pool, pred, ScanSpec{Path: plan.PathFull})
		if err != nil {
			return QueryResult{}, err
		}
		orders := access.NewFullScan(db.Orders.File, pool, tuple.All(OOrderkey))
		join := exec.NewHashJoinBatch(scan, orders, pool.Channel(), LOrderkey, OOrderkey, false)
		return run(buildAgg(join))
	case Q12PlanTunedINLJ:
		scan, err := db.ScanLineitem(pool, pred, ScanSpec{Path: plan.PathIndex})
		if err != nil {
			return QueryResult{}, err
		}
		join := exec.NewIndexNestedLoopJoin(scan, exec.NewIndexLookup(db.Orders.File, pool, db.Orders.PK), LOrderkey)
		return run(buildAgg(join))
	case Q12PlanSmooth:
		scan, err := db.ScanLineitem(pool, pred, ScanSpec{Path: plan.PathSmooth, Smooth: DefaultSmooth()})
		if err != nil {
			return QueryResult{}, err
		}
		join := exec.NewIndexNestedLoopJoin(scan, exec.NewMorphingLookup(db.Orders.File, pool, db.Orders.PK, OOrderkey), LOrderkey)
		return run(buildAgg(join))
	default:
		return QueryResult{}, fmt.Errorf("tpch: unknown Q12 plan %d", p)
	}
}
