package tpch

import (
	"testing"

	"smoothscan/internal/bufferpool"
	"smoothscan/internal/disk"
	"smoothscan/internal/exec"
	"smoothscan/internal/plan"
	"smoothscan/internal/tuple"
)

// q3Oracle recomputes Q3's join row count per-tuple from full drains
// of both tables.
func q3Oracle(t *testing.T, db *DB, pool *bufferpool.Pool, lineSel, orderSel float64) int64 {
	t.Helper()
	lpred := db.ShipdatePred(lineSel)
	opred := db.OrderDatePred(orderSel)
	liScan, err := db.ScanLineitem(pool, lpred, plan.ScanSpec{Path: plan.PathFull})
	if err != nil {
		t.Fatal(err)
	}
	lines, err := exec.Drain(liScan)
	if err != nil {
		t.Fatal(err)
	}
	orders, err := exec.Drain(newOrdersScan(t, db, pool, opred))
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[int64]int64{}
	for _, o := range orders {
		byKey[o.Int(OOrderkey)]++
	}
	var n int64
	for _, l := range lines {
		n += byKey[l.Int(LOrderkey)]
	}
	return n
}

func newOrdersScan(t *testing.T, db *DB, pool *bufferpool.Pool, pred tuple.RangePred) exec.Operator {
	t.Helper()
	op, err := db.ScanOrders(pool, pred)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

func TestQ3AgainstOracle(t *testing.T) {
	dev := disk.NewDevice(disk.HDD)
	db, err := Gen(dev, Config{NumOrders: 1_500, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	pool := bufferpool.New(dev, 256)
	for _, sel := range []struct{ l, o float64 }{
		{0, 0.5}, {0.02, 0.3}, {0.3, 1}, {1, 0}, {0.5, 0.5},
	} {
		want := q3Oracle(t, db, pool, sel.l, sel.o)
		for _, path := range []plan.Path{plan.PathFull, plan.PathSmooth, plan.PathIndex} {
			pool.Reset()
			dev.ResetStats()
			res, js, err := db.Q3(pool, plan.ScanSpec{Path: path}, sel.l, sel.o)
			if err != nil {
				t.Fatal(err)
			}
			if js.OutputRows != want {
				t.Errorf("l=%.2f o=%.2f %s: join output %d, oracle %d", sel.l, sel.o, path, js.OutputRows, want)
			}
			// The aggregate has at most 5 priority groups.
			if res.Rows > 5 {
				t.Errorf("Q3 produced %d groups", res.Rows)
			}
			if want > 0 && res.Rows == 0 {
				t.Errorf("Q3 produced no groups for %d join rows", want)
			}
		}
	}
}

// TestQ3Deterministic pins that two runs on identically generated
// databases agree exactly (the property the ssbench golden relies on).
func TestQ3Deterministic(t *testing.T) {
	runOnce := func() (int64, float64) {
		dev := disk.NewDevice(disk.HDD)
		db, err := Gen(dev, Config{NumOrders: 1_000, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		pool := bufferpool.New(dev, 128)
		_, js, err := db.Q3(pool, plan.ScanSpec{Path: plan.PathSmooth}, 0.1, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		return js.OutputRows, dev.Stats().Time()
	}
	r1, t1 := runOnce()
	r2, t2 := runOnce()
	if r1 != r2 || t1 != t2 {
		t.Errorf("Q3 not deterministic: (%d, %v) vs (%d, %v)", r1, t1, r2, t2)
	}
	if r1 == 0 {
		t.Error("Q3 joined zero rows at 10% x 50% selectivity")
	}
}
