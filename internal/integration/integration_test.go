// Package integration_test exercises the engine across module
// boundaries: every access path over every workload shape, cold and
// warm caches, both device profiles, failure injection through whole
// plans, and operator re-open semantics.
package integration_test

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"smoothscan/internal/access"
	"smoothscan/internal/btree"
	"smoothscan/internal/bufferpool"
	"smoothscan/internal/core"
	"smoothscan/internal/disk"
	"smoothscan/internal/exec"
	"smoothscan/internal/plan"
	"smoothscan/internal/tpch"
	"smoothscan/internal/tuple"
	"smoothscan/internal/workload"
)

// buildScan constructs any access path over a workload table.
func buildScan(tab *workload.Table, pool *bufferpool.Pool, pred tuple.RangePred, kind string) (exec.Operator, error) {
	switch kind {
	case "full":
		return access.NewFullScan(tab.File, pool, pred), nil
	case "index":
		return access.NewIndexScan(tab.File, pool, tab.Index, pred), nil
	case "sort":
		return access.NewSortScan(tab.File, pool, tab.Index, pred, false, 0), nil
	case "switch":
		return access.NewSwitchScan(tab.File, pool, tab.Index, pred, 64), nil
	case "smooth-elastic":
		return core.NewSmoothScan(tab.File, pool, tab.Index, pred, core.Config{Policy: core.Elastic})
	case "smooth-greedy":
		return core.NewSmoothScan(tab.File, pool, tab.Index, pred, core.Config{Policy: core.Greedy})
	case "smooth-si-ordered":
		return core.NewSmoothScan(tab.File, pool, tab.Index, pred, core.Config{Policy: core.SelectivityIncrease, Ordered: true})
	default:
		return nil, fmt.Errorf("unknown kind %q", kind)
	}
}

var allKinds = []string{"full", "index", "sort", "switch", "smooth-elastic", "smooth-greedy", "smooth-si-ordered"}

func normalise(rows []tuple.Row) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}

func rowsEqual(a, b []tuple.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// TestMatrixAllPathsAllWorkloads is the big cross-product: every
// access path returns the identical multiset over uniform and skewed
// tables at several selectivities, with a deliberately small buffer
// pool forcing evictions.
func TestMatrixAllPathsAllWorkloads(t *testing.T) {
	type wl struct {
		name  string
		build func(dev *disk.Device) (*workload.Table, error)
	}
	workloads := []wl{
		{"uniform", func(dev *disk.Device) (*workload.Table, error) {
			return workload.BuildMicro(dev, workload.MicroConfig{NumRows: 20_000, Seed: 9})
		}},
		{"skewed", func(dev *disk.Device) (*workload.Table, error) {
			return workload.BuildSkewed(dev, workload.SkewConfig{
				NumRows: 20_000, DenseRows: 400, SparseEvery: 1_000, Seed: 9,
			})
		}},
	}
	sels := []float64{0, 0.0005, 0.01, 0.5, 1}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			dev := disk.NewDevice(disk.HDD)
			tab, err := w.build(dev)
			if err != nil {
				t.Fatal(err)
			}
			pool := bufferpool.New(dev, 24) // tiny: heavy eviction
			for _, sel := range sels {
				pred := tab.PredForSelectivity(sel)
				var want []tuple.Row
				for i, kind := range allKinds {
					pool.Reset()
					op, err := buildScan(tab, pool, pred, kind)
					if err != nil {
						t.Fatal(err)
					}
					got, err := exec.Drain(op)
					if err != nil {
						t.Fatalf("%s sel=%v: %v", kind, sel, err)
					}
					normalise(got)
					if i == 0 {
						want = got
						continue
					}
					if !rowsEqual(got, want) {
						t.Fatalf("%s sel=%v: %d rows, reference %d", kind, sel, len(got), len(want))
					}
				}
			}
		})
	}
}

// TestSmoothScanStatsInvariants checks the operator's counters against
// ground truth on a mid-selectivity scan.
func TestSmoothScanStatsInvariants(t *testing.T) {
	dev := disk.NewDevice(disk.HDD)
	tab, err := workload.BuildMicro(dev, workload.MicroConfig{NumRows: 30_000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	pool := bufferpool.New(dev, 64)
	pred := tab.PredForSelectivity(0.3)
	ss, err := core.NewSmoothScan(tab.File, pool, tab.Index, pred, core.Config{Policy: core.Elastic, Ordered: true})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Drain(ss)
	if err != nil {
		t.Fatal(err)
	}
	st := ss.Stats()
	if st.Produced != int64(len(rows)) {
		t.Errorf("Produced = %d, drained %d", st.Produced, len(rows))
	}
	if st.PagesFetched > tab.File.NumPages() {
		t.Errorf("PagesFetched %d > table pages %d", st.PagesFetched, tab.File.NumPages())
	}
	if st.PagesWithResults > st.PagesFetched {
		t.Error("PagesWithResults > PagesFetched")
	}
	// Every produced tuple is either a direct return or a cache hit.
	if st.DirectReturns+st.CacheHits != st.Produced {
		t.Errorf("direct %d + hits %d != produced %d", st.DirectReturns, st.CacheHits, st.Produced)
	}
	// Every cached tuple was eventually consumed.
	if st.CacheInserts != st.CacheHits {
		t.Errorf("inserts %d != hits %d (cache must drain on a full range)", st.CacheInserts, st.CacheHits)
	}
	if st.PeakRegionPages < 1 || st.PeakRegionPages > core.DefaultMaxRegionPages {
		t.Errorf("PeakRegionPages = %d", st.PeakRegionPages)
	}
}

// TestColdVsWarm: a warm second run must be strictly cheaper for every
// path, and free when the pool holds the whole table.
func TestColdVsWarm(t *testing.T) {
	dev := disk.NewDevice(disk.HDD)
	tab, err := workload.BuildMicro(dev, workload.MicroConfig{NumRows: 10_000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Pool bigger than heap + index.
	pool := bufferpool.New(dev, 4096)
	pred := tab.PredForSelectivity(0.2)
	for _, kind := range []string{"full", "index", "smooth-elastic"} {
		pool.Reset()
		dev.ResetStats()
		op, _ := buildScan(tab, pool, pred, kind)
		if _, err := exec.Drain(op); err != nil {
			t.Fatal(err)
		}
		cold := dev.Stats().IOTime
		dev.ResetStats()
		op2, _ := buildScan(tab, pool, pred, kind)
		if _, err := exec.Drain(op2); err != nil {
			t.Fatal(err)
		}
		warm := dev.Stats().IOTime
		if warm != 0 {
			t.Errorf("%s: warm run cost %v I/O with an all-covering pool", kind, warm)
		}
		if cold == 0 {
			t.Errorf("%s: cold run cost nothing", kind)
		}
	}
}

// TestSSDNeverSlowerThanHDD: identical scans cost at most the HDD time
// on the SSD profile (random accesses are cheaper, sequential equal).
func TestSSDNeverSlowerThanHDD(t *testing.T) {
	run := func(profile disk.Profile) float64 {
		dev := disk.NewDevice(profile)
		tab, err := workload.BuildMicro(dev, workload.MicroConfig{NumRows: 15_000, Seed: 6})
		if err != nil {
			t.Fatal(err)
		}
		pool := bufferpool.New(dev, 32)
		var total float64
		for _, sel := range []float64{0.001, 0.05, 0.7} {
			for _, kind := range []string{"full", "index", "smooth-elastic"} {
				pool.Reset()
				dev.ResetStats()
				op, _ := buildScan(tab, pool, tab.PredForSelectivity(sel), kind)
				if _, err := exec.Drain(op); err != nil {
					t.Fatal(err)
				}
				total += dev.Stats().IOTime
			}
		}
		return total
	}
	hdd := run(disk.HDD)
	ssd := run(disk.SSD)
	if ssd > hdd {
		t.Errorf("SSD total %v > HDD total %v", ssd, hdd)
	}
}

// TestOperatorReopen: every access path can be closed and reopened,
// returning the same result set.
func TestOperatorReopen(t *testing.T) {
	dev := disk.NewDevice(disk.HDD)
	tab, err := workload.BuildMicro(dev, workload.MicroConfig{NumRows: 5_000, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	pool := bufferpool.New(dev, 64)
	pred := tab.PredForSelectivity(0.1)
	for _, kind := range allKinds {
		op, err := buildScan(tab, pool, pred, kind)
		if err != nil {
			t.Fatal(err)
		}
		first, err := exec.Drain(op)
		if err != nil {
			t.Fatalf("%s first run: %v", kind, err)
		}
		second, err := exec.Drain(op) // Drain re-opens
		if err != nil {
			t.Fatalf("%s second run: %v", kind, err)
		}
		normalise(first)
		normalise(second)
		if !rowsEqual(first, second) {
			t.Errorf("%s: reopen changed the result (%d vs %d rows)", kind, len(first), len(second))
		}
	}
}

// TestFailureInjectionThroughJoinPlans: an I/O error under a smooth
// scan feeding a hash join must surface as ErrInjected, not a wrong
// result.
func TestFailureInjectionThroughJoinPlans(t *testing.T) {
	dev := disk.NewDevice(disk.HDD)
	db, err := tpch.Gen(dev, tpch.Config{NumOrders: 600, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	pool := bufferpool.New(dev, 64)
	for _, q := range db.Queries() {
		pool.Reset()
		dev.FailAfter(3)
		_, err := q.Run(pool, plan.ScanSpec{Path: plan.PathSmooth})
		if !errors.Is(err, disk.ErrInjected) {
			t.Errorf("%s: err = %v, want ErrInjected", q.Name, err)
		}
		dev.FailAfter(-1)
		// And the same query must succeed afterwards (no poisoned
		// state).
		pool.Reset()
		if _, err := q.Run(pool, plan.ScanSpec{Path: plan.PathSmooth}); err != nil {
			t.Errorf("%s after recovery: %v", q.Name, err)
		}
	}
}

// TestDeterminism: identical seeds yield identical device statistics
// for an identical scan sequence — the property the whole benchmark
// harness rests on.
func TestDeterminism(t *testing.T) {
	run := func() disk.Stats {
		dev := disk.NewDevice(disk.HDD)
		tab, err := workload.BuildMicro(dev, workload.MicroConfig{NumRows: 12_000, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		pool := bufferpool.New(dev, 48)
		for _, sel := range []float64{0.01, 0.3} {
			for _, kind := range []string{"index", "smooth-elastic", "sort"} {
				pool.Reset()
				op, _ := buildScan(tab, pool, tab.PredForSelectivity(sel), kind)
				if _, err := exec.Drain(op); err != nil {
					t.Fatal(err)
				}
			}
		}
		return dev.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("non-deterministic stats:\n a=%+v\n b=%+v", a, b)
	}
}

// TestMergeJoinOverOrderedSmoothScans: the ordered Smooth Scan variant
// feeds a merge join directly — the "interesting order" use case that
// motivates the Result Cache.
func TestMergeJoinOverOrderedSmoothScans(t *testing.T) {
	dev := disk.NewDevice(disk.HDD)
	mkTable := func(seed int64) *workload.Table {
		tab, err := workload.BuildMicro(dev, workload.MicroConfig{NumRows: 4_000, Domain: 500, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	left := mkTable(1)
	right := mkTable(2)
	pool := bufferpool.New(dev, 256)
	pred := tuple.RangePred{Col: 1, Lo: 100, Hi: 200}

	lScan, err := core.NewSmoothScan(left.File, pool, left.Index, pred, core.Config{Ordered: true})
	if err != nil {
		t.Fatal(err)
	}
	rScan, err := core.NewSmoothScan(right.File, pool, right.Index, pred, core.Config{Ordered: true})
	if err != nil {
		t.Fatal(err)
	}
	mj := exec.NewMergeJoinBatch(lScan, rScan, pool.Channel(), 1, 1)
	nMerge, err := exec.Count(mj)
	if err != nil {
		t.Fatalf("merge join over smooth scans: %v", err)
	}

	// Reference: hash join over full scans.
	pool.Reset()
	hj := exec.NewHashJoinBatch(
		access.NewFullScan(left.File, pool, pred),
		access.NewFullScan(right.File, pool, pred),
		pool.Channel(), 1, 1, false,
	)
	nHash, err := exec.Count(hj)
	if err != nil {
		t.Fatal(err)
	}
	if nMerge != nHash {
		t.Errorf("merge join %d rows, hash join %d", nMerge, nHash)
	}
	if nMerge == 0 {
		t.Error("empty join result; fixture too sparse")
	}
}

// TestHeapAndIndexConsistency: every index entry points at a tuple
// whose indexed column equals the key — across the whole micro table.
func TestHeapAndIndexConsistency(t *testing.T) {
	dev := disk.NewDevice(disk.HDD)
	tab, err := workload.BuildMicro(dev, workload.MicroConfig{NumRows: 8_000, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	pool := bufferpool.New(dev, 512)
	it, err := tab.Index.SeekGE(pool, -1)
	if err != nil {
		t.Fatal(err)
	}
	var count int64
	var last btree.Entry
	for {
		e, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if count > 0 {
			if e.Key < last.Key || (e.Key == last.Key && !last.TID.Less(e.TID)) {
				t.Fatalf("index order violation at entry %d", count)
			}
		}
		row, err := tab.File.RowAt(pool, e.TID)
		if err != nil {
			t.Fatal(err)
		}
		if row.Int(tab.IndexCol) != e.Key {
			t.Fatalf("entry key %d points at tuple with %d", e.Key, row.Int(tab.IndexCol))
		}
		last = e
		count++
	}
	if count != tab.File.NumTuples() {
		t.Errorf("index has %d entries for %d tuples", count, tab.File.NumTuples())
	}
}
