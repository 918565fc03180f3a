package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smoothscan/internal/bufferpool"
	"smoothscan/internal/disk"
	"smoothscan/internal/tuple"
)

// rawDeviceStats is disk.Stats without its String method, whose 0.1
// rounding would hide a missing or extra per-tuple CPU charge: %v
// prints each float the way strconv.FormatFloat(x, 'g', -1, 64) does,
// at full precision. CPUTime is an exact tick count converted to
// units, so the order of the charges cannot move it.
type rawDeviceStats disk.Stats

// TestSmoothScanStatsGolden pins every observable of a Smooth Scan —
// the rows and their order, the operator's Stats and the device's
// counters at full float precision — across policies, triggers,
// residuals, the Entire-Page-Probe cap, selectivities, batch capacities
// and early closes (some inside a multi-page region), against a
// committed golden. The capacity tests compare the code with itself;
// this one compares it with the code that recorded the file, so a
// change to when rows are handed over cannot also move a charge, a
// counter or an order unnoticed. Regenerate with
// UPDATE_GOLDEN=1 go test -run TestSmoothScanStatsGolden ./internal/core
// only when a change means to move those numbers.
func TestSmoothScanStatsGolden(t *testing.T) {
	const numRows = 1200
	const tightBudget = 480 // ten parked tuples of 8*3+24 bytes
	gen := func(i int64) int64 { return (i * 131) % numRows }
	residual := []tuple.RangePred{{Col: 2, Lo: 0, Hi: 2}}
	type namedCfg struct {
		name string
		cfg  Config
	}
	var cfgs []namedCfg
	for _, trig := range []Trigger{Eager, OptimizerDriven} {
		for _, res := range []bool{false, true} {
			base := Config{Trigger: trig, EstimatedCard: 20}
			if res {
				base.Residual = residual
			}
			for _, pol := range []Policy{Elastic, Greedy, SelectivityIncrease} {
				c := base
				c.Policy = pol
				cfgs = append(cfgs, namedCfg{fmt.Sprintf("%v/%v/residual=%v", pol, trig, res), c})
			}
			c := base
			c.MaxMode = ModeEntirePage
			cfgs = append(cfgs, namedCfg{fmt.Sprintf("entire-page/%v/residual=%v", trig, res), c})
		}
	}
	// Ordered scans carry no residual. A budget of 0 never spills; the
	// tight one spills at 20% and 100% (asserted below), so the spill
	// sequence and its counters are pinned too.
	for _, trig := range []Trigger{Eager, OptimizerDriven} {
		for _, pol := range []Policy{Elastic, Greedy, SelectivityIncrease} {
			for _, budget := range []int64{0, tightBudget} {
				c := Config{Policy: pol, Trigger: trig, EstimatedCard: 20, Ordered: true, ResultCacheBudget: budget}
				cfgs = append(cfgs, namedCfg{fmt.Sprintf("%v/%v/ordered/budget=%d", pol, trig, budget), c})
			}
		}
	}
	sels := []struct {
		name string
		pred tuple.RangePred
	}{
		{"sel1pct", tuple.RangePred{Col: 1, Lo: 300, Hi: 312}},
		{"sel20pct", tuple.RangePred{Col: 1, Lo: 100, Hi: 340}},
		{"sel100pct", tuple.RangePred{Col: 1, Lo: 0, Hi: numRows}},
	}

	var sb strings.Builder
	for _, c := range cfgs {
		for _, sel := range sels {
			for _, batchCap := range []int{1, 13, 1024} {
				for _, batches := range []int{1, 3, 0} { // 0 = drain
					fx := newFixture(t, numRows, 32, gen)
					s, err := NewSmoothScan(fx.file, fx.pool, fx.tree, sel.pred, c.cfg)
					if err != nil {
						t.Fatal(err)
					}
					n, digest := pullBatches(t, s, batchCap, batches)
					if c.cfg.ResultCacheBudget > 0 && sel.name != "sel1pct" && batches == 0 && s.Stats().Spill.Spills == 0 {
						t.Errorf("%s/%s/batch=%d: budget %d never spilled", c.name, sel.name, batchCap, c.cfg.ResultCacheBudget)
					}
					end := "drain"
					if batches > 0 {
						end = fmt.Sprintf("close@%d", batches)
					}
					fmt.Fprintf(&sb, "%s/%s/batch=%d/%s rows=%d digest=%016x op=%+v dev=%+v\n",
						c.name, sel.name, batchCap, end, n, digest, s.Stats(), rawDeviceStats(fx.dev.Stats()))
				}
			}
		}
	}

	// Closes inside a multi-page region: an unordered 20% scan of a
	// table 25 times larger, closed after its first batch of k rows.
	// At k = 100 and 5000 the close lands in a region of several pages
	// that is still being delivered, so whatever a region settles when
	// it is analysed rather than delivered shows up here.
	const bigRows = 30000
	bigGen := func(i int64) int64 { return (i * 131) % bigRows }
	for _, trig := range []Trigger{Eager, OptimizerDriven} {
		for _, res := range []bool{false, true} {
			for _, pol := range []Policy{Elastic, Greedy, SelectivityIncrease} {
				c := Config{Policy: pol, Trigger: trig, EstimatedCard: 20}
				if res {
					c.Residual = residual
				}
				for _, k := range []int{1, 100, 5000} {
					fx := newFixture(t, bigRows, 32, bigGen)
					s, err := NewSmoothScan(fx.file, fx.pool, fx.tree, tuple.RangePred{Col: 1, Lo: 2000, Hi: 8000}, c)
					if err != nil {
						t.Fatal(err)
					}
					n, digest := pullBatches(t, s, k, 1)
					fmt.Fprintf(&sb, "midregion/%v/%v/residual=%v/sel20pct/close@%drows rows=%d digest=%016x op=%+v dev=%+v\n",
						pol, trig, res, k, n, digest, s.Stats(), rawDeviceStats(fx.dev.Stats()))
				}
			}
		}
	}

	// Warm pools: the same scan run twice on one fixture, the second run
	// recorded, over the paper's page geometry (102 tuples a page), with
	// a pool that holds the table and its index and with one a fifth of
	// the table. Each case starts from an emptied pool, so its first run
	// is a cold scan and its second meets whatever the first left.
	const warmRows = 20400 // 200 heap pages
	warm := newBigFixture(t, warmRows, func(i int64) int64 { return (i * 131) % warmRows })
	warmResidual := []tuple.RangePred{{Col: 0, Lo: 0, Hi: warmRows / 2}}
	pools := []struct {
		name string
		pool *bufferpool.Pool
	}{
		{"pool=table", bufferpool.New(warm.dev, int(warm.file.NumPages())+100)},
		{"pool=fifth", bufferpool.New(warm.dev, int(warm.file.NumPages())/5)},
	}
	for _, trig := range []Trigger{Eager, OptimizerDriven} {
		for _, res := range []bool{false, true} {
			for _, pol := range []Policy{Elastic, Greedy, SelectivityIncrease} {
				c := Config{Policy: pol, Trigger: trig, EstimatedCard: 20}
				if res {
					c.Residual = warmResidual
				}
				for _, permille := range []int64{1, 10, 50, 200} {
					pred := tuple.RangePred{Col: 1, Lo: 5000, Hi: 5000 + warmRows*permille/1000}
					for _, p := range pools {
						p.pool.Reset()
						s, err := NewSmoothScan(warm.file, p.pool, warm.tree, pred, c)
						if err != nil {
							t.Fatal(err)
						}
						pullBatches(t, s, 1024, 0)
						warm.dev.ResetStats()
						n, digest := pullBatches(t, s, 1024, 0)
						fmt.Fprintf(&sb, "warm/%s/%v/%v/residual=%v/sel%gpct rows=%d digest=%016x op=%+v dev=%+v\n",
							p.name, pol, trig, res, float64(permille)/10, n, digest, s.Stats(), rawDeviceStats(warm.dev.Stats()))
					}
				}
			}
		}
	}

	got := sb.String()
	path := filepath.Join("testdata", "smoothscan_stats.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (set UPDATE_GOLDEN=1 to generate)", err)
	}
	if got == string(want) {
		return
	}
	wantLines, gotLines := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	for i := range min(len(wantLines), len(gotLines)) {
		if wantLines[i] != gotLines[i] {
			t.Fatalf("line %d differs:\n want %s\n got  %s", i+1, wantLines[i], gotLines[i])
		}
	}
	t.Fatalf("golden has %d lines, run produced %d", len(wantLines), len(gotLines))
}

// pullBatches opens s, pulls up to batches batches of capacity
// batchCap (all of them when batches is 0) and closes it, returning the
// number of rows delivered and an FNV-1a digest of their values in
// delivery order.
func pullBatches(t *testing.T, s *SmoothScan, batchCap, batches int) (int, uint64) {
	t.Helper()
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := fnv.New64a()
	var buf [8]byte
	b := tuple.NewBatchFor(s.Schema(), batchCap)
	rows := 0
	for i := 0; batches == 0 || i < batches; i++ {
		n, err := s.NextBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		for r := 0; r < n; r++ {
			for _, v := range b.Row(r) {
				binary.LittleEndian.PutUint64(buf[:], v)
				h.Write(buf[:])
			}
		}
		rows += n
	}
	return rows, h.Sum64()
}

// TestInsertMidRegion inserts a qualifying row into the table's last
// page while an unordered scan is part-way through the region that
// holds that page, and pins what the scan then delivers and counts.
// The region's pages are the buffers fetched before the insert (Insert
// writes a new page buffer), so the scan neither delivers the new row
// nor counts a tuple it did not fetch, whenever it analyses the page.
// The want lines were recorded when analysis happened at fetch time.
func TestInsertMidRegion(t *testing.T) {
	const numRows = 1195 // the last page holds 5 of its 10 slots
	// Key 0 is row 1000, on page 100, so the regions run up the table
	// and a later one ends at the last page.
	gen := func(i int64) int64 { return (i + numRows - 1000) % numRows }
	cases := []struct {
		cfg  Config
		want string
	}{
		{Config{Policy: Greedy},
			"rows=1195 digest=f4e2403ba6254c3d op={Produced:1195 PagesFetched:120 PagesWithResults:120 LeafPointersSkipped:1187 Expansions:8 Shrinks:0 PeakRegionPages:256 TriggeredAt:0 CacheHits:0 CacheInserts:0 DirectReturns:0 CachePeakTuples:0 CachePeakBytes:0 Spill:{Spills:0 Reloads:0 SpillBytes:0 ReloadBytes:0} PageCacheBytes:16 TupleCacheBytes:0} dev={Requests:111 RandomAccesses:18 SeqAccesses:205 SkippedPages:0 PagesRead:223 PagesWritten:1 BytesRead:57088 IOTime:385 CPUTime:1.195 Faults:0 Corruptions:0 LatencySpikes:0 Retries:0}"},
		{Config{Policy: Greedy, Trigger: OptimizerDriven, EstimatedCard: 20, Residual: []tuple.RangePred{{Col: 2, Lo: 0, Hi: 2}}},
			"rows=797 digest=43318ca2688db522 op={Produced:797 PagesFetched:120 PagesWithResults:120 LeafPointersSkipped:1157 Expansions:8 Shrinks:0 PeakRegionPages:256 TriggeredAt:20 CacheHits:0 CacheInserts:0 DirectReturns:0 CachePeakTuples:0 CachePeakBytes:0 Spill:{Spills:0 Reloads:0 SpillBytes:0 ReloadBytes:0} PageCacheBytes:16 TupleCacheBytes:152} dev={Requests:114 RandomAccesses:24 SeqAccesses:202 SkippedPages:0 PagesRead:226 PagesWritten:1 BytesRead:57856 IOTime:442 CPUTime:1.225 Faults:0 Corruptions:0 LatencySpikes:0 Retries:0}"},
	}
	for _, c := range cases {
		fx := newFixture(t, numRows, 32, gen)
		last := fx.file.NumPages() - 1
		s, err := NewSmoothScan(fx.file, fx.pool, fx.tree, tuple.RangePred{Col: 1, Lo: 0, Hi: numRows + 1}, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Open(); err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var buf [8]byte
		b := tuple.NewBatchFor(s.Schema(), 4)
		rows, inserted := 0, false
		for {
			n, err := s.NextBatch(b)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				break
			}
			for r := 0; r < n; r++ {
				for _, v := range b.Row(r) {
					binary.LittleEndian.PutUint64(buf[:], v)
					h.Write(buf[:])
				}
			}
			rows += n
			if !inserted && staged(s, last) {
				tid, err := fx.file.Insert(tuple.IntsRow(numRows, 7, 0))
				if err != nil {
					t.Fatal(err)
				}
				if tid.Page != last {
					t.Fatalf("insert landed on page %d, want %d", tid.Page, last)
				}
				fx.pool.InvalidatePage(fx.file.Space(), tid.Page)
				inserted = true
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if !inserted {
			t.Fatalf("%+v: no batch ended before the last page's region reached it", c.cfg)
		}
		got := fmt.Sprintf("rows=%d digest=%016x op=%+v dev=%+v", rows, h.Sum64(), s.Stats(), rawDeviceStats(fx.dev.Stats()))
		if got != c.want {
			t.Errorf("%+v:\n got  %s\n want %s", c.cfg, got, c.want)
		}
	}
}

// staged reports whether page pageNo is in s's current region and
// drain has not reached it yet. The region's pages after the cursor
// are the pages after it the Page ID cache does not hold yet, in order.
func staged(s *SmoothScan, pageNo int64) bool {
	no := s.cur.no
	for i := s.next + 1; i < len(s.region); i++ {
		for no++; s.pageSeen.Get(no); no++ {
		}
		if no == pageNo {
			return true
		}
	}
	return false
}
