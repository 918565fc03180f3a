package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

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
// and early closes, against a committed golden. The capacity tests
// compare the code with itself; this one compares it with the code that
// recorded the file, so a change to when rows are handed over cannot
// also move a charge, a counter or an order unnoticed. Regenerate with
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
