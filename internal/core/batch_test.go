package core

import (
	"fmt"
	"testing"

	"smoothscan/internal/tuple"
)

// drainBatched runs the scan through NextBatch with the given batch
// capacity, cloning rows out of the batch.
func drainBatched(t testing.TB, s *SmoothScan, batchCap int) []tuple.Row {
	t.Helper()
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	b := tuple.NewBatchFor(s.Schema(), batchCap)
	var out []tuple.Row
	for {
		n, err := s.NextBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			return out
		}
		for i := 0; i < n; i++ {
			out = append(out, b.Row(i).Clone())
		}
	}
}

// TestBatchedSmoothScanEquivalence is the capacity-invariance test: for
// every morphing policy, ordered and unordered delivery, and a spread
// of selectivities, a drain at any batch capacity must produce exactly
// the rows of a one-row-per-pull drain in the same order, AND leave the
// simulated device and the operator's own counters in a bit-identical
// state — same I/O request counts, same random/sequential split, same
// simulated I/O and CPU time. The capacity changes CPU wall-clock work,
// not the simulated schedule.
func TestBatchedSmoothScanEquivalence(t *testing.T) {
	const numRows = 600
	gen := func(i int64) int64 { return (i * 131) % numRows } // scattered values
	selPreds := map[string]tuple.RangePred{
		"sel1pct":   {Col: 1, Lo: 0, Hi: 6},
		"sel20pct":  {Col: 1, Lo: 100, Hi: 220},
		"sel100pct": {Col: 1, Lo: 0, Hi: numRows},
	}
	for _, policy := range []Policy{Elastic, Greedy, SelectivityIncrease} {
		for _, ordered := range []bool{false, true} {
			for selName, pred := range selPreds {
				for _, batchCap := range []int{1, 7, 9, 128, 256, 1024} {
					name := fmt.Sprintf("%v/ordered=%v/%s/batch=%d", policy, ordered, selName, batchCap)
					t.Run(name, func(t *testing.T) {
						cfg := Config{Policy: policy, Ordered: ordered, MaxRegionPages: 8}

						fxA := newFixture(t, numRows, 32, gen)
						ssA, err := NewSmoothScan(fxA.file, fxA.pool, fxA.tree, pred, cfg)
						if err != nil {
							t.Fatal(err)
						}
						want := drainBatched(t, ssA, 1)

						fxB := newFixture(t, numRows, 32, gen)
						ssB, err := NewSmoothScan(fxB.file, fxB.pool, fxB.tree, pred, cfg)
						if err != nil {
							t.Fatal(err)
						}
						got := drainBatched(t, ssB, batchCap)

						if !rowsEqual(want, got) {
							t.Fatalf("rows differ: batch=1 %d rows, wider %d rows", len(want), len(got))
						}
						if sa, sb := fxA.dev.Stats(), fxB.dev.Stats(); sa != sb {
							t.Errorf("device stats differ:\n batch=1: %+v\n wider:   %+v", sa, sb)
						}
						if sa, sb := ssA.Stats(), ssB.Stats(); sa != sb {
							t.Errorf("operator stats differ:\n batch=1: %+v\n wider:   %+v", sa, sb)
						}
					})
				}
			}
		}
	}
}

// TestBatchedSmoothScanTriggersAndModes covers the non-eager triggers
// (which exercise the Tuple ID cache: ordered page analysis skips, and
// the unordered region drain vetoes, tuples produced in Mode 0),
// residual conjuncts on the unordered path and the
// Entire-Page-Probe-only mode cap. Rows, device counters and the
// operator's Stats must all match a one-row-per-pull drain.
func TestBatchedSmoothScanTriggersAndModes(t *testing.T) {
	const numRows = 600
	gen := func(i int64) int64 { return (i * 131) % numRows }
	pred := tuple.RangePred{Col: 1, Lo: 50, Hi: 350}
	residual := []tuple.RangePred{{Col: 2, Lo: 1, Hi: 3}}
	cfgs := map[string]Config{
		"optimizer-trigger":  {Trigger: OptimizerDriven, EstimatedCard: 40},
		"optimizer-ordered":  {Trigger: OptimizerDriven, EstimatedCard: 40, Ordered: true},
		"optimizer-residual": {Trigger: OptimizerDriven, EstimatedCard: 40, Residual: residual},
		"unordered-residual": {Residual: residual},
		"entire-page-only":   {MaxMode: ModeEntirePage},
	}
	for name, cfg := range cfgs {
		cfg := cfg
		cfg.MaxRegionPages = 8
		for _, batchCap := range []int{1, 7, 1024} {
			t.Run(fmt.Sprintf("%s/batch=%d", name, batchCap), func(t *testing.T) {
				fxA := newFixture(t, numRows, 32, gen)
				ssA, err := NewSmoothScan(fxA.file, fxA.pool, fxA.tree, pred, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want := drainBatched(t, ssA, 1)
				if oracle := expectedMatching(fxA.rows, pred, cfg.Residual); len(want) != len(oracle) {
					t.Fatalf("batch=1 drain has %d rows, want %d", len(want), len(oracle))
				}

				fxB := newFixture(t, numRows, 32, gen)
				ssB, err := NewSmoothScan(fxB.file, fxB.pool, fxB.tree, pred, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got := drainBatched(t, ssB, batchCap)

				if !rowsEqual(want, got) {
					t.Fatalf("rows differ: batch=1 %d rows, wider %d rows", len(want), len(got))
				}
				if sa, sb := fxA.dev.Stats(), fxB.dev.Stats(); sa != sb {
					t.Errorf("device stats differ:\n batch=1: %+v\n wider:   %+v", sa, sb)
				}
				if sa, sb := ssA.Stats(), ssB.Stats(); sa != sb {
					t.Errorf("operator stats differ:\n batch=1: %+v\n wider:   %+v", sa, sb)
				}
			})
		}
	}

	// Closing mid-region drops the undelivered rest of the region; a
	// re-Open starts over and must deliver exactly a fresh scan's rows.
	for name, cfg := range cfgs {
		cfg := cfg
		cfg.MaxRegionPages = 8
		t.Run(name+"/reopen", func(t *testing.T) {
			fxA := newFixture(t, numRows, 32, gen)
			ssA, err := NewSmoothScan(fxA.file, fxA.pool, fxA.tree, pred, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := drainBatched(t, ssA, 7)

			fxB := newFixture(t, numRows, 32, gen)
			ssB, err := NewSmoothScan(fxB.file, fxB.pool, fxB.tree, pred, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Pull until the scan has flattened into multi-page regions,
			// then stop with rows of the current region undelivered.
			if err := ssB.Open(); err != nil {
				t.Fatal(err)
			}
			b := tuple.NewBatchFor(ssB.Schema(), 7)
			for i := 0; i < 6; i++ {
				if _, err := ssB.NextBatch(b); err != nil {
					t.Fatal(err)
				}
			}
			if !cfg.Ordered && ssB.next >= len(ssB.region) {
				t.Fatalf("closed with no region rows pending; the case does not close mid-region")
			}
			if err := ssB.Close(); err != nil {
				t.Fatal(err)
			}
			if got := drainBatched(t, ssB, 7); !rowsEqual(want, got) {
				t.Fatalf("re-opened scan: %d rows, fresh scan %d (or order differs)", len(got), len(want))
			}
		})
	}
}

// expectedMatching returns the rows matching pred and every residual
// conjunct, in load order.
func expectedMatching(rows []tuple.Row, pred tuple.RangePred, residual []tuple.RangePred) []tuple.Row {
	var out []tuple.Row
	for _, r := range rows {
		if pred.Matches(r) && tuple.MatchesAll(residual, r) {
			out = append(out, r)
		}
	}
	return out
}

// TestSmoothScanMixedCapacities alternates one-row and 32-row pulls on
// one open scan (a Limit above a scan narrows the fill cap mid-stream
// the same way): every pull drains the same cursor.
func TestSmoothScanMixedCapacities(t *testing.T) {
	const numRows = 400
	gen := func(i int64) int64 { return (i * 37) % numRows }
	pred := tuple.RangePred{Col: 1, Lo: 0, Hi: numRows}

	fxA := newFixture(t, numRows, 32, gen)
	ssA, err := NewSmoothScan(fxA.file, fxA.pool, fxA.tree, pred, Config{MaxRegionPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	want := drainBatched(t, ssA, 1)

	fxB := newFixture(t, numRows, 32, gen)
	ssB, err := NewSmoothScan(fxB.file, fxB.pool, fxB.tree, pred, Config{MaxRegionPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := ssB.Open(); err != nil {
		t.Fatal(err)
	}
	defer ssB.Close()
	b := tuple.NewBatchFor(ssB.Schema(), 32)
	var got []tuple.Row
	for i := 0; ; i++ {
		b.SetFillLimit(0)
		if i%2 == 0 {
			b.SetFillLimit(1)
		}
		n, err := ssB.NextBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		for j := 0; j < n; j++ {
			got = append(got, b.Row(j).Clone())
		}
	}
	if !rowsEqual(want, got) {
		t.Fatalf("mixed capacities: %d rows, want %d", len(got), len(want))
	}
	if sa, sb := fxA.dev.Stats(), fxB.dev.Stats(); sa != sb {
		t.Errorf("device stats differ:\n batch=1: %+v\n mixed:   %+v", sa, sb)
	}
}

// TestModeZeroAllocsFlat pins that a scan which stays in Mode 0 decodes
// each probe straight into the caller's batch: its allocations do not
// grow with the rows it produces.
func TestModeZeroAllocsFlat(t *testing.T) {
	fx := newFixture(t, 1200, 512, func(i int64) int64 { return (i * 131) % 1200 })
	cfg := Config{Trigger: OptimizerDriven, EstimatedCard: 1 << 40}
	b := tuple.NewBatchFor(fx.file.Schema(), 16)
	allocs := func(hi int64) float64 {
		s, err := NewSmoothScan(fx.file, fx.pool, fx.tree, tuple.RangePred{Col: 1, Lo: 300, Hi: hi}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(5, func() {
			if err := s.Open(); err != nil {
				t.Fatal(err)
			}
			for {
				if n, err := s.NextBatch(b); err != nil {
					t.Fatal(err)
				} else if n == 0 {
					break
				}
			}
			s.Close()
		})
		if st := s.Stats(); st.TriggeredAt != -1 || st.Produced != hi-300 {
			t.Fatalf("range [300,%d): %+v, want %d rows in Mode 0", hi, st, hi-300)
		}
		return n
	}
	if few, many := allocs(310), allocs(500); many != few {
		t.Errorf("Mode 0 allocations grow with rows: %v for 10 rows, %v for 200", few, many)
	}
}
