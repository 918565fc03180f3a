package core

import (
	"fmt"
	"math/rand"
	"testing"

	"smoothscan/internal/bufferpool"
	"smoothscan/internal/tuple"
)

// TestSmoothScanResidentProbeExactlyOnce: whatever the pool holds, an
// unordered Smooth Scan produces every qualifying row exactly once.
func TestSmoothScanResidentProbeExactlyOnce(t *testing.T) {
	t.Run("random", residentProbeRandom)
	t.Run("evicted", residentProbeEvicted)
}

// residentProbeRandom: seeded cases touch a random subset of the heap
// pages before each of two Opens of one operator, so the resident-page
// probe takes some pages and the scan analyses the others, over pools
// of 4 pages (which evict probed pages mid-scan), 32 pages and the
// whole table, tables whose keys are spread over the pages, clustered
// with them or skewed, both triggers and every policy, with and without
// a residual, at several selectivities and batch capacities.
func residentProbeRandom(t *testing.T) {
	const pages = 60
	const numRows = pages * 102
	gens := []struct {
		name string
		gen  func(i int64) int64
	}{
		{"spread", func(i int64) int64 { return (i * 131) % numRows }},
		{"clustered", func(i int64) int64 { return i }},
		// Keys below numRows/10 are dense on the first tenth of the
		// pages and sparse, one a page, everywhere else.
		{"skewed", func(i int64) int64 {
			if i < numRows/10 || i%102 == 0 {
				return i % (numRows / 10)
			}
			return numRows + i
		}},
	}
	probedCases := 0
	for _, g := range gens {
		fx := newBigFixture(t, numRows, g.gen)
		for seed := int64(1); seed <= 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			pool := bufferpool.New(fx.dev, []int{4, 32, pages + 64}[rng.Intn(3)])
			cfg := Config{Policy: Policy(rng.Intn(3))}
			if rng.Intn(2) == 1 {
				cfg.Trigger, cfg.EstimatedCard = OptimizerDriven, rng.Int63n(40)
			}
			if rng.Intn(4) == 0 {
				cfg.Residual = []tuple.RangePred{{Col: 0, Lo: 0, Hi: numRows / 2}}
			}
			width := int64(numRows) * []int64{1, 10, 50, 200}[rng.Intn(4)] / 1000
			lo := rng.Int63n(numRows - width)
			pred := tuple.RangePred{Col: 1, Lo: lo, Hi: lo + width}
			want := expectedMatching(fx.rows, pred, cfg.Residual)
			name := fmt.Sprintf("%s/seed=%d/pool=%d/%+v/%+v", g.name, seed, pool.Capacity(), cfg, pred)

			s, err := NewSmoothScan(fx.file, pool, fx.tree, pred, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for open := 0; open < 2; open++ {
				for p := int64(0); p < fx.file.NumPages(); p++ {
					if rng.Intn(3) > 0 {
						if _, err := fx.file.GetPage(pool, p); err != nil {
							t.Fatal(err)
						}
					}
				}
				got := drainBatched(t, s, []int{1, 7, 1024}[rng.Intn(3)])
				checkOnce(t, name, got, want)
				if s.probed.n > 0 {
					probedCases++
				}
			}
		}
	}
	if probedCases < 20 {
		t.Errorf("the resident-page probe took pages in only %d scans", probedCases)
	}
}

// residentProbeEvicted: a page the resident-page probe took and the
// pool evicted before the scan met another pointer to it is
// probed again through the pool, not analysed, and its rows are
// produced once.
func residentProbeEvicted(t *testing.T) {
	const pages = 10
	const numRows = pages * 102
	// Keys 0..9 sit on pages 0, 5, 1, 6, 7, 8, 9, 3, 4 and 5 again, in
	// key order; every other key lies outside the range.
	at := map[int64]int64{0: 0, 5 * 102: 1, 102: 2, 6 * 102: 3, 7 * 102: 4, 8 * 102: 5, 9 * 102: 6, 3 * 102: 7, 4 * 102: 8, 5*102 + 1: 9}
	fx := newBigFixture(t, numRows, func(i int64) int64 {
		if k, ok := at[i]; ok {
			return k
		}
		return 1000 + i
	})
	pool := bufferpool.New(fx.dev, 4)
	const probedPage = 5
	if _, err := fx.file.GetPage(pool, probedPage); err != nil {
		t.Fatal(err)
	}
	pred := tuple.RangePred{Col: 1, Lo: 0, Hi: 10}
	s, err := NewSmoothScan(fx.file, pool, fx.tree, pred, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	b := tuple.NewBatchFor(s.Schema(), 1)
	var got []tuple.Row
	evicted := false
	for {
		n, err := s.NextBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		got = append(got, b.Row(0).Clone())
		if b.Row(0).Int(1) == 9 && !evicted {
			t.Fatal("key 9 was produced before its page was evicted")
		}
		evicted = evicted || s.probed.has(probedPage) && !pool.Contains(fx.file.Space(), probedPage)
	}
	if !s.probed.has(probedPage) || s.pageSeen.Get(probedPage) {
		t.Fatalf("page %d: probed %v, analysed %v; want probed only", probedPage, s.probed.has(probedPage), s.pageSeen.Get(probedPage))
	}
	checkOnce(t, "evicted", got, expected(fx.rows, pred))
}

// checkOnce fails unless got holds every row of want exactly once and
// nothing else. Rows are told apart by their first column, the row
// number.
func checkOnce(t *testing.T, name string, got, want []tuple.Row) {
	t.Helper()
	seen := make(map[int64]tuple.Row, len(got))
	for _, r := range got {
		if _, dup := seen[r.Int(0)]; dup {
			t.Fatalf("%s: row %v produced twice", name, r)
		}
		seen[r.Int(0)] = r
	}
	for _, r := range want {
		g, ok := seen[r.Int(0)]
		if !ok {
			t.Fatalf("%s: row %v missing (%d rows, want %d)", name, r, len(got), len(want))
		}
		if !g.Equal(r) {
			t.Fatalf("%s: row %v produced as %v", name, r, g)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", name, len(got), len(want))
	}
}
