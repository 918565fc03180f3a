package core

import (
	"fmt"
	"slices"
	"testing"

	"smoothscan/internal/btree"
	"smoothscan/internal/costmodel"
	"smoothscan/internal/tuple"
)

// TestSaturatedRangeStats pins an unordered Smooth Scan whose range
// saturates — every heap page analysed — while index entries below Hi
// remain, thirty of them in the index's insert delta (or, after
// Compact, in its run). Those entries are counted by leaf once the
// range saturates. Under every trigger, with and without a residual,
// and on the first and the second Open of one operator, the rows must
// be the table's matches and the operator and device Stats must equal
// the literals below, recorded from the entry-at-a-time walk that the
// leaf count replaced.
func TestSaturatedRangeStats(t *testing.T) {
	const numRows = 600
	gen := func(i int64) int64 { return (i * 131) % numRows }
	pred := tuple.RangePred{Col: 1, Lo: 0, Hi: 400}
	residual := []tuple.RangePred{{Col: 2, Lo: 0, Hi: 2}}
	want := map[string]string{
		"delta/eager/residual=false/open1":                "op={Produced:430 PagesFetched:63 PagesWithResults:63 LeafPointersSkipped:421 Expansions:9 Shrinks:0 PeakRegionPages:512 TriggeredAt:0 CacheHits:0 CacheInserts:0 DirectReturns:0 CachePeakTuples:0 CachePeakBytes:0 Spill:{Spills:0 Reloads:0 SpillBytes:0 ReloadBytes:0} PageCacheBytes:8 TupleCacheBytes:0} dev={Requests:49 RandomAccesses:16 SeqAccesses:83 SkippedPages:14 PagesRead:99 PagesWritten:0 BytesRead:25344 IOTime:257 CPUTime:0.63 Faults:0 Corruptions:0 LatencySpikes:0 Retries:0}",
		"delta/eager/residual=false/open2":                "op={Produced:430 PagesFetched:63 PagesWithResults:63 LeafPointersSkipped:421 Expansions:9 Shrinks:0 PeakRegionPages:512 TriggeredAt:0 CacheHits:0 CacheInserts:0 DirectReturns:0 CachePeakTuples:0 CachePeakBytes:0 Spill:{Spills:0 Reloads:0 SpillBytes:0 ReloadBytes:0} PageCacheBytes:8 TupleCacheBytes:0} dev={Requests:98 RandomAccesses:32 SeqAccesses:166 SkippedPages:28 PagesRead:198 PagesWritten:0 BytesRead:50688 IOTime:514 CPUTime:1.26 Faults:0 Corruptions:0 LatencySpikes:0 Retries:0}",
		"delta/eager/residual=true/open1":                 "op={Produced:287 PagesFetched:63 PagesWithResults:63 LeafPointersSkipped:421 Expansions:9 Shrinks:0 PeakRegionPages:512 TriggeredAt:0 CacheHits:0 CacheInserts:0 DirectReturns:0 CachePeakTuples:0 CachePeakBytes:0 Spill:{Spills:0 Reloads:0 SpillBytes:0 ReloadBytes:0} PageCacheBytes:8 TupleCacheBytes:0} dev={Requests:49 RandomAccesses:16 SeqAccesses:83 SkippedPages:14 PagesRead:99 PagesWritten:0 BytesRead:25344 IOTime:257 CPUTime:0.63 Faults:0 Corruptions:0 LatencySpikes:0 Retries:0}",
		"delta/eager/residual=true/open2":                 "op={Produced:287 PagesFetched:63 PagesWithResults:63 LeafPointersSkipped:421 Expansions:9 Shrinks:0 PeakRegionPages:512 TriggeredAt:0 CacheHits:0 CacheInserts:0 DirectReturns:0 CachePeakTuples:0 CachePeakBytes:0 Spill:{Spills:0 Reloads:0 SpillBytes:0 ReloadBytes:0} PageCacheBytes:8 TupleCacheBytes:0} dev={Requests:98 RandomAccesses:32 SeqAccesses:166 SkippedPages:28 PagesRead:198 PagesWritten:0 BytesRead:50688 IOTime:514 CPUTime:1.26 Faults:0 Corruptions:0 LatencySpikes:0 Retries:0}",
		"delta/optimizer-driven/residual=false/open1":     "op={Produced:430 PagesFetched:63 PagesWithResults:63 LeafPointersSkipped:401 Expansions:9 Shrinks:0 PeakRegionPages:512 TriggeredAt:20 CacheHits:0 CacheInserts:0 DirectReturns:0 CachePeakTuples:0 CachePeakBytes:0 Spill:{Spills:0 Reloads:0 SpillBytes:0 ReloadBytes:0} PageCacheBytes:8 TupleCacheBytes:80} dev={Requests:70 RandomAccesses:36 SeqAccesses:81 SkippedPages:16 PagesRead:117 PagesWritten:0 BytesRead:29952 IOTime:457 CPUTime:0.65 Faults:0 Corruptions:0 LatencySpikes:0 Retries:0}",
		"delta/optimizer-driven/residual=false/open2":     "op={Produced:430 PagesFetched:63 PagesWithResults:63 LeafPointersSkipped:401 Expansions:9 Shrinks:0 PeakRegionPages:512 TriggeredAt:20 CacheHits:0 CacheInserts:0 DirectReturns:0 CachePeakTuples:0 CachePeakBytes:0 Spill:{Spills:0 Reloads:0 SpillBytes:0 ReloadBytes:0} PageCacheBytes:8 TupleCacheBytes:80} dev={Requests:140 RandomAccesses:72 SeqAccesses:162 SkippedPages:32 PagesRead:234 PagesWritten:0 BytesRead:59904 IOTime:914 CPUTime:1.3 Faults:0 Corruptions:0 LatencySpikes:0 Retries:0}",
		"delta/optimizer-driven/residual=true/open1":      "op={Produced:287 PagesFetched:63 PagesWithResults:63 LeafPointersSkipped:391 Expansions:9 Shrinks:0 PeakRegionPages:512 TriggeredAt:20 CacheHits:0 CacheInserts:0 DirectReturns:0 CachePeakTuples:0 CachePeakBytes:0 Spill:{Spills:0 Reloads:0 SpillBytes:0 ReloadBytes:0} PageCacheBytes:8 TupleCacheBytes:80} dev={Requests:80 RandomAccesses:47 SeqAccesses:80 SkippedPages:16 PagesRead:127 PagesWritten:0 BytesRead:32512 IOTime:566 CPUTime:0.66 Faults:0 Corruptions:0 LatencySpikes:0 Retries:0}",
		"delta/optimizer-driven/residual=true/open2":      "op={Produced:287 PagesFetched:63 PagesWithResults:63 LeafPointersSkipped:391 Expansions:9 Shrinks:0 PeakRegionPages:512 TriggeredAt:20 CacheHits:0 CacheInserts:0 DirectReturns:0 CachePeakTuples:0 CachePeakBytes:0 Spill:{Spills:0 Reloads:0 SpillBytes:0 ReloadBytes:0} PageCacheBytes:8 TupleCacheBytes:80} dev={Requests:160 RandomAccesses:94 SeqAccesses:160 SkippedPages:32 PagesRead:254 PagesWritten:0 BytesRead:65024 IOTime:1132 CPUTime:1.32 Faults:0 Corruptions:0 LatencySpikes:0 Retries:0}",
		"delta/sla-driven/residual=false/open1":           "op={Produced:430 PagesFetched:63 PagesWithResults:63 LeafPointersSkipped:406 Expansions:9 Shrinks:0 PeakRegionPages:512 TriggeredAt:15 CacheHits:0 CacheInserts:0 DirectReturns:0 CachePeakTuples:0 CachePeakBytes:0 Spill:{Spills:0 Reloads:0 SpillBytes:0 ReloadBytes:0} PageCacheBytes:8 TupleCacheBytes:80} dev={Requests:66 RandomAccesses:32 SeqAccesses:80 SkippedPages:16 PagesRead:112 PagesWritten:0 BytesRead:28672 IOTime:416 CPUTime:0.645 Faults:0 Corruptions:0 LatencySpikes:0 Retries:0}",
		"delta/sla-driven/residual=false/open2":           "op={Produced:430 PagesFetched:63 PagesWithResults:63 LeafPointersSkipped:406 Expansions:9 Shrinks:0 PeakRegionPages:512 TriggeredAt:15 CacheHits:0 CacheInserts:0 DirectReturns:0 CachePeakTuples:0 CachePeakBytes:0 Spill:{Spills:0 Reloads:0 SpillBytes:0 ReloadBytes:0} PageCacheBytes:8 TupleCacheBytes:80} dev={Requests:132 RandomAccesses:64 SeqAccesses:160 SkippedPages:32 PagesRead:224 PagesWritten:0 BytesRead:57344 IOTime:832 CPUTime:1.29 Faults:0 Corruptions:0 LatencySpikes:0 Retries:0}",
		"delta/sla-driven/residual=true/open1":            "op={Produced:287 PagesFetched:63 PagesWithResults:63 LeafPointersSkipped:399 Expansions:9 Shrinks:0 PeakRegionPages:512 TriggeredAt:15 CacheHits:0 CacheInserts:0 DirectReturns:0 CachePeakTuples:0 CachePeakBytes:0 Spill:{Spills:0 Reloads:0 SpillBytes:0 ReloadBytes:0} PageCacheBytes:8 TupleCacheBytes:80} dev={Requests:73 RandomAccesses:39 SeqAccesses:80 SkippedPages:16 PagesRead:119 PagesWritten:0 BytesRead:30464 IOTime:486 CPUTime:0.652 Faults:0 Corruptions:0 LatencySpikes:0 Retries:0}",
		"delta/sla-driven/residual=true/open2":            "op={Produced:287 PagesFetched:63 PagesWithResults:63 LeafPointersSkipped:399 Expansions:9 Shrinks:0 PeakRegionPages:512 TriggeredAt:15 CacheHits:0 CacheInserts:0 DirectReturns:0 CachePeakTuples:0 CachePeakBytes:0 Spill:{Spills:0 Reloads:0 SpillBytes:0 ReloadBytes:0} PageCacheBytes:8 TupleCacheBytes:80} dev={Requests:146 RandomAccesses:78 SeqAccesses:160 SkippedPages:32 PagesRead:238 PagesWritten:0 BytesRead:60928 IOTime:972 CPUTime:1.304 Faults:0 Corruptions:0 LatencySpikes:0 Retries:0}",
		"compacted/eager/residual=false/open1":            "op={Produced:430 PagesFetched:63 PagesWithResults:63 LeafPointersSkipped:421 Expansions:9 Shrinks:0 PeakRegionPages:512 TriggeredAt:0 CacheHits:0 CacheInserts:0 DirectReturns:0 CachePeakTuples:0 CachePeakBytes:0 Spill:{Spills:0 Reloads:0 SpillBytes:0 ReloadBytes:0} PageCacheBytes:8 TupleCacheBytes:0} dev={Requests:51 RandomAccesses:16 SeqAccesses:85 SkippedPages:14 PagesRead:101 PagesWritten:0 BytesRead:25856 IOTime:259 CPUTime:0.63 Faults:0 Corruptions:0 LatencySpikes:0 Retries:0}",
		"compacted/eager/residual=false/open2":            "op={Produced:430 PagesFetched:63 PagesWithResults:63 LeafPointersSkipped:421 Expansions:9 Shrinks:0 PeakRegionPages:512 TriggeredAt:0 CacheHits:0 CacheInserts:0 DirectReturns:0 CachePeakTuples:0 CachePeakBytes:0 Spill:{Spills:0 Reloads:0 SpillBytes:0 ReloadBytes:0} PageCacheBytes:8 TupleCacheBytes:0} dev={Requests:102 RandomAccesses:32 SeqAccesses:170 SkippedPages:28 PagesRead:202 PagesWritten:0 BytesRead:51712 IOTime:518 CPUTime:1.26 Faults:0 Corruptions:0 LatencySpikes:0 Retries:0}",
		"compacted/eager/residual=true/open1":             "op={Produced:287 PagesFetched:63 PagesWithResults:63 LeafPointersSkipped:421 Expansions:9 Shrinks:0 PeakRegionPages:512 TriggeredAt:0 CacheHits:0 CacheInserts:0 DirectReturns:0 CachePeakTuples:0 CachePeakBytes:0 Spill:{Spills:0 Reloads:0 SpillBytes:0 ReloadBytes:0} PageCacheBytes:8 TupleCacheBytes:0} dev={Requests:51 RandomAccesses:16 SeqAccesses:85 SkippedPages:14 PagesRead:101 PagesWritten:0 BytesRead:25856 IOTime:259 CPUTime:0.63 Faults:0 Corruptions:0 LatencySpikes:0 Retries:0}",
		"compacted/eager/residual=true/open2":             "op={Produced:287 PagesFetched:63 PagesWithResults:63 LeafPointersSkipped:421 Expansions:9 Shrinks:0 PeakRegionPages:512 TriggeredAt:0 CacheHits:0 CacheInserts:0 DirectReturns:0 CachePeakTuples:0 CachePeakBytes:0 Spill:{Spills:0 Reloads:0 SpillBytes:0 ReloadBytes:0} PageCacheBytes:8 TupleCacheBytes:0} dev={Requests:102 RandomAccesses:32 SeqAccesses:170 SkippedPages:28 PagesRead:202 PagesWritten:0 BytesRead:51712 IOTime:518 CPUTime:1.26 Faults:0 Corruptions:0 LatencySpikes:0 Retries:0}",
		"compacted/optimizer-driven/residual=false/open1": "op={Produced:430 PagesFetched:63 PagesWithResults:63 LeafPointersSkipped:401 Expansions:9 Shrinks:0 PeakRegionPages:512 TriggeredAt:20 CacheHits:0 CacheInserts:0 DirectReturns:0 CachePeakTuples:0 CachePeakBytes:0 Spill:{Spills:0 Reloads:0 SpillBytes:0 ReloadBytes:0} PageCacheBytes:8 TupleCacheBytes:80} dev={Requests:72 RandomAccesses:36 SeqAccesses:83 SkippedPages:16 PagesRead:119 PagesWritten:0 BytesRead:30464 IOTime:459 CPUTime:0.65 Faults:0 Corruptions:0 LatencySpikes:0 Retries:0}",
		"compacted/optimizer-driven/residual=false/open2": "op={Produced:430 PagesFetched:63 PagesWithResults:63 LeafPointersSkipped:401 Expansions:9 Shrinks:0 PeakRegionPages:512 TriggeredAt:20 CacheHits:0 CacheInserts:0 DirectReturns:0 CachePeakTuples:0 CachePeakBytes:0 Spill:{Spills:0 Reloads:0 SpillBytes:0 ReloadBytes:0} PageCacheBytes:8 TupleCacheBytes:80} dev={Requests:144 RandomAccesses:72 SeqAccesses:166 SkippedPages:32 PagesRead:238 PagesWritten:0 BytesRead:60928 IOTime:918 CPUTime:1.3 Faults:0 Corruptions:0 LatencySpikes:0 Retries:0}",
		"compacted/optimizer-driven/residual=true/open1":  "op={Produced:287 PagesFetched:63 PagesWithResults:63 LeafPointersSkipped:391 Expansions:9 Shrinks:0 PeakRegionPages:512 TriggeredAt:20 CacheHits:0 CacheInserts:0 DirectReturns:0 CachePeakTuples:0 CachePeakBytes:0 Spill:{Spills:0 Reloads:0 SpillBytes:0 ReloadBytes:0} PageCacheBytes:8 TupleCacheBytes:80} dev={Requests:82 RandomAccesses:47 SeqAccesses:82 SkippedPages:16 PagesRead:129 PagesWritten:0 BytesRead:33024 IOTime:568 CPUTime:0.66 Faults:0 Corruptions:0 LatencySpikes:0 Retries:0}",
		"compacted/optimizer-driven/residual=true/open2":  "op={Produced:287 PagesFetched:63 PagesWithResults:63 LeafPointersSkipped:391 Expansions:9 Shrinks:0 PeakRegionPages:512 TriggeredAt:20 CacheHits:0 CacheInserts:0 DirectReturns:0 CachePeakTuples:0 CachePeakBytes:0 Spill:{Spills:0 Reloads:0 SpillBytes:0 ReloadBytes:0} PageCacheBytes:8 TupleCacheBytes:80} dev={Requests:164 RandomAccesses:94 SeqAccesses:164 SkippedPages:32 PagesRead:258 PagesWritten:0 BytesRead:66048 IOTime:1136 CPUTime:1.32 Faults:0 Corruptions:0 LatencySpikes:0 Retries:0}",
		"compacted/sla-driven/residual=false/open1":       "op={Produced:430 PagesFetched:63 PagesWithResults:63 LeafPointersSkipped:406 Expansions:9 Shrinks:0 PeakRegionPages:512 TriggeredAt:15 CacheHits:0 CacheInserts:0 DirectReturns:0 CachePeakTuples:0 CachePeakBytes:0 Spill:{Spills:0 Reloads:0 SpillBytes:0 ReloadBytes:0} PageCacheBytes:8 TupleCacheBytes:80} dev={Requests:68 RandomAccesses:32 SeqAccesses:82 SkippedPages:16 PagesRead:114 PagesWritten:0 BytesRead:29184 IOTime:418 CPUTime:0.645 Faults:0 Corruptions:0 LatencySpikes:0 Retries:0}",
		"compacted/sla-driven/residual=false/open2":       "op={Produced:430 PagesFetched:63 PagesWithResults:63 LeafPointersSkipped:406 Expansions:9 Shrinks:0 PeakRegionPages:512 TriggeredAt:15 CacheHits:0 CacheInserts:0 DirectReturns:0 CachePeakTuples:0 CachePeakBytes:0 Spill:{Spills:0 Reloads:0 SpillBytes:0 ReloadBytes:0} PageCacheBytes:8 TupleCacheBytes:80} dev={Requests:136 RandomAccesses:64 SeqAccesses:164 SkippedPages:32 PagesRead:228 PagesWritten:0 BytesRead:58368 IOTime:836 CPUTime:1.29 Faults:0 Corruptions:0 LatencySpikes:0 Retries:0}",
		"compacted/sla-driven/residual=true/open1":        "op={Produced:287 PagesFetched:63 PagesWithResults:63 LeafPointersSkipped:399 Expansions:9 Shrinks:0 PeakRegionPages:512 TriggeredAt:15 CacheHits:0 CacheInserts:0 DirectReturns:0 CachePeakTuples:0 CachePeakBytes:0 Spill:{Spills:0 Reloads:0 SpillBytes:0 ReloadBytes:0} PageCacheBytes:8 TupleCacheBytes:80} dev={Requests:75 RandomAccesses:39 SeqAccesses:82 SkippedPages:16 PagesRead:121 PagesWritten:0 BytesRead:30976 IOTime:488 CPUTime:0.652 Faults:0 Corruptions:0 LatencySpikes:0 Retries:0}",
		"compacted/sla-driven/residual=true/open2":        "op={Produced:287 PagesFetched:63 PagesWithResults:63 LeafPointersSkipped:399 Expansions:9 Shrinks:0 PeakRegionPages:512 TriggeredAt:15 CacheHits:0 CacheInserts:0 DirectReturns:0 CachePeakTuples:0 CachePeakBytes:0 Spill:{Spills:0 Reloads:0 SpillBytes:0 ReloadBytes:0} PageCacheBytes:8 TupleCacheBytes:80} dev={Requests:150 RandomAccesses:78 SeqAccesses:164 SkippedPages:32 PagesRead:242 PagesWritten:0 BytesRead:61952 IOTime:976 CPUTime:1.304 Faults:0 Corruptions:0 LatencySpikes:0 Retries:0}",
	}
	for _, build := range []string{"delta", "compacted"} {
		for _, trigger := range []Trigger{Eager, OptimizerDriven, SLADriven} {
			for _, res := range []bool{false, true} {
				fx := newFixture(t, numRows, 16, gen)
				rows := slices.Clone(fx.rows)
				// Keys 200..374 in the range's top half: the scan has
				// seen every page long before the entries reach them.
				for i := int64(0); i < 30; i++ {
					r := tuple.IntsRow(numRows+i, 200+6*i, i%3)
					tid, err := fx.file.Insert(r)
					if err != nil {
						t.Fatal(err)
					}
					fx.pool.InvalidatePage(fx.file.Space(), tid.Page)
					fx.tree.Insert(btree.Entry{Key: r.Int(1), TID: tid})
					rows = append(rows, r)
				}
				if build == "compacted" {
					if err := fx.tree.Compact(fx.dev, fx.pool); err != nil {
						t.Fatal(err)
					}
				}
				fx.dev.ResetStats()
				cfg := Config{Trigger: trigger, EstimatedCard: 20}
				if trigger == SLADriven {
					cfg.CostParams = costmodel.Params{
						TupleSize: 24, PageSize: 256, KeySize: 8,
						NumTuples: fx.file.NumTuples(), RandCost: 10, SeqCost: 1,
					}
					cfg.SLABound = 10 * cfg.CostParams.FullScanCost() // triggers at 15 rows
				}
				if res {
					cfg.Residual = residual
				}
				var wantRows []tuple.Row
				for _, r := range rows {
					if pred.Matches(r) && tuple.MatchesAll(cfg.Residual, r) {
						wantRows = append(wantRows, r)
					}
				}
				sortByKeyThenTID(wantRows)
				s, err := NewSmoothScan(fx.file, fx.pool, fx.tree, pred, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for open := 1; open <= 2; open++ {
					name := fmt.Sprintf("%s/%v/residual=%v/open%d", build, trigger, res, open)
					got, counted := drainSaturated(t, s)
					sortByKeyThenTID(got)
					if !rowsEqual(got, wantRows) {
						t.Errorf("%s: %d rows, want %d", name, len(got), len(wantRows))
					}
					if counted == 0 {
						t.Errorf("%s: the range never saturated with entries left below Hi", name)
					}
					line := fmt.Sprintf("op=%+v dev=%+v", s.Stats(), rawDeviceStats(fx.dev.Stats()))
					if line != want[name] {
						t.Errorf("%s:\n got  %s\n want %s", name, line, want[name])
					}
				}
			}
		}
	}
}

// drainSaturated opens s and drains it one row per pull, returning the
// rows and the leaf pointers skipped after the pull at which the range
// was first seen saturated with the scan not done.
func drainSaturated(t *testing.T, s *SmoothScan) ([]tuple.Row, int64) {
	t.Helper()
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	b := tuple.NewBatchFor(s.Schema(), 1)
	var out []tuple.Row
	skippedAt := int64(-1)
	for {
		n, err := s.NextBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		out = append(out, b.Row(0).Clone())
		if skippedAt < 0 && !s.done && s.pageSeen.Count() == s.pageSeen.Len() {
			skippedAt = s.stats.LeafPointersSkipped
		}
	}
	if skippedAt < 0 {
		return out, 0
	}
	return out, s.stats.LeafPointersSkipped - skippedAt
}
