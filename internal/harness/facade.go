package harness

import (
	"context"
	"fmt"

	"smoothscan"
	"smoothscan/internal/loadgen"
)

// The facade sweeps run the public smoothscan API over loadgen's
// micro-shaped table (val uniform over [0, facadeRows)), reporting
// simulated device cost only, so their rows live in the byte-diffed
// ssbench golden like every paper exhibit. The table is small enough to
// keep the sweeps fast and large enough that every shard spans several
// heap pages.
const (
	facadeRows = 24_000
	facadePool = 256
)

// facadeSels are the predicate widths both sweeps run, [0, frac·domain).
var facadeSels = []struct {
	name string
	frac float64
}{
	{"narrow", 0.125},
	{"half", 0.5},
	{"full", 1.0},
}

// facadeQuery starts the sweeps' one query shape: val in [0, frac·domain).
func facadeQuery(e smoothscan.Engine, frac float64) *smoothscan.Query {
	return e.Table(loadgen.Table).Where(loadgen.IndexedCol, smoothscan.Between(0, int64(float64(facadeRows)*frac)))
}

// drain runs q to completion and returns its row count and the closed
// cursor's execution statistics.
func drain(q *smoothscan.Query) (int64, smoothscan.ExecStats, error) {
	rows, err := q.Run(context.Background())
	if err != nil {
		return 0, smoothscan.ExecStats{}, err
	}
	var n int64
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		rows.Close()
		return 0, smoothscan.ExecStats{}, err
	}
	if err := rows.Close(); err != nil {
		return 0, smoothscan.ExecStats{}, err
	}
	return n, rows.ExecStats(), nil
}

// ioCells formats an execution's device delta as the io-req, pages and
// time columns.
func ioCells(es smoothscan.ExecStats) []string {
	return []string{
		fmt.Sprintf("%d", es.IO.Requests),
		fmt.Sprintf("%d", es.IO.PagesRead),
		fmt.Sprintf("%.1f", es.IO.Time()),
	}
}

// ShardExp is the scatter-gather sweep: for N ∈ {1, 2, 4}
// range-partitioned shards, each predicate width gathered unordered
// and through the ordered merge. Time is the sum of per-shard device
// deltas, so the table is byte-stable.
func (r *Runner) ShardExp() (*Table, error) {
	t := &Table{
		Title:  "Sharded scatter-gather: shard count x pruning selectivity x gather mode (simulated cost)",
		Header: []string{"shards", "sel", "gather", "rows", "active", "pruned", "io-req", "pages", "time"},
		Notes: []string{
			"pruned shards perform zero device I/O: the narrow predicate pays for one shard only",
			"time is the sum of per-shard device deltas; the coordinator merge charges nothing",
		},
	}
	for _, n := range []int{1, 2, 4} {
		s, err := loadgen.BuildShardedDB(facadeRows, facadeRows, r.cfg.Seed, n, smoothscan.Options{PoolPages: facadePool})
		if err != nil {
			return nil, err
		}
		for _, sel := range facadeSels {
			for _, gather := range []string{"unordered", "ordered"} {
				if err := s.ColdCache(); err != nil {
					return nil, err
				}
				q := facadeQuery(s, sel.frac)
				if gather == "ordered" {
					q = q.OrderBy(loadgen.IndexedCol)
				}
				count, es, err := drain(q)
				if err != nil {
					return nil, err
				}
				active, pruned := 0, 0
				for _, sh := range es.Shards {
					if sh.Pruned {
						pruned++
					} else {
						active++
					}
				}
				t.Rows = append(t.Rows, append([]string{
					fmt.Sprintf("%d", n), sel.name, gather, fmt.Sprintf("%d", count),
					fmt.Sprintf("%d", active), fmt.Sprintf("%d", pruned),
				}, ioCells(es)...))
			}
		}
	}
	return t, nil
}

// CacheExp is the semantic result-cache sweep (docs/CACHING.md): for
// the local and the 2-way sharded engine, each predicate width runs
// four times — cold (stores), repeat (served from cache), after an
// Insert (epoch invalidation forces a re-execute), repeat again
// (re-cached). A cached repeat performs zero device I/O.
func (r *Runner) CacheExp() (*Table, error) {
	opts := smoothscan.Options{PoolPages: facadePool, ResultCacheBytes: 16 << 20}
	t := &Table{
		Title:  "Semantic result cache: first run x repeat x write invalidation (simulated cost)",
		Header: []string{"engine", "sel", "run", "rows", "cached", "io-req", "pages", "time"},
		Notes: []string{
			"a repeat of a cached query is served from memory: io-req, pages and time are all zero",
			"an Insert bumps the table epoch, so the next run re-executes (warm pool) and re-caches",
			"the sharded engine caches at the coordinator, above scatter-gather",
		},
	}
	// engine is what the sweep needs beyond Engine; *DB and *ShardedDB
	// both satisfy it.
	type engine interface {
		smoothscan.Engine
		ColdCache() error
		Insert(table string, vals ...int64) error
	}
	engines := []struct {
		name string
		open func() (engine, error)
	}{
		{"local", func() (engine, error) {
			return loadgen.BuildDB(facadeRows, facadeRows, r.cfg.Seed, opts)
		}},
		{"sharded2", func() (engine, error) {
			return loadgen.BuildShardedDB(facadeRows, facadeRows, r.cfg.Seed, 2, opts)
		}},
	}
	for _, eng := range engines {
		e, err := eng.open()
		if err != nil {
			return nil, err
		}
		// One insert per invalidation step; ids start past the
		// generated range.
		nextID := int64(facadeRows)
		for _, sel := range facadeSels {
			// ColdCache purges the buffer pool and the result-cache
			// tier, so each width's "first" run is a true cold start.
			if err := e.ColdCache(); err != nil {
				return nil, err
			}
			for _, run := range []string{"first", "repeat", "after-insert", "repeat-2"} {
				if run == "after-insert" {
					// The row lands inside every predicate range, but
					// invalidation is epoch-driven: any write to the
					// table forces the re-execute.
					vals := make([]int64, 10)
					vals[0] = nextID
					nextID++
					vals[1] = int64(float64(facadeRows)*sel.frac) / 2
					if err := e.Insert(loadgen.Table, vals...); err != nil {
						return nil, err
					}
				}
				count, es, err := drain(facadeQuery(e, sel.frac))
				if err != nil {
					return nil, err
				}
				cached := "no"
				if es.ResultCache.Hit {
					cached = "yes"
				}
				t.Rows = append(t.Rows, append([]string{eng.name, sel.name, run, fmt.Sprintf("%d", count), cached}, ioCells(es)...))
			}
		}
	}
	return t, nil
}
