package core

import (
	"sort"

	"smoothscan/internal/disk"
	"smoothscan/internal/heap"
	"smoothscan/internal/tuple"
)

// resultCache implements the Result Cache of Section IV-A: when Smooth
// Scan must respect the index order (ORDER BY / merge-join input), the
// extra qualifying tuples discovered while analysing whole pages are
// parked here until the leaf traversal reaches their index entries.
//
// Naming note: this is the *scan-internal* result cache — it lives and
// dies inside one ordered Smooth Scan, bounded by
// ScanOptions.ResultCacheBudget, and backs that option since the
// ordered-delivery work. It is unrelated to the *semantic* query-result
// cache (internal/rescache, Options.ResultCacheBytes), which caches
// materialized result sets across executions at the query boundary.
// docs/CACHING.md disambiguates the two.
//
// The cache is partitioned by key range, with partition bounds taken
// from the separator keys of the index root page ("the root page is a
// good indicator of the key value distributions"). Once the scan's
// current key passes a partition's upper bound, every tuple in it must
// already have been produced, so the whole partition is discarded in
// one step — the bulk deletion the paper describes.
//
// Beyond a memory budget the cache spills, as the paper sketches: "If
// memory becomes scarce, cache spilling could be employed by using
// overflow files. Caches containing the ranges the furthest from the
// current key range are spilled into the overflow files that are read
// upon reaching the range keys belong to." A spilled partition keeps
// its tuples in memory (the simulation has no real files), but the I/O
// a real system would pay is charged on the operator's disk channel, so
// spilling changes measured cost exactly the way an overflow file
// would, and one query's overflow traffic moves only its own stream's
// head position.
type resultCache struct {
	// parts[i] covers keys < parts[i].hi (and >= parts[i-1].hi); the
	// last partition's hi is +inf, represented by keySentinel.
	parts []partition

	rowBytes int64 // memory estimate per cached tuple

	// budget is the resident byte count beyond which partitions spill
	// (0: never), charged through ch.
	budget int64
	ch     *disk.Channel

	curTuples  int64
	curBytes   int64 // resident and spilled
	peakTuples int64
	peakBytes  int64
	spill      SpillStats
}

// partition is one key range of the cache and whether its tuples sit
// in an overflow file.
type partition struct {
	hi      int64
	rows    map[heap.TID]tuple.Row
	spilled bool
}

// SpillStats reports overflow-file activity for instrumentation.
type SpillStats struct {
	Spills      int64
	Reloads     int64
	SpillBytes  int64
	ReloadBytes int64
}

const keySentinel = int64(^uint64(0) >> 1) // MaxInt64

// newResultCache builds a cache partitioned at the given ascending
// bounds (may be nil: a single partition covering all keys). rowCols
// sizes the per-tuple memory estimate; budget bounds the resident
// bytes, spilling through ch (0 means never spill, and ch may be nil).
func newResultCache(bounds []int64, rowCols int, ch *disk.Channel, budget int64) *resultCache {
	parts := make([]partition, len(bounds)+1)
	for i := range parts {
		parts[i] = partition{hi: keySentinel, rows: make(map[heap.TID]tuple.Row)}
		if i < len(bounds) {
			parts[i].hi = bounds[i]
		}
	}
	return &resultCache{
		parts: parts,
		// 8 bytes per column plus TID key and map overhead.
		rowBytes: int64(8*rowCols) + 24,
		budget:   budget,
		ch:       ch,
	}
}

func (c *resultCache) partFor(key int64) int {
	return sort.Search(len(c.parts), func(i int) bool { return key < c.parts[i].hi })
}

// insert parks a qualifying tuple under its key and TID, then spills
// the furthest partitions if the budget is exceeded. A spilled target
// partition is reloaded first (insertion into an overflow file would be
// an append; reloading keeps the simulation simple and is charged the
// same way).
func (c *resultCache) insert(key int64, tid heap.TID, row tuple.Row) {
	idx := c.partFor(key)
	c.reload(idx)
	c.parts[idx].rows[tid] = row
	c.curTuples++
	c.curBytes += c.rowBytes
	c.peakTuples = max(c.peakTuples, c.curTuples)
	c.peakBytes = max(c.peakBytes, c.curBytes)
	c.maybeSpill(idx)
}

// take removes and returns the tuple cached under (key, tid), reloading
// its partition from the overflow file when necessary — "read upon
// reaching the range keys belong to".
func (c *resultCache) take(key int64, tid heap.TID) (tuple.Row, bool) {
	idx := c.partFor(key)
	c.reload(idx)
	rows := c.parts[idx].rows
	row, ok := rows[tid]
	if !ok {
		return nil, false
	}
	delete(rows, tid)
	c.curTuples--
	c.curBytes -= c.rowBytes
	return row, true
}

// dropBelow discards every partition whose key range lies entirely
// below key. The scan calls it as its current key advances. A spilled
// partition is simply forgotten: its overflow file would be unlinked,
// costing nothing.
func (c *resultCache) dropBelow(key int64) {
	i := 0
	for ; i < len(c.parts)-1 && c.parts[i].hi <= key; i++ {
		n := int64(len(c.parts[i].rows))
		c.curTuples -= n
		c.curBytes -= n * c.rowBytes
	}
	c.parts = c.parts[i:]
}

// bytes returns partition i's share of the memory estimate.
func (c *resultCache) bytes(i int) int64 { return int64(len(c.parts[i].rows)) * c.rowBytes }

// maybeSpill spills the partitions furthest from the current one, from
// the far end of the key space towards it and never the current one,
// until the resident set fits the budget.
func (c *resultCache) maybeSpill(current int) {
	if c.budget <= 0 {
		return
	}
	var resident int64
	for i, p := range c.parts {
		if !p.spilled {
			resident += c.bytes(i)
		}
	}
	for i := len(c.parts) - 1; i > current && resident > c.budget; i-- {
		p := &c.parts[i]
		if p.spilled || len(p.rows) == 0 {
			continue
		}
		bytes := c.bytes(i)
		pageSize := int64(c.ch.Device().PageSize())
		// ChargeSpill models the full overflow round trip (sequential
		// write now, sequential read at reload); charging it here keeps
		// the accounting in one place. Partitions that are dropped
		// before reload are slightly overcharged, which is the
		// conservative direction.
		c.ch.ChargeSpill((bytes + pageSize - 1) / pageSize)
		p.spilled = true
		c.spill.Spills++
		c.spill.SpillBytes += bytes
		resident -= bytes
	}
}

// reload brings partition i back from its overflow file, if it is
// spilled.
func (c *resultCache) reload(i int) {
	if !c.parts[i].spilled {
		return
	}
	c.parts[i].spilled = false
	c.spill.Reloads++
	c.spill.ReloadBytes += c.bytes(i)
}
