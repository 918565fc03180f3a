// Package smoothscan is a from-scratch Go reproduction of "Smooth
// Scan: Statistics-Oblivious Access Paths" (Borovica-Gajic et al.,
// ICDE 2015): a storage engine whose table scans morph continuously
// between index look-ups and full table scans at run time, delivering
// near-optimal performance at every selectivity without requiring
// accurate optimizer statistics.
//
// The package is the public facade over the engine:
//
//	db, _ := smoothscan.Open(smoothscan.Options{})
//	tb, _ := db.CreateTable("t", "id", "val")
//	tb.Append(1, 42)
//	tb.Finish()
//	db.CreateIndex("t", "val")
//	rows, _ := db.Query("t").Where("val", smoothscan.Between(0, 100)).Run(ctx)
//	for rows.Next() { use(rows.Row()) }
//
// Row returns a view that is valid until the next Next or Close;
// CopyRow (or slices.Clone(rows.Row())) retains a row.
//
// There is one Query builder and one Rows cursor for every engine:
// ShardedDB.Query runs the same builder as a scatter-gather over
// shards (in-process or remote), a dialed Conn's Table runs it against
// a server, and the Engine interface abstracts over all three.
//
// Scans default to the adaptive Smooth Scan path (Elastic policy,
// Eager trigger — the paper's recommendation); ScanOptions selects the
// traditional paths, other morphing policies and triggers, and
// order-preserving delivery. Device-level I/O accounting (simulated
// time, random vs sequential accesses) is available through Stats,
// mirroring the measurements of the paper's evaluation.
package smoothscan

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"smoothscan/internal/btree"
	"smoothscan/internal/bufferpool"
	"smoothscan/internal/core"
	"smoothscan/internal/disk"
	"smoothscan/internal/heap"
	"smoothscan/internal/optimizer"
	"smoothscan/internal/plan"
	"smoothscan/internal/rescache"
	"smoothscan/internal/tuple"
	"smoothscan/internal/wire"
)

// Profile describes a simulated storage device.
type Profile = disk.Profile

// Device profiles matching the paper's hardware assumptions.
var (
	// HDD: random access 10x slower than sequential.
	HDD = disk.HDD
	// SSD: random access 2x slower than sequential.
	SSD = disk.SSD
)

// IOStats are device-level counters (simulated time in cost units,
// where one sequential 8 KB page read costs 1).
type IOStats = disk.Stats

// Policy selects how the morphing region evolves (paper Section III-B).
type Policy = core.Policy

// Morphing policies.
const (
	// Greedy doubles the region after every probe.
	Greedy = core.Greedy
	// SelectivityIncrease grows when local density reaches the global
	// average and never shrinks.
	SelectivityIncrease = core.SelectivityIncrease
	// Elastic grows in dense regions and shrinks in sparse ones; the
	// paper's recommended default.
	Elastic = core.Elastic
)

// Trigger selects when morphing starts (paper Section III-C).
type Trigger = core.Trigger

// Morphing triggers.
const (
	// Eager morphs from the first tuple; the paper's default.
	Eager = core.Eager
	// OptimizerDriven morphs when the optimizer's cardinality
	// estimate is exceeded.
	OptimizerDriven = core.OptimizerDriven
	// SLADriven morphs at the cost-model point beyond which a
	// worst-case completion would violate the SLA bound.
	SLADriven = core.SLADriven
)

// SmoothStats exposes the Smooth Scan operator's run-time counters.
type SmoothStats = core.Stats

// AccessPath selects the scan implementation.
type AccessPath int

// Access paths a query can request through ScanOptions.
const (
	// PathSmooth is the adaptive Smooth Scan (default).
	PathSmooth AccessPath = iota
	// PathAuto lets the cost-based optimizer pick among the
	// traditional paths using whatever statistics exist — the
	// baseline whose fragility the paper demonstrates.
	PathAuto
	// PathFull forces a full table scan.
	PathFull
	// PathIndex forces a classic non-clustered index scan.
	PathIndex
	// PathSort forces a sort scan (bitmap heap scan).
	PathSort
	// PathSwitch forces the binary-switching adaptive baseline.
	PathSwitch
)

func (p AccessPath) String() string {
	switch p {
	case PathSmooth:
		return "smooth"
	case PathAuto:
		return "auto"
	case PathFull:
		return "full"
	case PathIndex:
		return "index"
	case PathSort:
		return "sort"
	case PathSwitch:
		return "switch"
	default:
		return fmt.Sprintf("AccessPath(%d)", int(p))
	}
}

// publicPath is the public name of a plan-layer path: AccessPath
// numbers the paths as plan.SpecPaths does, and PathAuto is
// plan.SpecAuto.
func publicPath(p plan.Path) AccessPath { return AccessPath(plan.SpecPaths[p]) }

// Options configures a database.
type Options struct {
	// Disk is the device profile (default HDD).
	Disk Profile
	// PoolPages is the buffer pool capacity in pages (default 1024).
	PoolPages int
	// PlanCache bounds the DB-wide plan-template cache in entries
	// (default 128). Ad-hoc queries whose canonical shape is cached
	// skip the structural compile and pay only the bind phase, exactly
	// like a prepared Stmt. Negative disables the cache; prepared
	// statements still reuse their own template.
	PlanCache int
	// ResultCacheBytes bounds the semantic query-result cache tier in
	// bytes: repeated queries of the same canonical shape and constant
	// values are served their materialized result set from memory with
	// zero device I/O, invalidated by per-table write epochs (see
	// docs/CACHING.md). The tier is opt-in: zero (the default) and
	// negative both disable it, keeping execution byte-identical to an
	// engine without the tier (pinned by `make equiv`).
	//
	// Not to be confused with ScanOptions.ResultCacheBudget, which
	// bounds the scan-internal Result Cache of one ordered Smooth Scan
	// (paper Section IV-A) and has no cross-query effect.
	ResultCacheBytes int64
}

// DB is an embedded, read-optimised database: bulk-load tables, build
// secondary indexes, scan with any access path.
//
// Concurrency: a DB is safe to share across goroutines for reads —
// any number of queries (serial or parallel) may run concurrently, each
// returning its own Rows. A Rows is NOT safe to share: exactly one
// goroutine may drive it. Mutating operations (CreateTable,
// CreateIndex, Analyze, Insert, Compact) are mutually serialized but
// must not run while scans are open; so ColdCache and ResetStats,
// which would corrupt in-flight iterators, return ErrScansOpen while
// any Rows is open.
type DB struct {
	dev    *disk.Device
	pool   *bufferpool.Pool
	mu     sync.RWMutex // guards tables
	tables map[string]*table

	// planCache holds compiled plan templates keyed by canonical query
	// shape; nil when Options.PlanCache is negative.
	planCache *plan.Cache

	// resCache is the semantic query-result cache tier; nil unless
	// Options.ResultCacheBytes is positive.
	resCache *rescache.Cache

	// openScans counts Rows handed out and not yet closed; it gates
	// the cache/stats reset entry points.
	openScans atomic.Int64
}

type table struct {
	optimizer.Table               // what the bind phase reads
	builder         *heap.Builder // nil once finished

	// epoch counts the writes the table has taken since creation
	// (guarded by db.mu). Result-cache entries capture the epochs of
	// every table they read and revalidate them at lookup, so a cached
	// result can never outlive a write to its inputs.
	epoch uint64
}

// Open creates an empty database on a fresh simulated device.
func Open(opts Options) (*DB, error) {
	if opts.Disk.PageSize == 0 {
		opts.Disk = HDD
	}
	if opts.Disk.PageSize < 0 {
		return nil, fmt.Errorf("smoothscan: negative page size %d", opts.Disk.PageSize)
	}
	if opts.PoolPages == 0 {
		opts.PoolPages = 1024
	}
	if opts.PoolPages < 1 {
		return nil, fmt.Errorf("smoothscan: PoolPages %d", opts.PoolPages)
	}
	if opts.PlanCache == 0 {
		opts.PlanCache = 128
	}
	dev := disk.NewDevice(opts.Disk)
	db := &DB{
		dev:    dev,
		pool:   bufferpool.New(dev, opts.PoolPages),
		tables: make(map[string]*table),
	}
	if opts.PlanCache > 0 {
		db.planCache = plan.NewCache(opts.PlanCache)
	}
	db.resCache = rescache.New(opts.ResultCacheBytes, 0)
	return db, nil
}

// PlanCacheStats is a snapshot of the DB-wide plan-template cache:
// hit/miss/eviction counters and the current population. All zero
// when the cache is disabled (Options.PlanCache < 0).
type PlanCacheStats = plan.CacheStats

// PlanCacheStats snapshots the plan-template cache counters. Every
// ad-hoc Query.Run or Explain counts one hit or miss; Stmt executions
// bind their own template and touch the cache only at Prepare.
func (db *DB) PlanCacheStats() PlanCacheStats {
	if db.planCache == nil {
		return PlanCacheStats{}
	}
	return db.planCache.Stats()
}

// ResultCacheStats is a snapshot of the semantic query-result cache
// tier: lookup/store/invalidation/eviction counters and the current
// population. All zero when the tier is disabled (the default).
type ResultCacheStats = rescache.Stats

// ResultCacheStats snapshots the result-cache counters. Hits count
// executions served a materialized result with zero device I/O;
// InvalidatedStale counts entries dropped because a write moved a
// referenced table's epoch past the entry's snapshot.
func (db *DB) ResultCacheStats() ResultCacheStats { return db.resCache.Stats() }

// epochOfLocked returns the named table's write epoch; the caller
// holds db.mu (read). Unknown tables report epoch 0 — they cannot be
// referenced by a cache entry in the first place, since tables are
// never dropped.
func (db *DB) epochOfLocked(name string) uint64 {
	if t, ok := db.tables[name]; ok {
		return t.epoch
	}
	return 0
}

// epochOf is epochOfLocked for callers that do not hold db.mu.
func (db *DB) epochOf(name string) uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.epochOfLocked(name)
}

// ErrNoTable is returned for operations on unknown tables.
var ErrNoTable = wire.ErrNoTable

// ErrNoIndex is returned when a scan needs an index that does not
// exist.
var ErrNoIndex = wire.ErrNoIndex

// ErrScansOpen is returned by ColdCache and ResetStats while Rows are
// open: resetting the buffer pool or the device counters under an
// in-flight iterator would silently corrupt its results, so the
// operation is refused instead. Close every Rows first.
var ErrScansOpen = wire.ErrScansOpen

// TableBuilder loads rows into a new table. All columns are int64.
type TableBuilder struct {
	tab  *table
	cols int
}

// CreateTable creates a table with the named int64 columns and returns
// its loader. Call Finish before querying or indexing.
func (db *DB) CreateTable(name string, columns ...string) (*TableBuilder, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.tables[name]; dup {
		return nil, fmt.Errorf("smoothscan: table %q exists", name)
	}
	cols := make([]tuple.Column, len(columns))
	for i, c := range columns {
		cols[i] = tuple.Column{Name: c, Type: tuple.Int64}
	}
	schema, err := tuple.NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	file, err := heap.Create(db.dev, schema)
	if err != nil {
		return nil, err
	}
	t := &table{Table: optimizer.Table{File: file, Indexes: map[string]*btree.Tree{}}, builder: file.NewBuilder()}
	db.tables[name] = t
	return &TableBuilder{tab: t, cols: len(columns)}, nil
}

// Append adds one row; values must match the column count.
func (b *TableBuilder) Append(vals ...int64) error {
	if b.tab.builder == nil {
		return fmt.Errorf("smoothscan: table already finished")
	}
	if len(vals) != b.cols {
		return fmt.Errorf("smoothscan: %d values for %d columns", len(vals), b.cols)
	}
	return b.tab.builder.Append(tuple.IntsRow(vals...))
}

// Finish flushes the load. The table becomes queryable; further
// Appends fail.
func (b *TableBuilder) Finish() error {
	if b.tab.builder == nil {
		return nil
	}
	err := b.tab.builder.Flush()
	b.tab.builder = nil
	return err
}

// table looks a finished table up under the read lock.
func (db *DB) table(name string) (*table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tableLocked(name)
}

// tableLocked is table for callers already holding db.mu.
func (db *DB) tableLocked(name string) (*table, error) {
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoTable, name)
	}
	if t.builder != nil {
		return nil, fmt.Errorf("smoothscan: table %q is still loading (call Finish)", name)
	}
	return t, nil
}

// CreateIndex builds a non-clustered B+-tree index on the column.
func (db *DB) CreateIndex(tableName, column string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, err := db.tableLocked(tableName)
	if err != nil {
		return err
	}
	col := t.File.Schema().ColIndex(column)
	if col < 0 {
		return fmt.Errorf("smoothscan: table %q has no column %q", tableName, column)
	}
	tree, err := btree.BuildOnColumn(db.dev, t.File, col)
	if err != nil {
		return err
	}
	t.Indexes[column] = tree
	return nil
}

// Analyze collects accurate statistics (histograms) for the given
// columns — what a DBA's ANALYZE run does. Scans with PathAuto use
// them; without Analyze the optimizer falls back to uniformity
// assumptions, the paper's recipe for misestimation.
func (db *DB) Analyze(tableName string, columns ...string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, err := db.tableLocked(tableName)
	if err != nil {
		return err
	}
	cols := make([]int, len(columns))
	for i, c := range columns {
		cols[i] = t.File.Schema().ColIndex(c)
		if cols[i] < 0 {
			return fmt.Errorf("smoothscan: table %q has no column %q", tableName, c)
		}
	}
	stats, err := optimizer.CollectStats(t.File, func(p int64) ([]byte, error) {
		return db.dev.ReadPage(t.File.Space(), p)
	}, cols, 64)
	if err != nil {
		return err
	}
	t.Stats = stats
	return nil
}

// Insert appends one row to a finished table and updates every index
// on it incrementally (new entries live in an in-memory index delta
// until Compact merges them; scans see them immediately). Statistics
// collected by Analyze become stale; re-run Analyze after bulk
// ingestion.
func (db *DB) Insert(tableName string, vals ...int64) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, err := db.tableLocked(tableName)
	if err != nil {
		return err
	}
	if len(vals) != t.File.Schema().NumCols() {
		return fmt.Errorf("smoothscan: %d values for %d columns", len(vals), t.File.Schema().NumCols())
	}
	row := tuple.IntsRow(vals...)
	tid, err := t.File.Insert(row)
	if err != nil {
		return err
	}
	db.pool.InvalidatePage(t.File.Space(), tid.Page)
	for column, tree := range t.Indexes {
		col := t.File.Schema().ColIndex(column)
		tree.Insert(btree.Entry{Key: row.Int(col), TID: tid})
	}
	// The write invalidates every cached result that read this table:
	// bumping the epoch makes their lookup revalidation fail.
	t.epoch++
	return nil
}

// Compact merges every index's insert delta into its on-disk run,
// restoring the contiguous-leaf layout that makes index traversals
// sequential. A maintenance operation, like the original index build.
func (db *DB) Compact(tableName string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, err := db.tableLocked(tableName)
	if err != nil {
		return err
	}
	for _, tree := range t.Indexes {
		if err := tree.Compact(db.dev, db.pool); err != nil {
			return err
		}
	}
	return nil
}

// NumRows returns the row count of a table.
func (db *DB) NumRows(tableName string) (int64, error) {
	t, err := db.table(tableName)
	if err != nil {
		return 0, err
	}
	return t.File.NumTuples(), nil
}

// NumPages returns the heap page count of a table.
func (db *DB) NumPages(tableName string) (int64, error) {
	t, err := db.table(tableName)
	if err != nil {
		return 0, err
	}
	return t.File.NumPages(), nil
}

// TableInfo describes one table: name, column order, which columns are
// indexed, and the loaded row count. It is the catalog projection a
// sharding coordinator needs to mirror a remote shard's schema.
type TableInfo struct {
	Name    string
	Columns []string
	Indexed []string
	Rows    int64
}

// Tables returns the catalog: every finished table, sorted by name.
func (db *DB) Tables() []TableInfo {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for name := range db.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]TableInfo, 0, len(names))
	for _, name := range names {
		t := db.tables[name]
		if t.builder != nil {
			continue // still loading; not queryable yet
		}
		info := TableInfo{Name: name, Rows: t.File.NumTuples()}
		for _, c := range t.File.Schema().Columns() {
			info.Columns = append(info.Columns, c.Name)
		}
		for col := range t.Indexes {
			info.Indexed = append(info.Indexed, col)
		}
		sort.Strings(info.Indexed)
		out = append(out, info)
	}
	return out
}

// Stats returns the device counters accumulated so far: every
// execution's I/O and the loads, inserts and index builds that charge
// no query. A query's own share is its Rows' ExecStats().IO.
func (db *DB) Stats() IOStats { return db.dev.Stats() }

// ResetStats zeroes the device counters. It is refused with
// ErrScansOpen while any Rows is open: in-flight scans are still
// charging the counters, and zeroing them mid-query would leave the
// device totals holding part of a query. The check excludes
// concurrent Query.Run calls (both hold db.mu), so a scan is either fully
// registered and refused here, or starts after the reset.
func (db *DB) ResetStats() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if n := db.openScans.Load(); n > 0 {
		return fmt.Errorf("%w: ResetStats with %d open", ErrScansOpen, n)
	}
	db.dev.ResetStats()
	return nil
}

// ColdCache empties the buffer pool (and resets its counters), putting
// the system in the cold state the paper measures. It is refused with
// ErrScansOpen while any Rows is open: evicting every frame under an
// in-flight iterator would silently change what that scan reads and
// pays for. Like ResetStats, it excludes concurrent Query.Run calls.
func (db *DB) ColdCache() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if n := db.openScans.Load(); n > 0 {
		return fmt.Errorf("%w: ColdCache with %d open", ErrScansOpen, n)
	}
	db.pool.Reset()
	// A cold-state measurement must not be served a warm materialized
	// result either: the result-cache tier empties with the pool.
	db.resCache.Purge()
	return nil
}

// ScanOptions configures a query's table access (Query.WithOptions).
type ScanOptions struct {
	// Path selects the access path (default PathSmooth, which runs a
	// full scan when the driving column has no index; every other
	// index path returns ErrNoIndex there).
	Path AccessPath
	// Policy is the Smooth Scan morphing policy (default Elastic).
	Policy Policy
	// Trigger is the Smooth Scan morphing trigger (default Eager).
	Trigger Trigger
	// Ordered requests output in index-key order. Smooth, index and
	// sort scans deliver it natively (sort scan via a posterior
	// sort); full and switch scans return an error when Ordered is
	// set, as they cannot.
	Ordered bool
	// EstimatedRows is the optimizer's cardinality estimate, used by
	// the OptimizerDriven trigger and the PathSwitch threshold. When
	// zero, the estimate comes from table statistics (Analyze) or the
	// uniformity assumption.
	EstimatedRows int64
	// SLABound is the operator cost bound for the SLADriven trigger,
	// in cost units.
	SLABound float64
	// MaxRegionPages caps the Smooth Scan morphing region (default
	// 2048 pages = 16 MB, the paper's optimum).
	MaxRegionPages int64
	// ResultCacheBudget bounds the ordered Smooth Scan's Result Cache
	// resident memory in bytes; beyond it, far partitions spill to
	// overflow files (charged as sequential I/O). Zero = unlimited.
	ResultCacheBudget int64
	// Parallelism is the number of full-scan workers. With PathFull
	// and a value above 1 the table's heap pages are partitioned into
	// that many disjoint shards, one worker each, merged through an
	// unordered fan-in; the result rows and the heap pages read are
	// exactly those of the serial scan, and from a cold buffer pool the
	// device totals are the same on every run. Every other access path,
	// Smooth Scan included, ignores the knob and runs serially. The
	// value is clamped to the table's page count and to MaxParallelism.
	Parallelism int
}

// MaxParallelism caps ScanOptions.Parallelism.
const MaxParallelism = optimizer.MaxParallelism

// FullScanCost returns the cost-model estimate of a full scan of the
// table, useful for expressing SLA bounds ("two full scans").
func (db *DB) FullScanCost(tableName string) (float64, error) {
	t, err := db.table(tableName)
	if err != nil {
		return 0, err
	}
	return optimizer.CostParams(db.dev, t.File).FullScanCost(), nil
}
