package smoothscan

// Engine is the execution-surface every smoothscan backend exposes: a
// single-node *DB, a scatter-gather *ShardedDB (in-process or remote
// shards alike) and a dialed *Conn all implement it, and all of them
// build the one *Query, prepare the one *Stmt and return the one *Rows.
// Code written against Engine — a test harness, a load driver, an
// application — moves between deployments by swapping the constructor
// and nothing else.
//
//	var e smoothscan.Engine = db // or sharded, or smoothscan.Dial(...)
//	rows, err := e.Table("t").Where("val", smoothscan.Between(lo, hi)).Run(ctx)
//
// The interface is the intersection of the three surfaces, not their
// union. Backend-specific capability stays on the concrete types:
// mutation and administration (CreateTable, Insert, Analyze,
// SetFaultPolicy), in-process introspection (Rows.Plan,
// Rows.SmoothStats) and wire-level control (Conn.Broken,
// Conn.ServerStats). Explain is a method of Query and
// Stmt on every engine, but the wire protocol carries no plans, so on
// a *Conn it returns an error. ExecStats is the one diagnostic rich
// enough to keep: every backend fills IO, RowsReturned, PlanCacheHit
// and the fault counters, and the sharded backends add per-shard
// breakdowns.
type Engine interface {
	// Table starts a composable query over the named table: Query on
	// the in-process engines.
	Table(name string) *Query
	// PrepareQuery compiles a query made by this engine's Table into a
	// reusable statement: Prepare on the in-process engines. A query
	// from a different engine is refused.
	PrepareQuery(q *Query) (*Stmt, error)
	// Close releases the engine: a Conn hangs up, sharded engines close
	// their shard drivers, a single-node DB is a no-op.
	Close() error
}

// Cursor iterates a result stream; every engine's Run returns the
// *Rows that implements it.
type Cursor interface {
	Next() bool
	Row() []int64
	Columns() []string
	Err() error
	ExecStats() ExecStats
	Close() error
}

// Compile-time checks that Rows satisfies Cursor and the engines
// satisfy Engine.
var (
	_ Cursor = (*Rows)(nil)
	_ Engine = (*DB)(nil)
	_ Engine = (*ShardedDB)(nil)
	_ Engine = (*Conn)(nil)
)

// Table implements Engine.
func (db *DB) Table(name string) *Query { return db.Query(name) }

// PrepareQuery implements Engine.
func (db *DB) PrepareQuery(q *Query) (*Stmt, error) { return db.Prepare(q) }

// Close implements Engine. A DB holds no resources beyond its own
// memory, so Close is a no-op kept for surface uniformity — code
// written against Engine can defer e.Close() unconditionally.
func (db *DB) Close() error { return nil }

// Table implements Engine.
func (s *ShardedDB) Table(name string) *Query { return s.Query(name) }

// PrepareQuery implements Engine.
func (s *ShardedDB) PrepareQuery(q *Query) (*Stmt, error) { return s.Prepare(q) }
