package smoothscan

import (
	"context"
	"fmt"
)

// Engine is the execution-surface every smoothscan backend exposes: a
// single-node *DB, a scatter-gather *ShardedDB (in-process or remote
// shards alike) and a remote *ssclient.Conn all implement it. Code
// written against Engine — a test harness, a load driver, an
// application — moves between deployments by swapping the constructor
// and nothing else.
//
//	var e smoothscan.Engine = db // or sharded, or ssclient.Dial(...)
//	cur, err := e.Table("t").Where("val", smoothscan.Between(lo, hi)).Run(ctx)
//
// The interface is the intersection of the three surfaces, not their
// union. Backend-specific capability stays on the concrete types:
// mutation and administration (CreateTable, Insert, Analyze,
// SetFaultPolicy), in-process introspection (Rows.Plan,
// Rows.SmoothStats), wire-level control
// (Conn.SetFetchRows, Conn.Broken, Conn.ServerStats) and
// Explain-before-execute. ExecStats is the one diagnostic rich enough
// to keep: every backend fills IO, RowsReturned, PlanCacheHit and the
// fault counters, and the sharded backends add per-shard breakdowns.
type Engine interface {
	// Table starts a composable query over the named table. The
	// builder records errors internally and reports them from Run (or
	// PrepareQuery), like the Query it wraps.
	Table(name string) Builder
	// PrepareQuery compiles a builder made by this engine's Table into
	// a reusable prepared statement. Passing a Builder from a
	// different Engine is an error.
	PrepareQuery(b Builder) (PreparedQuery, error)
	// Close releases the engine: remote connections hang up, sharded
	// engines close their shard drivers, a single-node DB is a no-op.
	Close() error
}

// Builder is the composable query surface shared by every Engine. The
// methods mirror Query exactly; each call mutates the underlying query
// and returns the same Builder for chaining.
type Builder interface {
	Where(col string, p Pred) Builder
	Join(table, leftCol, rightCol string) Builder
	JoinWithOptions(table, leftCol, rightCol string, opts ScanOptions) Builder
	Select(cols ...string) Builder
	GroupBy(col string, aggs ...Agg) Builder
	OrderBy(col string) Builder
	Limit(n any) Builder
	WithOptions(opts ScanOptions) Builder
	// Run executes the query and opens a cursor over the results.
	Run(ctx context.Context) (Cursor, error)
}

// Cursor iterates a result stream. Every engine's cursor is a *Rows —
// local, sharded and remote executions alike — so a caller that needs
// more than this interface (CopyRow, Col, Column) asserts it to *Rows.
// ExecStats is fully populated once the stream is drained; a remote
// execution's statistics arrive with the server's closing summary, so
// mid-stream reads return the zero value there.
//
// Row returns the current row as a view into a buffer the cursor owns:
// it is valid until the next Next or Close on every engine, and has
// length 0 when no row is current. A caller that keeps a row copies it
// (slices.Clone, or Rows.CopyRow).
type Cursor interface {
	Next() bool
	Row() []int64
	Columns() []string
	Err() error
	ExecStats() ExecStats
	Close() error
}

// PreparedQuery is a reusable compiled statement: bind parameters,
// run, repeat. No backend keeps state for a statement — a remote one
// is its spec, shipped with every Run — so Close releases nothing; a
// remote statement refuses Run after it.
type PreparedQuery interface {
	Params() []string
	Run(ctx context.Context, b Bind) (Cursor, error)
	Close() error
}

// Compile-time checks that Rows satisfies Cursor and the engines
// satisfy Engine.
var (
	_ Cursor = (*Rows)(nil)
	_ Engine = (*DB)(nil)
	_ Engine = (*ShardedDB)(nil)
)

// builder adapts *Query (whose methods return *Query) to Builder.
type builder struct{ q *Query }

func (b builder) Where(col string, p Pred) Builder { b.q.Where(col, p); return b }
func (b builder) Join(table, leftCol, rightCol string) Builder {
	b.q.Join(table, leftCol, rightCol)
	return b
}
func (b builder) JoinWithOptions(table, leftCol, rightCol string, opts ScanOptions) Builder {
	b.q.JoinWithOptions(table, leftCol, rightCol, opts)
	return b
}
func (b builder) Select(cols ...string) Builder           { b.q.Select(cols...); return b }
func (b builder) GroupBy(col string, aggs ...Agg) Builder { b.q.GroupBy(col, aggs...); return b }
func (b builder) OrderBy(col string) Builder              { b.q.OrderBy(col); return b }
func (b builder) Limit(n any) Builder                     { b.q.Limit(n); return b }
func (b builder) WithOptions(opts ScanOptions) Builder    { b.q.WithOptions(opts); return b }
func (b builder) Run(ctx context.Context) (Cursor, error) { return cursorOf(b.q.Run(ctx)) }

// cursorOf keeps a failed Run's nil *Rows from becoming a non-nil
// Cursor.
func cursorOf(r *Rows, err error) (Cursor, error) {
	if err != nil {
		return nil, err
	}
	return r, nil
}

// prepared adapts a *Stmt to PreparedQuery.
type prepared struct{ *Stmt }

func (p prepared) Run(ctx context.Context, b Bind) (Cursor, error) {
	return cursorOf(p.Stmt.Run(ctx, b))
}

// prepareBuilder is PrepareQuery on both in-process engines: unwrap a
// Builder made by eng's Table and prepare its query.
func prepareBuilder(eng queryEngine, b Builder) (PreparedQuery, error) {
	qb, ok := b.(builder)
	if !ok || qb.q.eng != eng {
		return nil, fmt.Errorf("smoothscan: PrepareQuery: builder %T was not created by this engine's Table", b)
	}
	st, err := eng.prepare(qb.q)
	if err != nil {
		return nil, err
	}
	return prepared{st}, nil
}

// Table implements Engine.
func (db *DB) Table(name string) Builder { return builder{db.Query(name)} }

// PrepareQuery implements Engine; the Builder must come from this
// DB's Table.
func (db *DB) PrepareQuery(b Builder) (PreparedQuery, error) { return prepareBuilder(db, b) }

// Close implements Engine. A DB holds no resources beyond its own
// memory, so Close is a no-op kept for surface uniformity — code
// written against Engine can defer e.Close() unconditionally.
func (db *DB) Close() error { return nil }

// Table implements Engine.
func (s *ShardedDB) Table(name string) Builder { return builder{s.Query(name)} }

// PrepareQuery implements Engine; the Builder must come from this
// ShardedDB's Table.
func (s *ShardedDB) PrepareQuery(b Builder) (PreparedQuery, error) { return prepareBuilder(s, b) }
