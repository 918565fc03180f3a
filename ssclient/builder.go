package ssclient

import (
	"context"
	"fmt"

	"smoothscan"
)

// A Conn is a smoothscan.Engine: the same harness code that drives a
// *smoothscan.DB or *smoothscan.ShardedDB drives a remote server by
// swapping in a dialed Conn. Wire-specific capability (SetFetchRows,
// Broken, ServerStats, fault administration) stays on the concrete
// type. A run's cursor is a *smoothscan.Rows on every engine.
var (
	_ smoothscan.Engine        = (*Conn)(nil)
	_ smoothscan.Builder       = (*Query)(nil)
	_ smoothscan.PreparedQuery = (*Stmt)(nil)
)

// Query is a remote query under construction: a detached
// smoothscan.Query — the engine's own builder, so predicates,
// aggregates and Param placeholders are the root package's types and
// the local and remote surfaces cannot drift — plus the connection it
// will run on. It implements smoothscan.Builder. At Run/PrepareQuery
// the query's spec goes to the wire; all semantic validation (unknown
// tables and columns, ambiguous conjuncts) happens server-side, where
// the schema lives, while builder-level mistakes (bad argument types,
// Select set twice) are recorded by the engine builder and reported
// from Run/PrepareQuery — the same error-channel contract as the
// embedded engine.
type Query struct {
	c *Conn
	q *smoothscan.Query
}

// Table implements smoothscan.Engine: it starts a composable query
// over the named server-side table.
func (c *Conn) Table(name string) smoothscan.Builder {
	return &Query{c: c, q: smoothscan.NewQuery(name)}
}

func (q *Query) Where(col string, p smoothscan.Pred) smoothscan.Builder {
	q.q.Where(col, p)
	return q
}

func (q *Query) Join(table, leftCol, rightCol string) smoothscan.Builder {
	q.q.Join(table, leftCol, rightCol)
	return q
}

func (q *Query) JoinWithOptions(table, leftCol, rightCol string, opts smoothscan.ScanOptions) smoothscan.Builder {
	q.q.JoinWithOptions(table, leftCol, rightCol, opts)
	return q
}

func (q *Query) Select(cols ...string) smoothscan.Builder { q.q.Select(cols...); return q }

func (q *Query) GroupBy(col string, aggs ...smoothscan.Agg) smoothscan.Builder {
	q.q.GroupBy(col, aggs...)
	return q
}

func (q *Query) OrderBy(col string) smoothscan.Builder { q.q.OrderBy(col); return q }

func (q *Query) Limit(n any) smoothscan.Builder { q.q.Limit(n); return q }

// WithOptions applies ScanOptions to the driving table access. The
// options type is shared with the embedded engine, so a workload
// configuration moves between local and remote execution unchanged.
func (q *Query) WithOptions(opts smoothscan.ScanOptions) smoothscan.Builder {
	q.q.WithOptions(opts)
	return q
}

// Run executes the query ad hoc (literals inline) and opens a result
// stream, a *smoothscan.Rows: the same Execute request a Stmt.Run
// sends, without a bind. Parameterized queries must go through
// PrepareQuery.
func (q *Query) Run(ctx context.Context) (smoothscan.Cursor, error) {
	spec, err := q.q.Spec()
	if err != nil {
		return nil, err
	}
	return smoothscan.RunRemote(ctx, q.c.Conn, spec, nil)
}

// PrepareQuery implements smoothscan.Engine: it compiles a Builder
// made by this Conn's Table on the server and returns the statement, a
// *Stmt. Structural errors (unknown tables or columns, bad argument
// types) surface here, as with DB.Prepare.
func (c *Conn) PrepareQuery(b smoothscan.Builder) (smoothscan.PreparedQuery, error) {
	q, ok := b.(*Query)
	if !ok || q.c != c {
		return nil, fmt.Errorf("ssclient: PrepareQuery: builder %T was not created by this connection's Table", b)
	}
	spec, err := q.q.Spec()
	if err != nil {
		return nil, err
	}
	params, err := c.Conn.PrepareSpec(spec)
	if err != nil {
		return nil, err
	}
	return &Stmt{c: c, spec: spec, params: params}, nil
}
