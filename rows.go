package smoothscan

import (
	"context"
	"errors"
	"fmt"
	"time"

	"smoothscan/internal/bufferpool"
	"smoothscan/internal/core"
	"smoothscan/internal/disk"
	"smoothscan/internal/exec"
	"smoothscan/internal/tuple"
)

// ErrNoRow is returned (wrapped) by Rows.Column when no row is
// current: before the first Next, after Next returned false, or after
// Close.
var ErrNoRow = errors.New("smoothscan: no current row")

// execution is what differs between the three things a Rows can
// iterate: one DB's operator tree (localExec), a sharded
// scatter-gather (shardExec) and a remote result stream (wireExec).
// Iteration, column access, error latching and the result-cache tee
// are the Rows' own and identical for all three.
type execution interface {
	// degrade attempts open-stream fault recovery after the tree
	// failed with err before any row was delivered; on success it has
	// swapped a fallback tree into r.
	degrade(r *Rows, err error) bool
	// finish runs once, at Close, after the operator tree has closed:
	// it releases what the execution holds.
	finish() error
	// store admits a fully drained, error-free stream's accumulated
	// result to the engine's result cache, if the execution is
	// eligible.
	store(a *resAccum)
	// stats reports r's ExecStats: I/O, morphing counters, joins,
	// degradations, the per-shard breakdown — an in-process execution
	// completes its part with r.engineStats.
	stats(r *Rows) ExecStats
	// plan renders the executed plan; nil when rendering fails.
	plan() *Plan
}

// Rows iterates a query result — of a single DB, a sharded
// scatter-gather or a remote server alike. Internally it drains the
// operator tree through the batched (vectorized) protocol: Next
// refills a private row batch once per exec.DefaultBatchSize rows (a
// remote stream's: once per Batch frame) and then serves views into it,
// so the per-row cost of the public iterator is a bounds check and a
// slice header.
//
// Row returns a view that the next Next or Close invalidates; CopyRow
// (or slices.Clone(rows.Row())) is how a caller retains a row.
//
// A Rows is owned by a single goroutine — share the DB, not the Rows.
// Always Close a Rows when done with it; open Rows block ColdCache
// and DB.ResetStats, and a remote Rows holds its connection until it
// is drained or closed. Its ExecStats.IO is its own account whatever
// runs beside it, so concurrent Rows on one DB each report only their
// own I/O.
type Rows struct {
	run        execution
	op         exec.Operator
	schema     *tuple.Schema
	baseSchema *tuple.Schema // pre-projection schema (Column miss reasons)
	ctx        context.Context
	batch      *tuple.Batch // drain batch, on loan from exec's batch pool until Close
	pos        int
	cur        tuple.Row // nil while no row is current
	err        error
	counters   []*opCounter
	plan       *Plan // cached Plan() result
	planCached bool  // template reused (plan cache hit or prepared statement)
	delivered  bool  // at least one row handed out (blocks mid-stream degradation)
	done       bool
	closed     bool
	closeErr   error // first Close error, replayed by idempotent re-Close

	// Result-cache tier state: acc accumulates the stream for a
	// store-on-Close when the execution is cacheable; the cache*
	// fields describe a served hit (surfaced via ExecStats.ResultCache).
	acc        *resAccum
	cacheHit   bool
	cacheBytes int64
	cacheAge   time.Duration
}

// stop ends iteration, latching err (nil at a clean end-of-stream).
func (r *Rows) stop(err error) {
	r.err = err
	r.done = true
	r.cur = nil
}

// Next advances to the next row; it returns false at the end of the
// scan, on error (check Err), and after Close.
func (r *Rows) Next() bool {
	if r.done || r.closed || r.err != nil {
		return false
	}
	if r.batch == nil {
		r.batch = exec.GetBatch(r.schema)
	}
	for r.pos >= r.batch.Len() {
		n, err := r.refill(r.batch)
		if n == 0 {
			r.stop(err)
			return false
		}
		r.pos = 0
	}
	r.cur = r.batch.Row(r.pos)
	r.pos++
	r.delivered = true
	return true
}

// refill pulls the next non-empty batch of the stream into b; 0 means
// end-of-stream (nil error) or failure. Cancellation is checked once
// per refill, never per tuple, to keep the hot path a bounds check. A
// fault surfacing before any row was delivered can still be degraded
// around (the execution swaps in a fallback plan and the loop refills
// from it); afterwards it is final.
func (r *Rows) refill(b *tuple.Batch) (int, error) {
	for {
		if err := r.ctx.Err(); err != nil {
			return 0, err
		}
		n, err := r.op.NextBatch(b)
		if err != nil {
			if !r.delivered && !r.closed && r.run.degrade(r, err) {
				continue
			}
			return 0, err
		}
		if n > 0 && r.acc != nil {
			r.acc.addBatch(b, n)
		}
		return n, nil
	}
}

// fillBatch drains the scan batch-at-a-time into a caller-owned batch
// — the hook the sharded gather's worker adapter drives, keeping the
// shard-to-exchange hop zero-copy per row. It shares Next's semantics
// but bypasses the Rows' own iteration state; callers use either
// fillBatch or Next on a given Rows, never both.
func (r *Rows) fillBatch(b *tuple.Batch) (int, error) {
	if r.done || r.err != nil {
		return 0, r.err
	}
	n, err := r.refill(b)
	if n == 0 {
		r.stop(err)
		return 0, err
	}
	r.delivered = true
	return n, nil
}

// Row returns the current row's values as a view into the Rows' batch:
// it is valid until the next Next or Close, like bufio.Scanner.Bytes,
// and has length 0 when no row is current. CopyRow (or
// slices.Clone(rows.Row())) is how a caller retains a row.
func (r *Rows) Row() []int64 { return r.cur.Ints() }

// CopyRow copies the current row's values into dst and returns the
// number of values copied (the smaller of the row width and len(dst);
// 0 when no row is current). It is the retaining form of Row, and
// streaming consumers — the wire server's result encoder is the
// canonical one — drain a scan into a reused buffer with it.
func (r *Rows) CopyRow(dst []int64) int { return copy(dst, r.Row()) }

// Columns returns the names of the result columns, in output order —
// the schema Select/GroupBy produced, or the table's columns when the
// query projected nothing away.
func (r *Rows) Columns() []string {
	out := make([]string, r.schema.NumCols())
	for i := range out {
		out[i] = r.schema.Col(i).Name
	}
	return out
}

// Col returns the current row's value for the named column, reporting
// false when no row is current or the name does not resolve in the row
// schema. The latter folds two distinct situations together — a column
// the table never had, and one the query projected away via Select or
// GroupBy; use Column when the miss reason matters.
func (r *Rows) Col(name string) (int64, bool) {
	i := r.schema.ColIndex(name)
	if i < 0 || r.cur == nil {
		return 0, false
	}
	return r.cur.Int(i), true
}

// Column returns the current row's value for the named column,
// distinguishing the miss reasons that Col folds into one false: a
// column the table never had (ErrUnknownColumn), a column the query
// projected away via Select or GroupBy (ErrNotSelected), and no
// current row (ErrNoRow).
func (r *Rows) Column(name string) (int64, error) {
	if i := r.schema.ColIndex(name); i >= 0 {
		if r.cur == nil {
			return 0, fmt.Errorf("%w: Column(%q) needs a successful Next", ErrNoRow, name)
		}
		return r.cur.Int(i), nil
	}
	if r.baseSchema != nil && r.baseSchema.ColIndex(name) >= 0 {
		return 0, fmt.Errorf("%w: %q (use Select/GroupBy to include it)", ErrNotSelected, name)
	}
	return 0, fmt.Errorf("%w: %q", ErrUnknownColumn, name)
}

// Err returns the first error encountered.
func (r *Rows) Err() error { return r.err }

// Close releases the scan (stopping any parallel or shard workers
// still running, cancelling a remote stream server-side) and freezes
// the query's ExecStats. Closing an already-closed Rows is
// idempotent: the first call's error (if any) is recorded and
// returned again by every later call, and is also surfaced through Err
// when iteration itself saw no earlier error.
func (r *Rows) Close() error {
	if r.closed {
		return r.closeErr
	}
	r.closed = true
	r.cur = nil
	r.closeErr = r.op.Close()
	if r.batch != nil {
		// The tree has closed (workers quiesced) and no view is out.
		exec.PutBatch(r.batch)
		r.batch = nil
	}
	if err := r.run.finish(); r.closeErr == nil {
		r.closeErr = err
	}
	if r.err == nil {
		r.err = r.closeErr
	}
	// A fully drained, error-free stream feeds the result cache (no
	// device access; eligibility and epochs re-checked inside).
	if r.acc != nil && r.done && r.err == nil {
		r.run.store(r.acc)
	}
	return r.closeErr
}

// Plan returns the compiled plan the query executed — the same tree
// Query.Explain renders (Plan.Sharded for a sharded execution). The
// tree is rendered lazily on first call, so queries that never ask for
// it pay nothing.
func (r *Rows) Plan() *Plan {
	if r.plan == nil {
		if r.plan = r.run.plan(); r.plan != nil && r.cacheHit {
			// The tree is the plan that would have run; say it did not.
			r.plan.CachedResult = true
			if r.plan.Sharded != nil {
				r.plan.Sharded.CachedResult = true
			}
		}
	}
	return r.plan
}

// SmoothStats returns the Smooth Scan operator counters when the scan
// used PathSmooth (ExecStats().Smooth).
func (r *Rows) SmoothStats() (SmoothStats, bool) {
	st := r.ExecStats()
	return st.Smooth, st.HasSmooth
}

// Choice returns the optimizer's decision when the scan used PathAuto.
func (r *Rows) Choice() (path string, estimatedRows int64, ok bool) {
	l, _ := r.run.(*localExec)
	if l == nil || l.cq.driving().choice == nil {
		return "", 0, false
	}
	c := l.cq.driving().choice
	return c.Path.String(), c.EstimatedCard, true
}

// ExecStats returns the query's unified execution statistics. It may
// be called while the scan is still running (counters are then
// partial: per-shard internals are only read once the shard workers
// have quiesced); after Close the snapshot is final.
func (r *Rows) ExecStats() ExecStats { return r.run.stats(r) }

// engineStats completes an in-process execution's stats with what the
// Rows itself tracks: per-operator counts, plan and result cache reuse,
// and the fault counters read off the I/O account.
func (r *Rows) engineStats(st ExecStats) ExecStats {
	for _, c := range r.counters {
		st.Operators = append(st.Operators, OperatorStats{Name: c.name, Rows: c.rows, Batches: c.batches})
	}
	if n := len(r.counters); n > 0 {
		st.RowsReturned = r.counters[n-1].rows
	}
	st.PlanCacheHit = r.planCached
	st.ResultCache = ResultCacheExec{Hit: r.cacheHit, Bytes: r.cacheBytes, Age: r.cacheAge}
	st.Retries = st.IO.Retries
	st.FaultsSeen = st.IO.Faults + st.IO.Corruptions + st.IO.LatencySpikes
	return st
}

// localExec is one DB's operator tree for a compiled query — built by
// localExec.build — plus the handles ExecStats reads (the driving
// table's Smooth Scan operator, the join operators, the per-stage
// counters) and the execution's I/O account.
type localExec struct {
	db       *DB
	cq       *compiledQuery
	root     exec.Operator
	smooth   *core.SmoothScan
	joins    []exec.JoinStatser // batched join operators, leaf-most first
	counters []*opCounter

	// pool is the view of the DB's buffer pool the tree reads and
	// charges through; its channel is the execution's I/O account. A
	// fresh execution's view is over ch, its own fresh-head channel; a
	// degraded rebuild keeps the view of the execution it replaces.
	pool bufferpool.Pool
	ch   disk.Channel
}

// newExec starts an execution of cq on a fresh I/O account: a channel
// with no head position and a view of the DB's buffer pool over it,
// both embedded so the account costs no allocation. The caller holds
// db.mu (read).
func (db *DB) newExec(cq *compiledQuery) *localExec {
	l := &localExec{db: db, cq: cq, ch: db.dev.OpenChannel()}
	l.pool = db.pool.On(&l.ch)
	return l
}

// rows hands out the Rows over the opened tree and registers it as an
// open scan. The caller holds db.mu (read).
func (l *localExec) rows(ctx context.Context) *Rows {
	l.db.openScans.Add(1)
	return &Rows{
		run:        l,
		op:         l.root,
		schema:     l.cq.out,
		baseSchema: l.cq.base,
		ctx:        ctx,
		counters:   l.counters,
		planCached: l.cq.planCached,
	}
}

func (l *localExec) finish() error {
	l.db.openScans.Add(-1)
	return nil
}

func (l *localExec) store(a *resAccum) {
	if len(l.cq.degraded) == 0 {
		storeResult(l.db.resCache, a, l.db.epochOf)
	}
}

func (l *localExec) plan() *Plan { return l.cq.plan() }

func (l *localExec) stats(r *Rows) ExecStats {
	st := ExecStats{IO: l.pool.Channel().Stats()}
	if l.smooth != nil {
		// Smooth Scan runs on the caller's goroutine, so a live
		// snapshot is safe.
		st.HasSmooth = true
		st.Smooth = l.smooth.Stats()
	}
	for _, j := range l.joins {
		st.Joins = append(st.Joins, j.JoinStats())
	}
	if len(l.cq.degraded) > 0 {
		st.Degraded = append([]string(nil), l.cq.degraded...)
	}
	return r.engineStats(st)
}
