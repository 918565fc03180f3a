package smoothscan

import (
	"context"
	"fmt"
	"time"

	"smoothscan/internal/disk"
	"smoothscan/internal/exec"
	"smoothscan/internal/tuple"
)

// ResultCacheExec describes one execution's interaction with the
// semantic result-cache tier (zero value when the tier is disabled or
// the execution bypassed it).
type ResultCacheExec struct {
	// Hit reports that the execution was served a materialized result
	// from the cache, with zero device I/O.
	Hit bool
	// Bytes is the served entry's accounted size; zero on a miss.
	Bytes int64
	// Age is how long ago the served entry was created; zero on a miss.
	Age time.Duration
}

// JoinStats exposes one batched join operator's counters: rows
// consumed from each input, hash build size, output rows, and — for a
// hash join — the growth of the query's I/O account while the build
// input was drained. For a single join, the probe side's I/O is the query's IO
// total minus BuildIO; in a chain, a later stage building on the
// accumulated left side measures a window that contains the earlier
// stages' I/O, so per-stage deltas nest rather than sum.
type JoinStats = exec.JoinStats

// OperatorStats counts one plan operator's output.
type OperatorStats struct {
	// Name identifies the operator ("smooth", "filter", "hash-agg", ...).
	Name string
	// Rows is the number of rows the operator produced.
	Rows int64
	// Batches is the number of non-empty batches it produced.
	Batches int64
}

// ExecStats unifies a query's observability in one place: the query's
// I/O account, the Smooth Scan morphing counters (aggregated across
// parallel workers and individually per worker), and per-operator
// row/batch counts. Retrieve it from a Rows — the numbers are complete
// once the Rows is closed (parallel workers have quiesced and flushed
// their deferred CPU charges by then).
type ExecStats struct {
	// IO is the execution's own account, from a fresh head: every page
	// read, spill and CPU charge made for this query — by its parallel
	// workers and by fault-ladder attempts that failed included —
	// and nothing another query did, however many run concurrently.
	// Its first read is classified a seek wherever the previous query
	// left the head. For a sharded query it is the sum of Shards[i].IO;
	// a result-cache hit reports zero.
	IO IOStats
	// HasSmooth reports whether the driving table's access path was a
	// Smooth Scan, i.e. whether Smooth (and, when parallel, Workers)
	// is set. For a join query this covers the first (driving) input;
	// the join inputs' row counts are in Joins and Operators.
	HasSmooth bool
	// Smooth holds the morphing counters: the operator's own for a
	// serial scan, the core.AggregateStats roll-up for a parallel one.
	// For a parallel scan still running, the roll-up is zero — worker
	// counters are only read once the workers have quiesced (the scan
	// drained to end-of-stream or closed), because reading them while
	// worker goroutines still mutate them would race.
	Smooth SmoothStats
	// Workers holds per-worker morphing counters for a parallel Smooth
	// Scan, in shard (heap page) order; nil otherwise (including while
	// a parallel scan is still running, see Smooth).
	Workers []SmoothStats
	// Joins holds the join operators' build/probe counters, in
	// leaf-to-root order of the left-deep join tree; nil for
	// single-table queries.
	Joins []JoinStats
	// Operators counts rows and batches per plan operator, leaf first.
	Operators []OperatorStats
	// RowsReturned is the number of rows the root operator delivered
	// to the caller so far.
	RowsReturned int64
	// PlanCacheHit reports whether this execution reused a compiled
	// plan template instead of compiling the query structure afresh:
	// true for every Stmt.Run, and for an ad-hoc Query.Run whose
	// canonical shape was in the DB-wide plan cache. A remote execution
	// reports the server's plan cache, which every run probes: a remote
	// Stmt.Run hits unless that cache dropped the shape (or is off).
	PlanCacheHit bool
	// ResultCache reports whether (and what) the semantic result-cache
	// tier served this execution. Distinct from PlanCacheHit: the plan
	// cache skips recompiling the query's structure, the result cache
	// skips executing it at all.
	ResultCache ResultCacheExec
	// Retries is the number of bounded device-read retries the query
	// made (IO.Retries): transient faults and corrupted pages the
	// buffer pool recovered by re-reading. Zero without a FaultPolicy.
	Retries int64
	// FaultsSeen totals the injected-fault events the query met:
	// failed reads (transient and permanent), corrupted pages served,
	// and latency spikes charged. Zero without a FaultPolicy.
	FaultsSeen int64
	// Degraded lists the fault-recovery plan fallbacks this execution
	// applied, in order (see Plan.Degraded); nil when the query ran as
	// compiled. For a sharded query the entries are prefixed with the
	// degrading shard ("shard 2: ...").
	Degraded []string
	// Shards is the per-shard breakdown of a sharded query — pruning
	// decisions, per-shard I/O, rows and morphing counters — in shard
	// order; nil for unsharded queries.
	Shards []ShardStats
}

// ShardStats is one shard's slice of a sharded query's execution:
// whether (and why) the planner pruned it, its I/O account, and
// — for shards that ran — the rows it delivered and its own morphing
// and degradation state.
type ShardStats struct {
	// Shard is the shard index.
	Shard int
	// Owns describes the shard's key ownership ("[100,200)", "h%4=2").
	Owns string
	// Addr is the shard's network address for a remote shard; "" for
	// in-process shards.
	Addr string
	// Unavailable reports that the shard failed as unreachable during
	// this execution (errors.Is(err, ErrShardUnavailable)): the node
	// was down, or its connection died and reconnection was exhausted.
	Unavailable bool
	// Pruned reports that the planner excluded the shard — it ran no
	// operator and performed zero device I/O.
	Pruned bool
	// PrunedWhy is the pruning (or empty-plan) reason for a pruned
	// shard; "" for shards that ran.
	PrunedWhy string
	// IO is the shard's own account, from a fresh head: its Rows'
	// ExecStats().IO (a remote shard's is the node's summary) plus,
	// under a broadcast join, the shard's side-query drain and the
	// join's work above its stream. Zero for pruned shards; filled
	// once the query has drained or closed.
	IO IOStats
	// Rows is the number of rows the shard's slice delivered into the
	// gather; filled once the query has drained or closed.
	Rows int64
	// PlanCacheHit reports whether the shard's own execution reused a
	// compiled template.
	PlanCacheHit bool
	// HasSmooth / Smooth expose the shard's Smooth Scan morphing
	// counters, like ExecStats.HasSmooth/Smooth.
	HasSmooth bool
	Smooth    SmoothStats
	// Degraded lists the fault-recovery fallbacks this shard applied;
	// one shard degrading never touches the others' plans.
	Degraded []string
}

// stats reports a sharded query's ExecStats: the per-shard breakdown
// and its sums. A shard's I/O is what its own executions report — its
// Rows' ExecStats().IO, in process and remote alike — plus, under
// broadcast, its side query's drain and its worker's join. The side
// queries finish before the workers start; everything the workers own
// (rows, I/O, morphing counters, degradations) is read once the query
// has quiesced, because before that the workers may still be running.
func (se *shardExec) stats(r *Rows) ExecStats {
	quiesced := r.closed || r.done
	var st ExecStats
	s := se.s
	shards := make([]ShardStats, len(s.shards))
	for i := range shards {
		shards[i] = ShardStats{
			Shard:     i,
			Owns:      se.part.DescribeShard(i),
			Addr:      s.drivers[i].address(),
			Pruned:    true,
			PrunedWhy: se.prunedWhy[i],
		}
	}
	for _, side := range se.sides {
		if side.rows != nil {
			sh := &shards[side.shard]
			sh.IO = disk.Add(sh.IO, side.rows.ExecStats().IO)
		}
	}
	for k, si := range se.active {
		sh := &shards[si]
		sh.Pruned = false
		sh.PrunedWhy = ""
		if !quiesced || k >= len(se.adapters) {
			continue
		}
		a := se.adapters[k]
		sh.Unavailable = a.unavailable
		if a.join != nil {
			sh.IO = disk.Add(sh.IO, a.join.Stats())
		}
		if a.rows == nil {
			continue
		}
		sub := a.rows.ExecStats()
		sh.IO = disk.Add(sh.IO, sub.IO)
		sh.Rows = sub.RowsReturned
		sh.PlanCacheHit = sub.PlanCacheHit
		sh.HasSmooth = sub.HasSmooth
		sh.Smooth = sub.Smooth
		sh.Degraded = sub.Degraded
		for _, d := range sub.Degraded {
			st.Degraded = append(st.Degraded, fmt.Sprintf("shard %d: %s", si, d))
		}
	}
	for i := range shards {
		st.IO = disk.Add(st.IO, shards[i].IO)
	}
	st.Shards = shards
	return r.engineStats(st)
}

// opCounter accumulates one operator's output counts. It is written
// only by the goroutine driving the Rows, so no synchronisation is
// needed.
type opCounter struct {
	name    string
	rows    int64
	batches int64
}

// countedOp decorates an operator with row/batch counting. It adds no
// simulated cost — the counters are host-side observability — and
// forwards NextBatch unchanged, so decoration never changes the
// operator tree's I/O schedule or CPU charge sequence.
type countedOp struct {
	inner exec.Operator
	c     *opCounter
}

func (o *countedOp) Schema() *tuple.Schema { return o.inner.Schema() }
func (o *countedOp) Open() error           { return o.inner.Open() }
func (o *countedOp) Close() error          { return o.inner.Close() }

func (o *countedOp) NextBatch(b *tuple.Batch) (int, error) {
	n, err := o.inner.NextBatch(b)
	if n > 0 {
		o.c.rows += int64(n)
		o.c.batches++
	}
	return n, err
}

// ctxGuard checks context cancellation once per batch (never per
// tuple) on behalf of whatever drains it — the Rows iterator or a
// blocking operator (sort, aggregation) consuming the scan.
type ctxGuard struct {
	inner exec.Operator
	ctx   context.Context
}

func (g *ctxGuard) Schema() *tuple.Schema { return g.inner.Schema() }
func (g *ctxGuard) Open() error           { return g.inner.Open() }
func (g *ctxGuard) Close() error          { return g.inner.Close() }

func (g *ctxGuard) NextBatch(b *tuple.Batch) (int, error) {
	if err := g.ctx.Err(); err != nil {
		return 0, err
	}
	return g.inner.NextBatch(b)
}
