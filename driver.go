package smoothscan

import (
	"context"
	"errors"

	"smoothscan/internal/tuple"
)

// ErrShardUnavailable is returned (wrapped) when a shard cannot serve
// its slice of a sharded query: a remote shard node is unreachable, or
// its connection died mid-stream and the bounded reconnect budget was
// exhausted. The failing shard is identified in the wrapping message
// and flagged in ExecStats.Shards ([ShardStats].Unavailable); the
// other shards' work is cancelled cleanly, never leaked.
var ErrShardUnavailable = errors.New("smoothscan: shard unavailable")

// shardDriver executes one shard's slice of a sharded query. ShardedDB
// holds one driver per shard: the in-process driver runs against the
// shard's own embedded DB; the remote driver ships the query over the
// wire to an ssserver instance. The seam is deliberately narrow — run
// a query, name your address — so the scatter-gather machinery above
// it is identical for both, and an ad-hoc query and a Stmt's bound one
// reach a shard the same way.
type shardDriver interface {
	// address is the shard's network address; "" for in-process shards.
	address() string
	// run executes q — a per-shard query built against the shard's
	// planning DB — and opens its cursor.
	run(ctx context.Context, q *Query) (shardCursor, error)
	// close releases the driver's resources (remote: its connections).
	close() error
}

// shardCursor is one shard's result stream, the driver-neutral face of
// a *Rows (in-process) or a wire stream (remote). The gather exchange
// drives it as an operator via shardRowsOp; the broadcast drain calls
// fill directly.
type shardCursor interface {
	// fill appends rows into b, returning the count; 0 means
	// end-of-stream or error.
	fill(b *tuple.Batch) (int, error)
	// execStats reports the shard execution's statistics; ok is false
	// while a remote stream has not yet received its closing summary.
	execStats() (ExecStats, bool)
	// ioStats reports the shard's I/O delta when the cursor itself is
	// the authority (remote: the summary shipped over the wire); ok is
	// false for in-process cursors, whose I/O is read from the shard
	// device directly.
	ioStats() (IOStats, bool)
	// close releases the stream. Idempotent.
	close() error
}

// localDriver runs a shard's queries against its in-process DB (the
// one each per-shard query is bound to) — the N=1 equivalence
// baseline: its cursor forwards fillBatch/Close verbatim, so a local
// sharded execution is byte-identical to the unsharded engine.
type localDriver struct{}

func (d *localDriver) address() string { return "" }

func (d *localDriver) run(ctx context.Context, q *Query) (shardCursor, error) {
	rows, err := q.Run(ctx)
	if err != nil {
		return nil, err
	}
	return &localCursor{rows: rows}, nil
}

func (d *localDriver) close() error { return nil }

// localCursor adapts a *Rows to the shardCursor protocol.
type localCursor struct {
	rows *Rows
}

func (c *localCursor) fill(b *tuple.Batch) (int, error) { return c.rows.fillBatch(b) }

func (c *localCursor) execStats() (ExecStats, bool) { return c.rows.ExecStats(), true }

// ioStats defers to the shard device: an in-process shard's I/O delta
// is read off the device counters by the coordinator, exactly as the
// unsharded engine does.
func (c *localCursor) ioStats() (IOStats, bool) { return IOStats{}, false }

func (c *localCursor) close() error { return c.rows.Close() }
