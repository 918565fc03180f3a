package smoothscan

import (
	"context"
	"errors"
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
	// planning DB — and opens its result stream.
	run(ctx context.Context, q *Query) (*Rows, error)
	// close releases the driver's resources (remote: its connections).
	close() error
}

// localDriver runs a shard's queries against its in-process DB (the
// one each per-shard query is bound to) — the N=1 equivalence
// baseline: the gather drains the shard's own Rows, so a local sharded
// execution is byte-identical to the unsharded engine.
type localDriver struct{}

func (d *localDriver) address() string { return "" }

func (d *localDriver) run(ctx context.Context, q *Query) (*Rows, error) { return q.Run(ctx) }

func (d *localDriver) close() error { return nil }
