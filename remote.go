package smoothscan

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"smoothscan/internal/client"
	"smoothscan/internal/rescache"
	"smoothscan/internal/tuple"
	"smoothscan/internal/wire"
)

// Placement pins one shard to the network address of the ssserver
// instance that owns its rows (boot the node with
// `ssserver -shard-id i -shard-count n` so it loads exactly that
// slice). The placements passed to OpenShardedRemote are in shard
// order: placements[i] serves shard i of every table's Partitioning.
type Placement struct {
	// Addr is the shard node's address, "host:port".
	Addr string
}

// Tunables of the remote shard driver's connection handling.
const (
	// remoteDialAttempts bounds the dials tried before a shard is
	// declared unavailable.
	remoteDialAttempts = 3
	// remoteDialBackoff is the pause after a failed dial; it doubles
	// per attempt (10ms, 20ms).
	remoteDialBackoff = 10 * time.Millisecond
	// remotePoolCap bounds the idle connections a shard driver keeps.
	remotePoolCap = 8
)

// OpenShardedRemote opens a sharded database whose shards live in
// remote ssserver processes. The returned *ShardedDB serves the exact
// query surface of an in-process one — Query / Prepare / Explain,
// scatter-gather with pruning, per-shard ExecStats — but every shard's
// slice executes on its node and streams back over the wire.
//
// parts maps each sharded table to its Partitioning across the
// placement set (the client-side placement map: routing and pruning
// knowledge lives with the coordinator, data lives with the nodes).
// Each node's table catalog is fetched at open time and mirrored into
// a schema-only planning DB (opts configures those mirrors), so the
// coordinator compiles, prunes and explains exactly as it would
// locally; the mirrors hold no rows, so cost estimates that read table
// sizes are degenerate — of the engine's planning decisions only the
// broadcast-side pick reads them, and either pick returns the same
// rows (the gather is unordered for joins).
//
// A dead node surfaces as ErrShardUnavailable — at open time after
// bounded dial retries, or mid-query when its stream dies and
// reconnection is exhausted. Close the returned database to release
// the per-shard connection pools.
func OpenShardedRemote(placements []Placement, parts map[string]Partitioning, opts Options) (*ShardedDB, error) {
	if len(placements) < 1 {
		return nil, fmt.Errorf("smoothscan: no shard placements")
	}
	for i, p := range placements {
		if p.Addr == "" {
			return nil, fmt.Errorf("smoothscan: placement %d has no address", i)
		}
	}
	for table, p := range parts {
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("smoothscan: partitioning of %q: %w", table, err)
		}
		if p.N != len(placements) {
			return nil, fmt.Errorf("smoothscan: partitioning of %q covers %d shards, %d placed", table, p.N, len(placements))
		}
	}
	s := &ShardedDB{remote: true, parts: map[string]Partitioning{}, resCache: rescache.New(opts.ResultCacheBytes, 0)}
	for t, p := range parts {
		s.parts[t] = p
	}
	ok := false
	defer func() {
		if !ok {
			_ = s.Close()
		}
	}()
	for i, p := range placements {
		d := &remoteDriver{shard: i, addr: p.Addr}
		s.drivers = append(s.drivers, d)
		c, err := d.dial()
		if err != nil {
			return nil, err
		}
		tables, err := c.Catalog()
		if err != nil {
			d.discard(c)
			return nil, fmt.Errorf("smoothscan: shard %d (%s) catalog: %w", i, p.Addr, err)
		}
		d.release(c)
		db, err := catalogMirror(opts, tables)
		if err != nil {
			return nil, fmt.Errorf("smoothscan: shard %d (%s) catalog: %w", i, p.Addr, err)
		}
		d.rows = make(map[string]int64, len(tables))
		for _, t := range tables {
			d.rows[t.Name] = t.Rows
		}
		s.shards = append(s.shards, db)
		for table, part := range parts {
			tab, err := db.table(table)
			if err != nil {
				return nil, fmt.Errorf("smoothscan: shard %d (%s) has no table %q", i, p.Addr, table)
			}
			if tab.File.Schema().ColIndex(part.Column) < 0 {
				return nil, fmt.Errorf("smoothscan: shard %d (%s): table %q has no partition column %q", i, p.Addr, table, part.Column)
			}
		}
	}
	ok = true
	return s, nil
}

// catalogMirror builds the schema-only planning DB for one node: its
// tables and indexes, zero rows.
func catalogMirror(opts Options, tables []wire.TableSpec) (*DB, error) {
	db, err := Open(opts)
	if err != nil {
		return nil, err
	}
	for _, t := range tables {
		tb, err := db.CreateTable(t.Name, t.Cols...)
		if err != nil {
			return nil, err
		}
		if err := tb.Finish(); err != nil {
			return nil, err
		}
		for _, col := range t.Indexed {
			if err := db.CreateIndex(t.Name, col); err != nil {
				return nil, err
			}
		}
	}
	return db, nil
}

// remoteDriver executes one shard's slices on a remote ssserver. It
// keeps a small pool of idle protocol connections — each in-flight
// per-shard stream owns one exclusively (a wire session runs one
// exchange at a time), so a scatter touching the shard k ways uses k
// connections. Dead connections are discarded and re-dialed with
// bounded retry; when the node stays unreachable the error wraps
// ErrShardUnavailable (and the underlying transport error, so
// errors.Is sees both).
type remoteDriver struct {
	shard int
	addr  string
	// rows is the node's per-table row count, snapshotted from its
	// catalog at open time (ShardRows serves it; the mirrors are empty).
	rows map[string]int64

	mu     sync.Mutex
	idle   []*client.Conn
	closed bool
}

func (d *remoteDriver) address() string { return d.addr }

// acquire hands out an idle connection or dials a fresh one.
func (d *remoteDriver) acquire() (*client.Conn, error) {
	d.mu.Lock()
	for len(d.idle) > 0 {
		c := d.idle[len(d.idle)-1]
		d.idle = d.idle[:len(d.idle)-1]
		if c.Broken() {
			_ = c.Close()
			continue
		}
		d.mu.Unlock()
		return c, nil
	}
	closed := d.closed
	d.mu.Unlock()
	if closed {
		return nil, fmt.Errorf("%w: shard %d (%s): database closed", ErrShardUnavailable, d.shard, d.addr)
	}
	return d.dial()
}

// dial connects with bounded retry and backoff; exhaustion wraps
// ErrShardUnavailable around the last transport error.
func (d *remoteDriver) dial() (*client.Conn, error) {
	var lastErr error
	for attempt := 0; attempt < remoteDialAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(remoteDialBackoff << (attempt - 1))
		}
		c, err := client.Dial(d.addr)
		if err == nil {
			return c, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("%w: shard %d (%s): %w", ErrShardUnavailable, d.shard, d.addr, lastErr)
}

// release returns a connection to the idle pool; broken connections
// and pool overflow are closed instead.
func (d *remoteDriver) release(c *client.Conn) {
	if c == nil {
		return
	}
	if c.Broken() {
		_ = c.Close()
		return
	}
	d.mu.Lock()
	if d.closed || len(d.idle) >= remotePoolCap {
		d.mu.Unlock()
		_ = c.Close()
		return
	}
	d.idle = append(d.idle, c)
	d.mu.Unlock()
}

// discard closes a connection without pooling it.
func (d *remoteDriver) discard(c *client.Conn) {
	if c != nil {
		_ = c.Close()
	}
}

// shardErr classifies an error from shard i's execution: transport
// failures (connection lost, session closed under it) become
// ErrShardUnavailable with the shard identified; everything else —
// typed engine errors shipped in Error frames, context cancellation,
// errors already classified — passes through untouched, so errors.Is
// parity with in-process execution holds. An in-process shard never
// sees a transport failure.
func shardErr(i int, addr string, err error) error {
	if errors.Is(err, ErrShardUnavailable) || !errors.Is(err, client.ErrConnLost) && !errors.Is(err, wire.ErrSessionClosed) {
		return err
	}
	return fmt.Errorf("%w: shard %d (%s): %w", ErrShardUnavailable, i, addr, err)
}

func (d *remoteDriver) run(ctx context.Context, q *Query) (*Rows, error) {
	spec, err := q.Spec()
	if err != nil {
		return nil, err
	}
	for attempt := 0; ; attempt++ {
		c, err := d.acquire()
		if err != nil {
			return nil, err
		}
		rows, err := openRemote(ctx, c, spec, nil, d)
		if err == nil {
			return rows, nil
		}
		d.discard(c)
		// A pooled connection may have died idle; retry once fresh.
		if attempt == 0 && errors.Is(err, client.ErrConnLost) {
			continue
		}
		return nil, shardErr(d.shard, d.addr, err)
	}
}

func (d *remoteDriver) close() error {
	d.mu.Lock()
	idle := d.idle
	d.idle = nil
	d.closed = true
	d.mu.Unlock()
	var first error
	for _, c := range idle {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// coldCache drops the node's buffer-pool contents (the remote
// equivalent of DB.ColdCache), for harnesses that measure cold runs.
func (d *remoteDriver) coldCache() error {
	c, err := d.acquire()
	if err != nil {
		return err
	}
	err = c.ColdCache()
	d.release(c)
	return shardErr(d.shard, d.addr, err)
}

// openRemote runs spec with bind b on the remote session c and returns
// its result stream as a *Rows: a Conn's runs and a remote shard's
// slices alike. drv, when set, owns c: closing the Rows returns the
// connection to drv's pool.
//
// The Rows' ExecStats is the server's closing summary — zero until the
// stream has been drained: I/O, row count, plan and result cache reuse,
// retry and fault counters and the degradation ladder survive the
// wire; operator breakdowns and the morphing counters stay
// zero. Plan is nil. A cancelled ctx ends the stream at its next frame
// and frees c, as draining it does.
func openRemote(ctx context.Context, c *client.Conn, spec wire.QuerySpec, b Bind, drv *remoteDriver) (*Rows, error) {
	w := &wireExec{drv: drv, conn: c}
	if err := c.ExecuteSpec(ctx, spec, b, &w.s, w); err != nil {
		return nil, err
	}
	// The stream checks ctx itself, once per frame, so that a
	// cancellation also cancels the server-side query and frees c.
	w.rows = &Rows{run: w, op: w, schema: w.s.Schema(), ctx: context.Background()}
	return w.rows, nil
}

// wireExec is one remote result stream, and both halves of the Rows
// over it. As the execution, its statistics are the server's closing
// summary; it never degrades (the server already did), never feeds the
// local result cache and has no plan to render. As the Rows' leaf
// operator, it copies the stream's decoded Batch frames into the
// caller's batch, up to the batch's fill capacity, resuming mid-frame
// at the next call.
type wireExec struct {
	s     client.Stream
	rows  *Rows
	drv   *remoteDriver // the pool conn returns to; nil for a Conn's own stream
	conn  *client.Conn
	frame []int64 // the current decoded frame, row-major; valid until the next s.Next
	pos   int     // the next value of frame to copy
	sum   wire.ExecSummary
}

func (w *wireExec) Schema() *tuple.Schema { return w.s.Schema() }
func (w *wireExec) Open() error           { return nil }

func (w *wireExec) NextBatch(b *tuple.Batch) (int, error) {
	b.Reset()
	if width := w.s.Schema().NumCols(); b.Width() != width {
		return 0, fmt.Errorf("%w: %d result columns for a %d-column batch", wire.ErrMalformed, width, b.Width())
	}
	if w.pos == len(w.frame) {
		frame, err := w.s.Next(&w.sum)
		if frame == nil {
			return 0, err
		}
		w.frame, w.pos = frame, 0
	}
	n := b.AppendInts(w.frame[w.pos:])
	w.pos += n * b.Width()
	return n, nil
}

func (w *wireExec) Close() error {
	w.s.Close()
	return nil
}

// Cut ends the Rows when the session closes under the stream: the rows
// already in its batch are not served either.
func (w *wireExec) Cut(err error) { w.rows.stop(err) }

func (w *wireExec) degrade(*Rows, error) bool { return false }
func (w *wireExec) store(*resAccum)           {}
func (w *wireExec) plan() *Plan               { return nil }

func (w *wireExec) finish() error {
	if w.drv != nil {
		w.drv.release(w.conn)
	}
	return nil
}

func (w *wireExec) stats(*Rows) ExecStats {
	sum := &w.sum
	return ExecStats{
		IO:           sum.IO,
		RowsReturned: sum.Rows,
		PlanCacheHit: sum.PlanCacheHit,
		Retries:      sum.Retries,
		FaultsSeen:   sum.FaultsSeen,
		Degraded:     sum.Degraded,
		ResultCache: ResultCacheExec{
			Hit:   sum.ResultCacheHit,
			Bytes: sum.ResultCacheBytes,
			Age:   time.Duration(sum.ResultCacheAgeNs),
		},
	}
}
