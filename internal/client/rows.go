package client

import (
	"context"
	"fmt"

	"smoothscan/internal/wire"
)

// Rows iterates a remote result stream. It mirrors the embedded
// smoothscan.Rows iterator (Next/Row/Col/Err/Close) over the wire's
// pull cursor: rows arrive in column-encoded batches, a fetch window
// at a time, so the server never runs unboundedly ahead of the
// consumer.
//
// A Rows is owned by a single goroutine, and its Conn can serve no
// other request until the stream is drained or closed. Close is safe
// at any point — mid-stream it cancels the server-side query (parallel
// scan workers exit promptly) — and safe after a server disconnect: a
// stream the server can no longer serve is simply over.
type Rows struct {
	c   *Conn
	ctx context.Context

	cols      []string
	fetchRows int

	flat  []int64 // current batch, row-major
	n     int     // rows in flat
	width int
	pos   int // next row to serve

	windowOpen bool // a window was requested (the open or a Fetch) and its End not yet seen
	done       bool // terminal frame seen (End without More, or Error)
	closed     bool

	summary    wire.ExecSummary
	hasSummary bool

	err error
}

// Columns returns the names of the result columns, in output order.
func (r *Rows) Columns() []string {
	return append([]string(nil), r.cols...)
}

// Next advances to the next row; it returns false at the end of the
// stream or on error (check Err).
func (r *Rows) Next() bool {
	if r.closed || r.err != nil {
		return false
	}
	if r.pos < r.n {
		r.pos++
		return true
	}
	r.pos, r.n = 0, 0 // past the buffered batch no row is current
	if r.done {
		return false
	}
	return r.refill()
}

// refill pulls frames until a batch arrives or the stream terminates.
func (r *Rows) refill() bool {
	c := r.c
	for {
		if err := r.ctx.Err(); err != nil {
			r.err = err
			r.done = true
			r.abort()
			r.detach()
			return false
		}
		if !r.windowOpen {
			if err := c.send(wire.MsgFetch, wire.Fetch{MaxRows: uint32(r.fetchRows)}.Marshal()); err != nil {
				r.fatal(err)
				return false
			}
			r.windowOpen = true
		}
		typ, payload, err := c.recv()
		if err != nil {
			r.fatal(err)
			return false
		}
		switch typ {
		case wire.MsgBatch:
			flat, n, width, derr := wire.DecodeBatchPayload(payload, r.flat)
			if derr != nil {
				r.fatal(c.broken(derr))
				return false
			}
			if width != len(r.cols) {
				r.fatal(c.broken(fmt.Errorf("%w: batch width %d for %d columns", wire.ErrMalformed, width, len(r.cols))))
				return false
			}
			if n == 0 {
				continue
			}
			r.flat, r.n, r.width, r.pos = flat, n, width, 1
			return true
		case wire.MsgEnd:
			m, derr := wire.DecodeEnd(payload)
			if derr != nil {
				r.fatal(c.broken(derr))
				return false
			}
			r.windowOpen = false
			if m.More {
				continue
			}
			r.summary, r.hasSummary = m.Summary, true
			r.done = true
			r.detach()
			return false
		case wire.MsgError:
			m, derr := wire.DecodeError(payload)
			if derr != nil {
				r.fatal(c.broken(derr))
				return false
			}
			r.windowOpen = false
			r.err = m.Err()
			r.done = true
			if m.Class == wire.ClassIdle {
				c.broken(r.err)
			}
			r.detach()
			return false
		default:
			r.fatal(c.broken(fmt.Errorf("unexpected frame %#02x in result stream", typ)))
			return false
		}
	}
}

// fatal records a connection-level stream failure.
func (r *Rows) fatal(err error) {
	if r.err == nil {
		r.err = err
	}
	r.done = true
	r.detach()
}

// detach releases the connection for its next request.
func (r *Rows) detach() {
	c := r.c
	c.mu.Lock()
	if c.cur == r {
		c.cur = nil
	}
	c.mu.Unlock()
}

// Row returns the current row's values as a view into the decoded
// batch: it is valid until the next Next or Close, like
// smoothscan.Rows.Row, and has length 0 when no row is current. CopyRow
// is how a caller retains a row.
func (r *Rows) Row() []int64 {
	if r.pos == 0 || r.pos > r.n {
		return nil
	}
	return r.flat[(r.pos-1)*r.width : r.pos*r.width : r.pos*r.width]
}

// CopyRow copies the current row's values into dst, returning the
// number of values copied; it is the retaining form of Row.
func (r *Rows) CopyRow(dst []int64) int {
	return copy(dst, r.Row())
}

// Col returns the current row's value for the named column, reporting
// false when the name is not a result column.
func (r *Rows) Col(name string) (int64, bool) {
	for i, c := range r.cols {
		if c == name {
			if r.pos == 0 || r.pos > r.n {
				return 0, false
			}
			return r.flat[(r.pos-1)*r.width+i], true
		}
	}
	return 0, false
}

// Err returns the first error encountered. Remote execution errors
// carry their engine class: errors.Is sees through to the same typed
// sentinels as an in-process run.
func (r *Rows) Err() error { return r.err }

// Summary returns the execution's closing statistics, available once
// the stream has been fully drained (Next returned false without
// error).
func (r *Rows) Summary() (wire.ExecSummary, bool) {
	return r.summary, r.hasSummary
}

// Close ends the stream. Mid-stream it sends a Cancel — the server
// cancels the query's context, so parallel workers exit promptly —
// and resynchronises the connection, leaving the Conn usable for the
// next request. Close is idempotent and never fails on a lost
// connection: a stream the server cannot serve anymore is already as
// closed as it gets.
func (r *Rows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	r.pos, r.n = 0, 0
	if !r.done {
		r.done = true
		r.abort()
	}
	r.detach()
	return nil
}

// abort cancels the in-flight stream server-side: send Cancel, drain
// the open fetch window (frames already in flight), and consume the
// cancel acknowledgement. Any connection failure along the way just
// marks the connection broken — the stream is over either way.
func (r *Rows) abort() {
	c := r.c
	c.mu.Lock()
	dead := c.closed || c.err != nil
	c.mu.Unlock()
	if dead {
		return
	}
	if err := c.send(wire.MsgCancel, nil); err != nil {
		return
	}
	for r.windowOpen {
		typ, _, err := c.recv()
		if err != nil {
			return
		}
		switch typ {
		case wire.MsgEnd, wire.MsgError:
			r.windowOpen = false
		}
	}
	typ, _, err := c.recv()
	if err != nil {
		return
	}
	if typ != wire.MsgOK {
		c.broken(fmt.Errorf("unexpected frame %#02x for cancel acknowledgement", typ))
	}
}
