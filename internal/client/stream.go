package client

import (
	"context"
	"fmt"

	"smoothscan/internal/tuple"
	"smoothscan/internal/wire"
)

// Stream is the transport half of one open result stream: its
// cancellation and its claim on the Conn. It hands the rows over a
// decoded Batch frame at a time (Next); iterating them is the caller's
// business. The caller owns the Stream's memory — ExecuteSpec opens a
// stream into it — so opening one allocates nothing for the Stream
// itself.
//
// A Stream is owned by a single goroutine, and its Conn can serve no
// other request until the stream is drained or closed. Close is safe at
// any point — mid-stream it cancels the server-side query (parallel
// scan workers exit promptly) — and safe after a server disconnect: a
// stream the server can no longer serve is simply over.
//
// The server pushes the whole result without waiting for the client:
// how far it runs ahead of a reader is bounded by the connection's
// socket buffers, and a reader that stops reading stops it.
type Stream struct {
	c      *Conn
	ctx    context.Context
	schema *tuple.Schema
	owner  Owner

	done   bool // terminal frame seen (End or Error)
	closed bool

	err error
}

// Owner is the consumer a Stream hands its rows to. Conn.Close calls
// Cut when it ends the stream under it: rows the owner has taken off
// the stream but not yet served must not be served after the cut
// either.
type Owner interface{ Cut(err error) }

// Schema returns the stream's result schema: its columns, in output
// order, all Int64.
func (s *Stream) Schema() *tuple.Schema { return s.schema }

// Next reads the stream to its next non-empty Batch frame and returns
// the frame's rows, row-major, decoded into the Conn's buffer: they are
// valid until the next Next or Close. At the end of the stream it
// returns nil — with a nil error when the stream completed, after
// storing the server's closing summary in *end, and with the stream's
// error otherwise. The stream's context is checked once per frame read;
// once it is done, Next cancels the stream and returns its error.
func (s *Stream) Next(end *wire.ExecSummary) ([]int64, error) {
	if s.done || s.closed {
		return nil, s.err
	}
	c := s.c
	for {
		if err := s.ctx.Err(); err != nil {
			s.err = err
			s.done = true
			s.abort()
			s.detach()
			return nil, err
		}
		typ, payload, err := c.recv()
		if err != nil {
			return nil, s.fatal(err)
		}
		switch typ {
		case wire.MsgBatch:
			flat, n, width, derr := wire.DecodeBatchPayload(payload, c.flat)
			if derr != nil {
				return nil, s.fatal(c.broken(derr))
			}
			c.flat = flat
			if cap(flat) > maxKeptPayload/8 {
				c.flat = nil
			}
			if width != s.schema.NumCols() {
				return nil, s.fatal(c.broken(fmt.Errorf("%w: batch width %d for %d columns", wire.ErrMalformed, width, s.schema.NumCols())))
			}
			if n == 0 {
				continue
			}
			return flat, nil
		case wire.MsgEnd:
			m, derr := wire.DecodeEnd(payload)
			if derr != nil {
				return nil, s.fatal(c.broken(derr))
			}
			*end = m.Summary
			s.done = true
			s.detach()
			return nil, nil
		case wire.MsgError:
			m, derr := wire.DecodeError(payload)
			if derr != nil {
				return nil, s.fatal(c.broken(derr))
			}
			s.err = m.Err()
			s.done = true
			if m.Class == wire.ClassIdle {
				c.broken(s.err)
			}
			s.detach()
			return nil, s.err
		default:
			return nil, s.fatal(c.broken(fmt.Errorf("unexpected frame %#02x in result stream", typ)))
		}
	}
}

// fatal records a connection-level stream failure and returns the
// stream's error.
func (s *Stream) fatal(err error) error {
	if s.err == nil {
		s.err = err
	}
	s.done = true
	s.detach()
	return s.err
}

// detach releases the connection for its next request.
func (s *Stream) detach() {
	c := s.c
	c.mu.Lock()
	if c.cur == s {
		c.cur = nil
	}
	c.mu.Unlock()
}

// Close ends the stream. Mid-stream it sends a Cancel — the server
// cancels the query's context, so parallel workers exit promptly — and
// resynchronises the connection, leaving the Conn usable for the next
// request. Close is idempotent and cannot fail: a stream the server
// cannot serve anymore is already as closed as it gets.
func (s *Stream) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if !s.done {
		s.done = true
		s.abort()
	}
	s.detach()
}

// abort cancels the in-flight stream server-side: send Cancel, then
// read up to the cancel acknowledgement, skipping the rest of the
// stream — whatever the server wrote before the Cancel reached it, and
// the End or Error it ended with. Any connection failure along the way
// just marks the connection broken — the stream is over either way.
func (s *Stream) abort() {
	c := s.c
	c.mu.Lock()
	dead := c.closed || c.err != nil
	c.mu.Unlock()
	if dead {
		return
	}
	if err := c.send(wire.MsgCancel, nil); err != nil {
		return
	}
	for {
		typ, _, err := c.recv()
		if err != nil {
			return
		}
		switch typ {
		case wire.MsgBatch, wire.MsgEnd, wire.MsgError:
		case wire.MsgOK:
			return
		default:
			c.broken(fmt.Errorf("unexpected frame %#02x for cancel acknowledgement", typ))
			return
		}
	}
}
