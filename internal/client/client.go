// Package client is the SSWP client transport: one connection speaking
// the prepare → bind → execute lifecycle against an internal/server
// session. Every stream opens with one Execute request — an ad-hoc
// query is an Execute without binds — and the server answers ExecOK
// followed by the whole result, so a stream is one round trip however
// long it is, and TCP's window is its only flow control. It depends
// only on the wire codec and the tuple schema, so the root package can
// run every remote stream — a Conn's runs and the remote shard driver's
// slices alike — through one implementation without an import cycle
// through smoothscan. The transport stops at decoded Batch frames
// (Stream.Next); the root package's Rows is the cursor over them.
// Statements hold no server state: PrepareSpec only validates a spec,
// and ExecuteSpec ships it again with each bind.
//
// A Conn owns one connection and runs one request/response exchange at
// a time; it is not safe for concurrent use — give each goroutine its
// own Conn. Stream.Close is always safe to call, including after the
// server has disconnected: it releases local state first and treats an
// unreachable server as already-closed rather than an error to
// propagate.
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"smoothscan/internal/tuple"
	"smoothscan/internal/wire"
)

// Typed sentinels, matchable with errors.Is against any error a remote
// exchange returns. The messages carry the public package's name — the
// root package re-exports these exact values as smoothscan.ErrConnLost
// and smoothscan.ErrBusy.
var (
	// ErrConnLost marks a dead connection: the client can no longer
	// exchange frames and must be re-dialed.
	ErrConnLost = errors.New("smoothscan: connection lost")
	// ErrBusy: a new request was issued while a result stream is open
	// on this connection. Drain or Close it first.
	ErrBusy = errors.New("smoothscan: a result stream is open")
)

// handshakeTimeout bounds Dial's Hello/HelloOK exchange.
const handshakeTimeout = 10 * time.Second

// maxKeptPayload is the largest buffer, in bytes, a Conn keeps for the
// next frame: the request and response payload buffers and the Batch
// decode buffer alike. A frame may be as large as wire.MaxFrame and
// decode to as many as 4M values; a buffer grown past this by one such
// frame is dropped after use, so a peer cannot pin memory on the client
// by sending a single huge frame.
const maxKeptPayload = 1 << 20

// Conn is one protocol session. Not safe for concurrent use.
//
// A Conn runs one stream at a time, so the per-stream buffers live
// here and outlast the stream: the Batch decode buffer, and the result
// schema, reused by the next stream whose ExecOK names the same
// columns.
type Conn struct {
	conn    net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer // a request frame leaves as one Write
	payload []byte        // recv's reused frame buffer, at most maxKeptPayload
	req     []byte        // send's reused request buffer, at most maxKeptPayload
	flat    []int64       // Stream.Next's reused decode buffer, at most maxKeptPayload
	schema  *tuple.Schema // the last stream's result schema
	mu      sync.Mutex
	err     error // sticky: once the connection failed, everything does
	closed  bool
	cur     *Stream
}

// Dial connects and performs the protocol handshake. A server at its
// connection limit answers with an overloaded Error frame, so the
// returned error satisfies errors.Is(err, wire.ErrOverloaded) rather
// than hanging or surfacing a bare I/O failure.
func Dial(addr string) (*Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, handshakeTimeout)
	if err != nil {
		return nil, err
	}
	c := &Conn{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	if err := c.writeFrame(wire.MsgHello, wire.Hello{Magic: wire.Magic, Version: wire.Version}.Marshal()); err != nil {
		conn.Close()
		return nil, fmt.Errorf("%w: %v", ErrConnLost, err)
	}
	typ, payload, err := wire.ReadFrame(c.br)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("%w: %v", ErrConnLost, err)
	}
	conn.SetDeadline(time.Time{})
	switch typ {
	case wire.MsgHelloOK:
		if _, err := wire.DecodeHelloOK(payload); err != nil {
			conn.Close()
			return nil, err
		}
		return c, nil
	case wire.MsgError:
		conn.Close()
		m, derr := wire.DecodeError(payload)
		if derr != nil {
			return nil, derr
		}
		return nil, m.Err()
	default:
		conn.Close()
		return nil, fmt.Errorf("%w: unexpected handshake frame %#02x", wire.ErrMalformed, typ)
	}
}

// Broken reports whether the connection has failed; a broken
// connection cannot recover and should be re-dialed.
func (c *Conn) Broken() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err != nil
}

// Close closes the connection. Idempotent, and safe whatever state the
// connection is in. A stream still open ends with ErrConnLost, so its
// consumer cannot mistake the cut for a complete result.
func (c *Conn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if s := c.cur; s != nil {
		s.err, s.done = ErrConnLost, true
		s.owner.Cut(ErrConnLost)
		c.cur = nil
	}
	return c.conn.Close()
}

// broken records a connection-fatal error and returns it. Caller holds
// c.mu or has exclusive use.
func (c *Conn) broken(err error) error {
	if c.err == nil {
		c.err = fmt.Errorf("%w: %v", ErrConnLost, err)
		c.conn.Close()
	}
	return c.err
}

// usable rejects requests on a dead, closed or busy connection.
func (c *Conn) usable() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrConnLost
	}
	if c.err != nil {
		return c.err
	}
	if c.cur != nil && !c.cur.closed {
		return ErrBusy
	}
	return nil
}

// writeFrame assembles one frame in the write buffer and flushes it.
func (c *Conn) writeFrame(typ byte, payload []byte) error {
	if err := wire.WriteFrame(c.bw, typ, payload); err != nil {
		return err
	}
	return c.bw.Flush()
}

// send writes one request frame. Requests with a payload append it to
// c.req[:0], and the buffer is kept for the next request unless this
// one grew it past maxKeptPayload.
func (c *Conn) send(typ byte, payload []byte) error {
	if payload != nil {
		c.req = payload[:0]
		if cap(payload) > maxKeptPayload {
			c.req = nil
		}
	}
	if err := c.writeFrame(typ, payload); err != nil {
		return c.broken(err)
	}
	return nil
}

// recv reads one response frame. The payload is a view into the Conn's
// reused frame buffer, valid until the next recv: every decoder copies
// out what it keeps (strings via Decoder.Str, batches into c.flat).
func (c *Conn) recv() (byte, []byte, error) {
	typ, payload, err := wire.ReadFrameBuf(c.br, c.payload)
	if err != nil {
		return 0, nil, c.broken(err)
	}
	if payload != nil {
		c.payload = payload
		if cap(payload) > maxKeptPayload {
			c.payload = nil
		}
	}
	return typ, payload, nil
}

// roundTrip sends one request and reads its single response frame,
// translating an Error frame into a typed error.
func (c *Conn) roundTrip(reqTyp byte, payload []byte, wantTyp byte) ([]byte, error) {
	if err := c.send(reqTyp, payload); err != nil {
		return nil, err
	}
	typ, resp, err := c.recv()
	if err != nil {
		return nil, err
	}
	switch typ {
	case wantTyp:
		return resp, nil
	case wire.MsgError:
		m, derr := wire.DecodeError(resp)
		if derr != nil {
			return nil, c.broken(derr)
		}
		if m.Class == wire.ClassIdle {
			// A server-initiated close ends the session; no further
			// exchange can succeed on this connection.
			c.broken(m.Err())
		}
		return nil, m.Err()
	default:
		return nil, c.broken(fmt.Errorf("unexpected frame %#02x (wanted %#02x)", typ, wantTyp))
	}
}

// PrepareSpec compiles the query spec on the server, which keeps
// nothing, and returns its parameter names in first-use order.
// Structural errors (unknown tables or columns, bad argument types)
// surface here, as with DB.Prepare.
func (c *Conn) PrepareSpec(spec wire.QuerySpec) ([]string, error) {
	if err := c.usable(); err != nil {
		return nil, err
	}
	resp, err := c.roundTrip(wire.MsgPrepare, wire.Prepare{Spec: spec}.AppendTo(c.req[:0]), wire.MsgPrepareOK)
	if err != nil {
		return nil, err
	}
	m, err := wire.DecodePrepareOK(resp)
	if err != nil {
		return nil, c.broken(err)
	}
	return m.Params, nil
}

// ExecuteSpec compiles the spec server-side, binds b and opens its
// result stream into s, whose rows go to owner. It is every remote run:
// an ad-hoc query passes a nil b (its literals are inline), a prepared
// statement's Run its bind. One stream may be open per Conn at a time.
// The server streams the whole result behind ExecOK, so its first rows
// are already on their way when ExecuteSpec returns.
func (c *Conn) ExecuteSpec(ctx context.Context, spec wire.QuerySpec, b map[string]int64, s *Stream, owner Owner) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := c.usable(); err != nil {
		return err
	}
	m := wire.Execute{Spec: spec, Binds: make([]wire.BindKV, 0, len(b))}
	for name, val := range b {
		m.Binds = append(m.Binds, wire.BindKV{Name: name, Val: val})
	}
	resp, err := c.roundTrip(wire.MsgExecute, m.AppendTo(c.req[:0]), wire.MsgExecOK)
	if err != nil {
		return err
	}
	ok, err := wire.DecodeExecOK(resp)
	if err != nil {
		return c.broken(err)
	}
	schema, err := c.schemaFor(ok.Cols)
	if err != nil {
		return c.broken(err)
	}
	*s = Stream{c: c, ctx: ctx, schema: schema, owner: owner}
	c.mu.Lock()
	c.cur = s
	c.mu.Unlock()
	return nil
}

// schemaFor returns the schema of a result whose ExecOK named cols: the
// previous stream's when the names match, so a Conn that runs one query
// shape after another builds its schema once.
func (c *Conn) schemaFor(cols []string) (*tuple.Schema, error) {
	if s := c.schema; s != nil && s.NumCols() == len(cols) {
		i := 0
		for i < len(cols) && s.Col(i).Name == cols[i] {
			i++
		}
		if i == len(cols) {
			return s, nil
		}
	}
	tc := make([]tuple.Column, len(cols))
	for i, name := range cols {
		tc[i] = tuple.Column{Name: name, Type: tuple.Int64}
	}
	s, err := tuple.NewSchema(tc...)
	if err != nil {
		return nil, fmt.Errorf("%w: result columns: %v", wire.ErrMalformed, err)
	}
	c.schema = s
	return s, nil
}

// ServerStats fetches the server's counter snapshot.
func (c *Conn) ServerStats() (wire.ServerStats, error) {
	if err := c.usable(); err != nil {
		return wire.ServerStats{}, err
	}
	resp, err := c.roundTrip(wire.MsgStats, nil, wire.MsgStatsReply)
	if err != nil {
		return wire.ServerStats{}, err
	}
	st, err := wire.DecodeServerStats(resp)
	if err != nil {
		return wire.ServerStats{}, c.broken(err)
	}
	return st, nil
}

// Catalog fetches the server's table catalog: names, column order,
// indexed columns and row counts.
func (c *Conn) Catalog() ([]wire.TableSpec, error) {
	if err := c.usable(); err != nil {
		return nil, err
	}
	resp, err := c.roundTrip(wire.MsgCatalog, nil, wire.MsgCatalogReply)
	if err != nil {
		return nil, err
	}
	m, err := wire.DecodeCatalogReply(resp)
	if err != nil {
		return nil, c.broken(err)
	}
	return m.Tables, nil
}

// SetFaultPolicy attaches a deterministic fault-injection policy to
// the server's device (rules apply to every space), or detaches any
// policy when rules is empty. The server must run with fault
// administration enabled; otherwise a bad-request error returns.
func (c *Conn) SetFaultPolicy(seed int64, rules ...wire.FaultRuleSpec) error {
	if err := c.usable(); err != nil {
		return err
	}
	m := wire.FaultCtl{Seed: seed, Rules: rules}
	_, err := c.roundTrip(wire.MsgFaultCtl, m.AppendTo(c.req[:0]), wire.MsgOK)
	return err
}

// ClearFaultPolicy detaches any fault-injection policy.
func (c *Conn) ClearFaultPolicy() error { return c.SetFaultPolicy(0) }

// ColdCache evicts the server's buffer pool so a following measurement
// window starts from the same cold state an in-process run would — the
// remote analog of DB.ColdCache. It shares the fault administration
// gate; a server without it enabled answers with a bad-request error.
func (c *Conn) ColdCache() error {
	if err := c.usable(); err != nil {
		return err
	}
	_, err := c.roundTrip(wire.MsgColdCache, nil, wire.MsgOK)
	return err
}
