// Package client is the SSWP client transport: one connection speaking
// the prepare → bind → execute → fetch lifecycle against an
// internal/server session. Every stream opens with one Execute request
// — an ad-hoc query is an Execute without binds — and opening it is one
// round trip: the request carries the first fetch window's budget, and
// the server answers ExecOK followed by that window, so a short result
// needs no Fetch at all. It depends only on the wire codec, so both
// the public ssclient package (which re-exports it behind the engine's
// builder surface) and the root package's remote shard driver can share
// one implementation without an import cycle through smoothscan.
// Statements hold no server state: PrepareSpec only validates a spec,
// and ExecuteSpec ships it again with each bind.
//
// A Conn owns one connection and runs one request/response exchange at
// a time; it is not safe for concurrent use — give each goroutine its
// own Conn. Rows.Close is always safe to call, including after the
// server has disconnected: it releases local state first and treats an
// unreachable server as already-closed rather than an error to
// propagate.
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"smoothscan/internal/wire"
)

// Typed sentinels, matchable with errors.Is against any error a remote
// exchange returns. The messages carry the public package's name —
// ssclient re-exports these exact values as its own API.
var (
	// ErrConnLost marks a dead connection: the client can no longer
	// exchange frames and must be re-dialed.
	ErrConnLost = errors.New("ssclient: connection lost")
	// ErrBusy: a new request was issued while a Rows stream is open on
	// this connection. Drain or Close it first.
	ErrBusy = errors.New("ssclient: a result stream is open")
)

// DefaultFetchRows is the fetch window (the first one included) Rows
// uses unless Conn.SetFetchRows overrides it.
const DefaultFetchRows = 4096

// handshakeTimeout bounds Dial's Hello/HelloOK exchange.
const handshakeTimeout = 10 * time.Second

// maxKeptPayload is the largest response payload buffer a Conn keeps
// for the next frame. A frame may be as large as wire.MaxFrame; a
// buffer grown past this by one such frame is dropped after use, so a
// peer cannot pin memory on the client by sending a single huge frame.
const maxKeptPayload = 1 << 20

// Conn is one protocol session. Not safe for concurrent use.
type Conn struct {
	conn      net.Conn
	br        *bufio.Reader
	bw        *bufio.Writer // a request frame leaves as one Write
	payload   []byte        // recv's reused frame buffer, at most maxKeptPayload
	mu        sync.Mutex
	err       error // sticky: once the connection failed, everything does
	closed    bool
	cur       *Rows
	fetchRows int
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
	c := &Conn{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn), fetchRows: DefaultFetchRows}
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

// SetFetchRows overrides the fetch window of subsequent Rows, the first
// window included (n <= 0 restores the default; a window is at most
// math.MaxUint32 rows). Smaller windows trade throughput for finer
// cancellation granularity.
func (c *Conn) SetFetchRows(n int) {
	if n <= 0 {
		n = DefaultFetchRows
	}
	c.fetchRows = min(n, math.MaxUint32)
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
	if c.cur != nil {
		c.cur.err, c.cur.done = ErrConnLost, true
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

// send writes one request frame.
func (c *Conn) send(typ byte, payload []byte) error {
	if err := c.writeFrame(typ, payload); err != nil {
		return c.broken(err)
	}
	return nil
}

// recv reads one response frame. The payload is a view into the Conn's
// reused frame buffer, valid until the next recv: every decoder copies
// out what it keeps (strings via Decoder.Str, batches into Rows.flat).
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
	resp, err := c.roundTrip(wire.MsgPrepare, wire.Prepare{Spec: spec}.Marshal(), wire.MsgPrepareOK)
	if err != nil {
		return nil, err
	}
	m, err := wire.DecodePrepareOK(resp)
	if err != nil {
		return nil, c.broken(err)
	}
	return m.Params, nil
}

// ExecuteSpec compiles the spec server-side, binds b and opens a result
// stream. It is every remote run: an ad-hoc query passes a nil b (its
// literals are inline), a prepared statement's Run its bind. One
// stream may be open per Conn at a time.
//
// The request carries the first window's budget, so that window is
// already on its way when ExecOK arrives: the Rows starts with it open
// and reads it without sending a Fetch.
func (c *Conn) ExecuteSpec(ctx context.Context, spec wire.QuerySpec, b map[string]int64) (*Rows, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := c.usable(); err != nil {
		return nil, err
	}
	m := wire.Execute{Spec: spec, Binds: make([]wire.BindKV, 0, len(b)), FetchRows: uint32(c.fetchRows)}
	for name, val := range b {
		m.Binds = append(m.Binds, wire.BindKV{Name: name, Val: val})
	}
	resp, err := c.roundTrip(wire.MsgExecute, m.Marshal(), wire.MsgExecOK)
	if err != nil {
		return nil, err
	}
	ok, err := wire.DecodeExecOK(resp)
	if err != nil {
		return nil, c.broken(err)
	}
	r := &Rows{c: c, ctx: ctx, cols: ok.Cols, fetchRows: c.fetchRows, windowOpen: true}
	c.mu.Lock()
	c.cur = r
	c.mu.Unlock()
	return r, nil
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
	_, err := c.roundTrip(wire.MsgFaultCtl, m.Marshal(), wire.MsgOK)
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
