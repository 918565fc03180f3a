// Package ssclient is the remote client for the smoothscan wire
// protocol: the same prepare → bind → execute query surface the
// embedded engine exposes, spoken to a cmd/ssserver over TCP. A
// prepared statement is a client-side value — its spec plus the
// connection. Every Run, ad hoc or prepared, is one Execute request
// that ships the spec and, for a statement, its bind, so the server
// keeps no per-session statement state. Every Run is one round
// trip to its first rows: the request carries the fetch window, and the
// server answers with the opened stream and that window together, so a
// result that fits in one window never needs a second exchange.
//
//	c, _ := ssclient.Dial(addr)
//	defer c.Close()
//	stmt, _ := c.PrepareQuery(c.Table("t").
//		Where("val", smoothscan.Between(smoothscan.Param("lo"), smoothscan.Param("hi"))))
//	rows, _ := stmt.Run(ctx, smoothscan.Bind{"lo": 10, "hi": 20})
//	for rows.Next() { use(rows.Row()) }
//	rows.Close()
//
// Every run's result is a *smoothscan.Rows, the embedded engine's own
// cursor: Row is a view valid until the next Next or Close, CopyRow
// retains a row, Col and Column read one, and ExecStats carries the
// server's closing summary once the stream is drained.
//
// A Conn is a smoothscan.Engine, and the query builder is the engine's
// own: Conn.Table composes a real smoothscan.Query (via
// smoothscan.NewQuery), so predicates, aggregates and Param
// placeholders are the root package's types — smoothscan.Between works
// identically at a local and a remote call site. The transport itself
// lives in internal/client; the root package turns its streams into
// Rows for this package and for the engine's remote shard driver alike.
//
// Error classes survive the wire: a remote error unwraps to the same
// typed sentinels the embedded engine returns, so errors.Is and
// smoothscan.IsTransientFault / IsFaultError give identical answers
// for remote and in-process executions. Admission-control rejects
// satisfy errors.Is(err, ssclient.ErrOverloaded).
//
// A Conn owns one connection and runs one request/response exchange
// at a time; it is not safe for concurrent use — give each goroutine
// its own Conn (connections are cheap; the server pools admission
// across all of them). Rows.Close and Stmt.Close are always safe to
// call, including after the server has disconnected or the client is
// closed: Stmt.Close never talks to the server, and a remote Rows.Close
// treats an unreachable server as already-closed rather than an error
// to propagate.
package ssclient

import (
	"context"
	"errors"

	"smoothscan"
	"smoothscan/internal/client"
	"smoothscan/internal/wire"
)

// Re-exported wire sentinels, matchable with errors.Is against any
// error a remote execution returns.
var (
	// ErrOverloaded: the server shed this connection or query under
	// admission control. Back off and retry.
	ErrOverloaded = wire.ErrOverloaded
	// ErrSessionClosed: the server closed the session (idle timeout or
	// shutdown).
	ErrSessionClosed = wire.ErrSessionClosed
	// ErrConnLost marks a dead connection: the client can no longer
	// exchange frames and must be re-dialed.
	ErrConnLost = client.ErrConnLost
	// ErrBusy: a new request was issued while a result stream is open
	// on this connection. Drain or Close its Rows first.
	ErrBusy = client.ErrBusy
)

// RemoteError is the typed error a server Error frame materialises
// into; its Unwrap preserves the engine's error class.
type RemoteError = wire.RemoteError

// ServerStats is the server's counter snapshot (Conn.ServerStats).
type ServerStats = wire.ServerStats

// FaultRule is one remote fault-injection rule (Conn.SetFaultPolicy);
// it applies to every space of the server's device.
type FaultRule struct {
	Kind      smoothscan.FaultKind
	Rate      float64
	ExtraCost float64
}

// DefaultFetchRows is the fetch window (the first one included) a
// result stream uses unless Conn.SetFetchRows overrides it.
const DefaultFetchRows = client.DefaultFetchRows

// Conn is one protocol session. Not safe for concurrent use. The
// embedded transport contributes Broken, Close, SetFetchRows,
// ServerStats, ColdCache and ClearFaultPolicy.
type Conn struct {
	*client.Conn
}

// Dial connects and performs the protocol handshake. A server at its
// connection limit answers with an overloaded Error frame, so the
// returned error satisfies errors.Is(err, ErrOverloaded) rather than
// hanging or surfacing a bare I/O failure.
func Dial(addr string) (*Conn, error) {
	c, err := client.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &Conn{Conn: c}, nil
}

// SetFaultPolicy attaches a deterministic fault-injection policy to
// the server's device (rules apply to every space), or detaches any
// policy when rules is empty. The server must run with fault
// administration enabled; otherwise a bad-request error returns.
func (c *Conn) SetFaultPolicy(seed int64, rules ...FaultRule) error {
	specs := make([]wire.FaultRuleSpec, len(rules))
	for i, r := range rules {
		specs[i] = wire.FaultRuleSpec{
			Kind:      byte(r.Kind),
			Rate:      r.Rate,
			ExtraCost: int64(r.ExtraCost),
		}
	}
	return c.Conn.SetFaultPolicy(seed, specs...)
}

// Stmt is a remote prepared statement; it implements
// smoothscan.PreparedQuery. It is the spec Conn.PrepareQuery compiled
// plus its parameter names: each Run sends the spec with the bind, and
// the server compiles it through its plan cache, binds and runs it,
// with a local Stmt.Run's rows and bind errors.
type Stmt struct {
	c      *Conn
	spec   wire.QuerySpec
	params []string
	closed bool
}

// Params returns the statement's parameter names in first-use order.
func (s *Stmt) Params() []string {
	return append([]string(nil), s.params...)
}

// Run binds the parameters and executes the statement, opening a
// result stream, a *smoothscan.Rows. One stream may be open per Conn at
// a time.
func (s *Stmt) Run(ctx context.Context, b smoothscan.Bind) (smoothscan.Cursor, error) {
	if s.closed {
		return nil, errors.New("ssclient: Run on a closed Stmt")
	}
	return smoothscan.RunRemote(ctx, s.c.Conn, s.spec, b)
}

// Close marks the statement closed; later Runs fail. There is nothing
// on the server to release, so Close is idempotent and never fails.
func (s *Stmt) Close() error {
	s.closed = true
	return nil
}
