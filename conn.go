package smoothscan

import (
	"context"
	"errors"
	"fmt"

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

// errNoRemoteExplain is what Query.Explain and Stmt.Explain return on
// a Conn: the protocol ships results, not plans.
var errNoRemoteExplain = errors.New("smoothscan: Explain is not available over the wire protocol")

// Conn is one session with a cmd/ssserver, the third Engine beside DB
// and ShardedDB: its Table builds the same *Query, its PrepareQuery
// returns the same *Stmt, and every run's result is the same *Rows.
// Every Run, ad hoc or prepared, is one Execute request that ships the
// query's spec and, for a statement, its bind, so the server keeps no
// per-session statement state. The server answers with the whole
// result, so every Run is one round trip however many rows it returns;
// the connection's TCP window is the stream's flow control, so a
// server runs at most a socket buffer's worth of rows ahead of a
// reader, and a Rows.Close mid-stream reads through what is in flight.
//
//	c, _ := smoothscan.Dial(addr)
//	defer c.Close()
//	stmt, _ := c.PrepareQuery(c.Table("t").
//		Where("val", smoothscan.Between(smoothscan.Param("lo"), smoothscan.Param("hi"))))
//	rows, _ := stmt.Run(ctx, smoothscan.Bind{"lo": 10, "hi": 20})
//	for rows.Next() { use(rows.Row()) }
//	rows.Close()
//
// Semantic validation (unknown tables and columns, ambiguous
// conjuncts, bind errors) happens server-side, where the schema lives.
// Its errors unwrap to the sentinels an in-process run's do —
// ErrNoTable, ErrUnknownColumn, ErrUnboundParam and the rest. A remote
// Rows' ExecStats is the server's closing summary, zero until the
// stream is drained; its Plan is nil.
//
// A Conn runs one request/response exchange at a time; it is not safe
// for concurrent use — give each goroutine its own Conn. Rows.Close and
// Stmt.Close are always safe to call, also after the server has
// disconnected. The embedded transport contributes Broken, Close,
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
// the server's device, or detaches any policy when rules is empty. The
// wire carries a rule's Kind, Rate and ExtraCost only, so a rule scoped
// to a space or a page range is refused before anything is sent. The
// server must run with fault administration enabled; otherwise a
// bad-request error returns.
func (c *Conn) SetFaultPolicy(seed int64, rules ...FaultRule) error {
	specs := make([]wire.FaultRuleSpec, len(rules))
	for i, r := range rules {
		if r.Space != AnySpace || r.PageLo != 0 || r.PageHi != 0 {
			return fmt.Errorf("smoothscan: remote fault rule %d is scoped to a space or page range; the wire carries neither", i)
		}
		specs[i] = wire.FaultRuleSpec{Kind: byte(r.Kind), Rate: r.Rate, ExtraCost: int64(r.ExtraCost)}
	}
	return c.Conn.SetFaultPolicy(seed, specs...)
}

// Table implements Engine: it starts a composable query over the named
// server-side table.
func (c *Conn) Table(name string) *Query {
	return &Query{eng: c, spec: wire.QuerySpec{Table: name}}
}

// PrepareQuery implements Engine: the server validates the query made
// by this Conn's Table, and the returned Stmt ships its spec with every
// Run. Structural errors surface here, as with DB.Prepare.
func (c *Conn) PrepareQuery(q *Query) (*Stmt, error) { return prepareOn(c, q) }

func (c *Conn) prepare(q *Query) (*Stmt, error) {
	snap := q.clone()
	spec, err := snap.Spec()
	if err != nil {
		return nil, err
	}
	params, err := c.Conn.PrepareSpec(spec)
	if err != nil {
		return nil, err
	}
	return &Stmt{eng: c, q: snap, params: params}, nil
}

// run ships the statement's spec with b; the server checks the bind,
// with a local Stmt.Run's error text.
func (c *Conn) run(ctx context.Context, st statement, b Bind) (*Rows, error) {
	spec, err := st.q.Spec()
	if err != nil {
		return nil, err
	}
	return openRemote(ctx, c.Conn, spec, b, nil)
}

func (c *Conn) explain(statement, Bind) (*Plan, error) { return nil, errNoRemoteExplain }
