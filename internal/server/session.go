package server

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"smoothscan"
	"smoothscan/internal/wire"
)

// batchRows caps one Batch frame; a Fetch window larger than this is
// served as several frames so no single frame outgrows the decoder's
// comfort zone.
const batchRows = 1024

// writeBufSize sizes the session's write buffer so that a full
// batchRows-row Batch frame of a typical result (ten columns of
// clustered or small values, two to six bytes a value) leaves as one
// Write; a larger frame passes through bufio straight to the
// connection.
const writeBufSize = 64 << 10

// endMore is the payload of every End{More:true}: a window filled and
// the cursor stays open.
var endMore = wire.End{More: true}.Marshal()

// frame is one decoded wire frame in flight from the reader goroutine
// to the session loop.
type frame struct {
	typ     byte
	payload []byte
}

// cursor is the session's one open result stream.
type cursor struct {
	rows    *smoothscan.Rows
	cancel  context.CancelFunc
	release func()
	width   int
	// grants counts the window grants in flight from the client:
	// End{More} frames sent minus Fetches received.
	grants int
}

// session serves one connection. Two goroutines cooperate: the reader
// decodes frames off the wire — handling Cancel immediately, so an
// in-flight query's context is cancelled even while the session loop
// is busy streaming its result — and the session loop owns all other
// state and every write.
type session struct {
	srv  *Server
	conn net.Conn
	br   *bufio.Reader // the reader goroutine's
	bw   *bufio.Writer

	inbox chan frame
	ctx   context.Context // server lifetime; sessions die with it

	// curMu guards curCancel, the only state the reader goroutine
	// touches besides the inbox.
	curMu     sync.Mutex
	curCancel context.CancelFunc

	cur *cursor
	// stale counts the grants of the last closed cursor still in
	// flight: the client sent, or will send, one Fetch per End{More} it
	// reads, and those reaching the session after the stream ended are
	// dropped without a reply.
	stale int

	// serveWindow's staging, reused across batches and cursors: the
	// session has one cursor at a time and one goroutine fetching.
	flat []int64      // row-major batch, batchRows*width of the widest cursor so far
	enc  wire.Encoder // the Batch payload under construction
}

func newSession(s *Server, conn net.Conn) *session {
	return &session{
		srv:   s,
		conn:  conn,
		br:    bufio.NewReader(conn),
		bw:    bufio.NewWriterSize(conn, writeBufSize),
		inbox: make(chan frame, 4),
		ctx:   s.ctx,
	}
}

// readLoop decodes frames until the connection dies, forwarding them
// to the session loop. Cancel frames additionally fire the in-flight
// query's context right here, before the forward, so parallel scan
// workers start exiting while the session loop is still mid-stream.
func (ss *session) readLoop() {
	defer close(ss.inbox)
	for {
		typ, payload, err := wire.ReadFrame(ss.br)
		if err != nil {
			return
		}
		if typ == wire.MsgCancel {
			ss.curMu.Lock()
			if ss.curCancel != nil {
				ss.curCancel()
			}
			ss.curMu.Unlock()
		}
		select {
		case ss.inbox <- frame{typ: typ, payload: payload}:
		case <-ss.ctx.Done():
			return
		}
	}
}

// setCancel publishes (or clears) the in-flight query's cancel func
// for the reader goroutine.
func (ss *session) setCancel(fn context.CancelFunc) {
	ss.curMu.Lock()
	ss.curCancel = fn
	ss.curMu.Unlock()
}

// write buffers one frame without flushing it; a false return means
// the connection is dead and the session must exit.
func (ss *session) write(typ byte, payload []byte) bool {
	return wire.WriteFrame(ss.bw, typ, payload) == nil
}

// send writes one frame and flushes everything buffered with it.
func (ss *session) send(typ byte, payload []byte) bool {
	return ss.write(typ, payload) && ss.bw.Flush() == nil
}

// sendErr sends a typed Error frame.
func (ss *session) sendErr(class byte, format string, args ...any) bool {
	m := wire.ErrorMsg{Class: class, Msg: fmt.Sprintf(format, args...)}
	return ss.send(wire.MsgError, m.Marshal())
}

// fail sends err as an Error frame of the class wire.Classify gives it.
func (ss *session) fail(err error) bool {
	return ss.sendErr(wire.Classify(err), "%s", err.Error())
}

// nextFrame waits for the next request, the idle timeout, or server
// shutdown.
func (ss *session) nextFrame() (frame, bool) {
	var idleC <-chan time.Time
	if d := ss.srv.cfg.IdleTimeout; d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		idleC = t.C
	}
	select {
	case fr, ok := <-ss.inbox:
		return fr, ok
	case <-idleC:
		ss.srv.ctr.idleCloses.Add(1)
		ss.sendErr(wire.ClassIdle, "session closed: idle for %s", ss.srv.cfg.IdleTimeout)
		return frame{}, false
	case <-ss.ctx.Done():
		ss.sendErr(wire.ClassIdle, "session closed: server shutting down")
		return frame{}, false
	}
}

func (ss *session) run() {
	go ss.readLoop()
	defer func() {
		ss.closeCursor()
		ss.conn.Close()
		// Unblock the reader if it is parked on the inbox send.
		for range ss.inbox {
		}
	}()

	// Handshake: the first frame must be a version-matched Hello.
	fr, ok := ss.nextFrame()
	if !ok {
		return
	}
	hello, err := wire.DecodeHello(fr.payload)
	if fr.typ != wire.MsgHello || err != nil || hello.Magic != wire.Magic {
		ss.sendErr(wire.ClassBadRequest, "expected Hello")
		return
	}
	if hello.Version != wire.Version {
		ss.sendErr(wire.ClassBadRequest, "protocol version %d not supported (server speaks %d)",
			hello.Version, wire.Version)
		return
	}
	if !ss.send(wire.MsgHelloOK, wire.HelloOK{Version: wire.Version}.Marshal()) {
		return
	}

	for {
		fr, ok := ss.nextFrame()
		if !ok {
			return
		}
		if !ss.handle(fr) {
			return
		}
	}
}

// handle dispatches one request frame; a false return ends the session.
func (ss *session) handle(fr frame) bool {
	switch fr.typ {
	case wire.MsgPrepare:
		m, err := wire.DecodePrepare(fr.payload)
		if err != nil {
			return ss.fail(err)
		}
		return ss.handlePrepare(m.Spec)
	case wire.MsgExecute:
		m, err := wire.DecodeExecute(fr.payload)
		if err != nil {
			return ss.fail(err)
		}
		return ss.handleExecute(m)
	case wire.MsgFetch:
		m, err := wire.DecodeFetch(fr.payload)
		if err != nil {
			return ss.fail(err)
		}
		return ss.handleFetch(int(m.MaxRows))
	case wire.MsgCancel:
		// The reader already fired the context; here the cursor (if
		// any) is torn down and the cancel acknowledged, giving the
		// client a deterministic frame to resynchronise on. The client
		// sends Cancel after every grant it will ever send for the
		// stream, so no stale grant can follow it.
		ss.srv.ctr.cancels.Add(1)
		ss.closeCursor()
		ss.stale = 0
		return ss.send(wire.MsgOK, nil)
	case wire.MsgStats:
		return ss.send(wire.MsgStatsReply, ss.srv.Stats().Marshal())
	case wire.MsgCatalog:
		return ss.handleCatalog()
	case wire.MsgFaultCtl:
		m, err := wire.DecodeFaultCtl(fr.payload)
		if err != nil {
			return ss.fail(err)
		}
		return ss.handleFaultCtl(m)
	case wire.MsgColdCache:
		return ss.handleColdCache()
	case wire.MsgHello:
		return ss.sendErr(wire.ClassBadRequest, "duplicate Hello")
	default:
		return ss.sendErr(wire.ClassBadRequest, "unexpected message %#02x", fr.typ)
	}
}

// handlePrepare compiles a decoded spec and answers its parameters;
// the session keeps nothing. QueryFromSpec owns the validation of
// everything a hostile peer can put in one (kind bytes, parameter
// names); semantic validation is Prepare's.
func (ss *session) handlePrepare(spec wire.QuerySpec) bool {
	stmt, err := ss.srv.db.Prepare(ss.srv.db.QueryFromSpec(spec))
	if err != nil {
		return ss.fail(err)
	}
	ss.srv.ctr.stmtsPrepared.Add(1)
	return ss.send(wire.MsgPrepareOK, wire.PrepareOK{Params: stmt.Params()}.Marshal())
}

// handleExecute admits one execution — an ad-hoc query (no binds) or a
// prepared statement's run — runs it through DB.ExecuteSpec, so bind
// errors are a local Stmt.Run's, and opens the session's cursor. A
// failed open is answered by its Error frame alone; an open cursor by
// ExecOK with the result columns, buffered, and then the two windows
// Execute grants, each of up to FetchRows rows (0 =
// wire.DefaultFetchRows) and served exactly as a Fetch would serve it.
// A short result therefore leaves as one write, and a long one keeps a
// window in flight while the client reads the first.
func (ss *session) handleExecute(m wire.Execute) bool {
	if ss.cur != nil {
		return ss.sendErr(wire.ClassBadRequest, "a cursor is already open on this session")
	}
	var bind smoothscan.Bind
	if len(m.Binds) > 0 {
		bind = make(smoothscan.Bind, len(m.Binds))
		for _, b := range m.Binds {
			bind[b.Name] = b.Val
		}
	}
	release, err := ss.srv.admit()
	if err != nil {
		return ss.fail(err)
	}
	ctx, cancel := context.WithCancel(ss.ctx)
	ss.setCancel(cancel)
	rows, err := ss.srv.db.ExecuteSpec(ctx, m.Spec, bind)
	if err != nil {
		ss.setCancel(nil)
		cancel()
		release()
		ss.srv.ctr.queriesFailed.Add(1)
		return ss.fail(err)
	}
	cols := rows.Columns()
	ss.cur = &cursor{
		rows:    rows,
		cancel:  cancel,
		release: release,
		width:   len(cols),
	}
	if need := batchRows * len(cols); len(ss.flat) < need {
		ss.flat = make([]int64, need)
	}
	return ss.write(wire.MsgExecOK, wire.ExecOK{Cols: cols}.Marshal()) &&
		ss.serveWindow(int(m.FetchRows)) &&
		(ss.cur == nil || ss.serveWindow(int(m.FetchRows)))
}

// closeCursor tears the open cursor down: cancel the query context,
// close the Rows (stopping parallel workers), release the admission
// token, and record the cursor's grants still in flight as stale.
// Idempotent.
func (ss *session) closeCursor() {
	c := ss.cur
	if c == nil {
		return
	}
	ss.cur = nil
	ss.stale = max(c.grants, 0)
	ss.setCancel(nil)
	c.cancel()
	_ = c.rows.Close()
	c.release()
}

// handleFetch takes one window grant: it serves the open cursor's next
// window, or drops a stale grant of a stream that has already ended.
func (ss *session) handleFetch(maxRows int) bool {
	c := ss.cur
	if c == nil {
		if ss.stale > 0 {
			ss.stale--
			return true
		}
		return ss.sendErr(wire.ClassBadRequest, "no open cursor (Execute first)")
	}
	c.grants--
	return ss.serveWindow(maxRows)
}

// serveWindow streams up to maxRows rows of the open cursor as Batch
// frames, ending the window with End (More when the budget filled
// before the stream ended) or a classified Error. Frames are flushed
// at End or Error, and after a full Batch with more of the window to
// come, so the client decodes one batch while the next is encoded.
func (ss *session) serveWindow(maxRows int) bool {
	c := ss.cur
	if maxRows <= 0 {
		maxRows = wire.DefaultFetchRows
	}
	sent := 0
	for sent < maxRows {
		chunk := maxRows - sent
		if chunk > batchRows {
			chunk = batchRows
		}
		n := 0
		for n < chunk && c.rows.Next() {
			c.rows.CopyRow(ss.flat[n*c.width : (n+1)*c.width])
			n++
		}
		if n > 0 {
			ss.enc.B = ss.enc.B[:0]
			ss.enc.AppendBatch(ss.flat, n, c.width)
			if !ss.write(wire.MsgBatch, ss.enc.B) {
				return false
			}
			ss.srv.ctr.rowsSent.Add(int64(n))
			ss.srv.ctr.batchesSent.Add(1)
			sent += n
			if n == chunk && sent < maxRows && ss.bw.Flush() != nil {
				return false
			}
		}
		if n < chunk {
			// Stream ended (or failed) inside this chunk.
			if err := c.rows.Err(); err != nil {
				ss.srv.ctr.queriesFailed.Add(1)
				ok := ss.fail(err)
				ss.closeCursor()
				return ok
			}
			if err := c.rows.Close(); err != nil {
				ss.srv.ctr.queriesFailed.Add(1)
				ok := ss.fail(err)
				ss.closeCursor()
				return ok
			}
			st := c.rows.ExecStats()
			end := wire.End{Summary: wire.ExecSummary{
				Rows:             st.RowsReturned,
				Retries:          st.Retries,
				FaultsSeen:       st.FaultsSeen,
				PlanCacheHit:     st.PlanCacheHit,
				Degraded:         st.Degraded,
				IO:               st.IO,
				ResultCacheHit:   st.ResultCache.Hit,
				ResultCacheBytes: st.ResultCache.Bytes,
				ResultCacheAgeNs: int64(st.ResultCache.Age),
			}}
			ss.srv.ctr.queriesServed.Add(1)
			ok := ss.send(wire.MsgEnd, end.Marshal())
			ss.closeCursor()
			return ok
		}
	}
	// Window filled; the cursor stays open, and the client grants one
	// more window when it reads this End.
	c.grants++
	return ss.send(wire.MsgEnd, endMore)
}

// handleCatalog answers with the server's table catalog so a sharding
// coordinator can mirror the schema without sharing the data load.
func (ss *session) handleCatalog() bool {
	var m wire.CatalogReply
	for _, t := range ss.srv.db.Tables() {
		m.Tables = append(m.Tables, wire.TableSpec{
			Name:    t.Name,
			Cols:    t.Columns,
			Indexed: t.Indexed,
			Rows:    t.Rows,
		})
	}
	return ss.send(wire.MsgCatalogReply, m.Marshal())
}

// handleColdCache evicts the buffer pool so a remote measurement
// window starts from the same cold state an in-process run would.
// Like fault administration it is a test-rig control, and shares its
// gate: an open benchmark harness is fine, an open eviction endpoint
// on a shared server is not.
func (ss *session) handleColdCache() bool {
	if !ss.srv.cfg.FaultAdmin {
		return ss.sendErr(wire.ClassBadRequest, "cache administration is disabled on this server (-fault-admin)")
	}
	if ss.cur != nil {
		return ss.sendErr(wire.ClassBadRequest, "ColdCache while a cursor is open")
	}
	if err := ss.srv.db.ColdCache(); err != nil {
		return ss.fail(err)
	}
	return ss.send(wire.MsgOK, nil)
}

func (ss *session) handleFaultCtl(m wire.FaultCtl) bool {
	if !ss.srv.cfg.FaultAdmin {
		return ss.sendErr(wire.ClassBadRequest, "fault administration is disabled on this server (-fault-admin)")
	}
	if len(m.Rules) == 0 {
		ss.srv.db.SetFaultPolicy(nil)
		return ss.send(wire.MsgOK, nil)
	}
	rules := make([]smoothscan.FaultRule, len(m.Rules))
	for i, r := range m.Rules {
		if r.Kind > byte(smoothscan.FaultCorrupt) || r.Rate < 0 || r.Rate > 1 {
			return ss.sendErr(wire.ClassBadRequest, "fault rule %d: kind %d rate %g out of range", i, r.Kind, r.Rate)
		}
		rules[i] = smoothscan.FaultRule{
			Space:     smoothscan.AnySpace,
			Kind:      smoothscan.FaultKind(r.Kind),
			Rate:      r.Rate,
			ExtraCost: float64(r.ExtraCost),
		}
	}
	ss.srv.db.SetFaultPolicy(smoothscan.NewFaultPolicy(m.Seed, rules...))
	return ss.send(wire.MsgOK, nil)
}
