package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"smoothscan"
	"smoothscan/internal/wire"
)

// batchRows caps one Batch frame; a result is streamed as frames of
// batchRows rows, the last one shorter, so no single frame outgrows the
// decoder's comfort zone.
const batchRows = 1024

// writeBufSize sizes the session's write buffer so that a full
// batchRows-row Batch frame of a typical result (ten columns of
// clustered or small values, two to six bytes a value) leaves as one
// Write; a larger frame passes through bufio straight to the
// connection.
const writeBufSize = 64 << 10

// frame is one decoded wire frame in flight from the reader goroutine
// to the session loop.
type frame struct {
	typ     byte
	payload []byte
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

	// stream's staging, reused across batches and results: the session
	// streams one result at a time from one goroutine.
	flat []int64      // row-major batch, batchRows*width of the widest result so far
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
// the connection is dead and the session must exit. With an idle
// timeout set, every write first moves the connection's write deadline
// to that timeout from now, so a peer that stops reading is reaped like
// one that stops sending: the write that blocks on it times out.
func (ss *session) write(typ byte, payload []byte) bool {
	if d := ss.srv.cfg.IdleTimeout; d > 0 {
		ss.conn.SetWriteDeadline(time.Now().Add(d))
	}
	return ss.ok(wire.WriteFrame(ss.bw, typ, payload))
}

// flush writes out every buffered frame.
func (ss *session) flush() bool { return ss.ok(ss.bw.Flush()) }

// ok reports whether a write succeeded, counting one that timed out as
// an idle close.
func (ss *session) ok(err error) bool {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		ss.srv.ctr.idleCloses.Add(1)
	}
	return err == nil
}

// send writes one frame and flushes everything buffered with it.
func (ss *session) send(typ byte, payload []byte) bool {
	return ss.write(typ, payload) && ss.flush()
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
	case wire.MsgCancel:
		// The reader fired the query's context when it read the Cancel,
		// so the stream it landed in has ended, early or not; the
		// acknowledgement gives the client a deterministic frame to
		// resynchronise on.
		ss.srv.ctr.cancels.Add(1)
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
// errors are a local Stmt.Run's, and streams its whole result before
// it returns. A failed open is answered by its Error frame alone. The
// admission slot, the query's context and its Rows are this call's and
// released on every exit, a failed write included.
func (ss *session) handleExecute(m wire.Execute) bool {
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
	defer release()
	ctx, cancel := context.WithCancel(ss.ctx)
	ss.setCancel(cancel)
	defer func() {
		ss.setCancel(nil)
		cancel()
	}()
	rows, err := ss.srv.db.ExecuteSpec(ctx, m.Spec, bind)
	if err != nil {
		ss.srv.ctr.queriesFailed.Add(1)
		return ss.fail(err)
	}
	defer rows.Close()
	return ss.stream(rows)
}

// stream writes ExecOK with rows' columns, the result as Batch frames of
// up to batchRows rows, and then End with the execution's summary, or a
// classified Error. Frames are flushed after each full Batch and at End
// or Error, so a short result leaves as one write, and a long one's
// rows leave as soon as their batch is encoded: the client decodes one
// batch while the next is produced. The connection is the only flow
// control: a client that stops reading blocks the write.
func (ss *session) stream(rows *smoothscan.Rows) bool {
	cols := rows.Columns()
	width := len(cols)
	if need := batchRows * width; len(ss.flat) < need {
		ss.flat = make([]int64, need)
	}
	if !ss.write(wire.MsgExecOK, wire.ExecOK{Cols: cols}.Marshal()) {
		return false
	}
	for {
		n := 0
		for n < batchRows && rows.Next() {
			rows.CopyRow(ss.flat[n*width : (n+1)*width])
			n++
		}
		if n > 0 {
			ss.enc.B = ss.enc.B[:0]
			ss.enc.AppendBatch(ss.flat, n, width)
			if !ss.write(wire.MsgBatch, ss.enc.B) {
				return false
			}
			ss.srv.ctr.rowsSent.Add(int64(n))
			ss.srv.ctr.batchesSent.Add(1)
		}
		if n < batchRows {
			break
		}
		if !ss.flush() {
			return false
		}
	}
	// The stream ended, or failed.
	err := rows.Err()
	if err == nil {
		err = rows.Close()
	}
	if err != nil {
		ss.srv.ctr.queriesFailed.Add(1)
		return ss.fail(err)
	}
	st := rows.ExecStats()
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
	return ss.send(wire.MsgEnd, end.Marshal())
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
