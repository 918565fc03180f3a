// Package server is the serving side of the smoothscan wire protocol:
// it owns one embedded smoothscan.DB and exposes it to remote clients
// (smoothscan.Conn) over TCP. Each accepted connection becomes a
// session that streams one result at a time and holds no statements: a
// prepared statement's every Execute carries its spec, which the DB's
// plan cache resolves to the compiled template. Queries from every
// session funnel through one shared admission gate, so a saturated
// server sheds load with a typed overloaded reject instead of queueing
// without bound.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"smoothscan"
	"smoothscan/internal/wire"
)

// Config bounds a Server. Zero values select the defaults; a negative
// limit disables that limit.
type Config struct {
	// MaxConns caps concurrently open sessions; a connection beyond it
	// is rejected at accept time with an overloaded Error frame, before
	// any handshake (default 64).
	MaxConns int
	// MaxInFlight caps queries executing across all sessions (default
	// 16). An Execute past the cap queues up to QueueDeadline, then is
	// rejected with an overloaded Error frame — backpressure with a
	// bounded wait, never an unbounded hang.
	MaxInFlight int
	// QueueDeadline is how long an Execute may wait for an admission
	// slot (default 2s).
	QueueDeadline time.Duration
	// IdleTimeout closes sessions that stay silent longer than this,
	// and sessions whose client stops reading a result for as long: a
	// stream's write that blocks past it ends the session. Zero
	// disables the idle reaper.
	IdleTimeout time.Duration
	// FaultAdmin allows clients to attach fault-injection policies via
	// FaultCtl frames — the remote chaos harness. Off by default: fault
	// injection is an operator decision, not a client right.
	FaultAdmin bool
	// Logf, when set, receives one line per session-level event.
	Logf func(format string, args ...any)
}

func (c *Config) fill() {
	if c.MaxConns == 0 {
		c.MaxConns = 64
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 16
	}
	if c.QueueDeadline == 0 {
		c.QueueDeadline = 2 * time.Second
	}
}

// counters is the server's atomic counter block; Stats snapshots it.
type counters struct {
	sessionsOpen    atomic.Int64
	sessionsTotal   atomic.Int64
	connsRejected   atomic.Int64
	stmtsPrepared   atomic.Int64
	queriesServed   atomic.Int64
	queriesFailed   atomic.Int64
	queriesAborted  atomic.Int64
	queriesRejected atomic.Int64
	cancels         atomic.Int64
	idleCloses      atomic.Int64
	rowsSent        atomic.Int64
	batchesSent     atomic.Int64
}

// Server serves one DB to remote sessions.
type Server struct {
	db  *smoothscan.DB
	cfg Config
	ctr counters

	// sem is the admission gate: one token per in-flight query.
	sem chan struct{}

	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	ln       net.Listener
	sessions map[*session]struct{}
	closed   bool

	wg sync.WaitGroup
}

// New builds a Server over db. The DB stays usable in-process; remote
// sessions are just more readers of it.
func New(db *smoothscan.DB, cfg Config) *Server {
	cfg.fill()
	s := &Server{db: db, cfg: cfg, sessions: make(map[*session]struct{})}
	if cfg.MaxInFlight > 0 {
		s.sem = make(chan struct{}, cfg.MaxInFlight)
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	return s
}

// Start listens on addr ("host:port", ":0" for an ephemeral port) and
// accepts sessions in the background until Close.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: already closed")
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return nil
}

// Addr returns the bound listen address (nil before Start).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops accepting, closes every session (in-flight queries are
// cancelled through their contexts) and waits for all of them to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	ln := s.ln
	for ss := range s.sessions {
		ss.conn.Close()
	}
	s.mu.Unlock()
	s.cancel()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	return nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		if s.cfg.MaxConns > 0 && s.ctr.sessionsOpen.Load() >= int64(s.cfg.MaxConns) {
			// Reject at the handshake: the client's Dial reads this
			// frame instead of a HelloOK and surfaces ErrOverloaded —
			// load shedding must never look like a hang. Off the accept
			// loop: the client's Hello must be drained first (closing
			// before it lands turns the reject into a write error on
			// the client), and reading it must not stall new accepts.
			s.ctr.connsRejected.Add(1)
			s.wg.Add(1)
			go func(conn net.Conn) {
				defer s.wg.Done()
				defer conn.Close()
				conn.SetDeadline(time.Now().Add(5 * time.Second))
				_, _, _ = wire.ReadFrame(conn)
				msg := wire.ErrorMsg{Class: wire.ClassOverloaded,
					Msg: fmt.Sprintf("connection limit %d reached", s.cfg.MaxConns)}
				_ = wire.WriteFrame(conn, wire.MsgError, msg.Marshal())
			}(conn)
			continue
		}
		ss := newSession(s, conn)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.sessions[ss] = struct{}{}
		s.mu.Unlock()
		s.ctr.sessionsOpen.Add(1)
		s.ctr.sessionsTotal.Add(1)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			ss.run()
			s.mu.Lock()
			delete(s.sessions, ss)
			s.mu.Unlock()
			s.ctr.sessionsOpen.Add(-1)
		}()
	}
}

// admit takes an in-flight query token, waiting up to QueueDeadline.
// It returns wire.ErrOverloaded when the gate stays full past the
// deadline, and a release func on success.
func (s *Server) admit() (func(), error) {
	if s.sem == nil {
		return func() {}, nil
	}
	select {
	case s.sem <- struct{}{}:
	default:
		t := time.NewTimer(s.cfg.QueueDeadline)
		defer t.Stop()
		select {
		case s.sem <- struct{}{}:
		case <-t.C:
			s.ctr.queriesRejected.Add(1)
			return nil, fmt.Errorf("%w: %d queries in flight past the %s queue deadline",
				wire.ErrOverloaded, s.cfg.MaxInFlight, s.cfg.QueueDeadline)
		case <-s.ctx.Done():
			return nil, wire.ErrSessionClosed
		}
	}
	var once sync.Once
	return func() { once.Do(func() { <-s.sem }) }, nil
}

// Stats snapshots the server's counters plus the engine-side numbers a
// remote harness cannot read directly (simulated device time, plan
// cache traffic).
func (s *Server) Stats() wire.ServerStats {
	pc := s.db.PlanCacheStats()
	rc := s.db.ResultCacheStats()
	return wire.ServerStats{
		SessionsOpen:    s.ctr.sessionsOpen.Load(),
		SessionsTotal:   s.ctr.sessionsTotal.Load(),
		ConnsRejected:   s.ctr.connsRejected.Load(),
		StmtsPrepared:   s.ctr.stmtsPrepared.Load(),
		QueriesServed:   s.ctr.queriesServed.Load(),
		QueriesFailed:   s.ctr.queriesFailed.Load(),
		QueriesAborted:  s.ctr.queriesAborted.Load(),
		QueriesRejected: s.ctr.queriesRejected.Load(),
		Cancels:         s.ctr.cancels.Load(),
		IdleCloses:      s.ctr.idleCloses.Load(),
		RowsSent:        s.ctr.rowsSent.Load(),
		BatchesSent:     s.ctr.batchesSent.Load(),
		DeviceSimCost:   s.db.Stats().Time(),
		PlanCacheHits:   int64(pc.Hits),
		PlanCacheMisses: int64(pc.Misses),

		ResultCacheHits:        rc.Hits,
		ResultCacheMisses:      rc.Misses,
		ResultCacheInvalidated: rc.InvalidatedStale,
		ResultCacheEntries:     int64(rc.Entries),
		ResultCacheBytes:       rc.Bytes,
	}
}
