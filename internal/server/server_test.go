package server_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"smoothscan"
	"smoothscan/internal/client"
	"smoothscan/internal/loadgen"
	"smoothscan/internal/server"
	"smoothscan/internal/wire"
)

// TestMain fails the run when goroutines outlive the tests — a session,
// reader or listener a Close left behind: after a passing run the count
// must return to its pre-run baseline within 5 s, or the survivors'
// stacks are printed and the binary exits 1.
func TestMain(m *testing.M) {
	base := runtime.NumGoroutine()
	code := m.Run()
	deadline := time.Now().Add(5 * time.Second)
	for code == 0 && runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "%d goroutines alive after the tests (baseline %d)\n", runtime.NumGoroutine(), base)
			pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
			code = 1
		}
		time.Sleep(5 * time.Millisecond)
	}
	os.Exit(code)
}

// startServer boots a server over a small loadgen table on an
// ephemeral port and tears it down with the test.
func startServer(t *testing.T, cfg server.Config) (addr string, db *smoothscan.DB) {
	t.Helper()
	db, err := loadgen.BuildDB(4000, 2000, 1, smoothscan.Options{PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, cfg)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv.Addr().String(), db
}

// startBigServer boots a server over a table of 4 000 rows with four
// distinct values of the indexed column, whose self-join (bigQuery) is
// about 4 M rows of 20 columns: far more than the socket buffers hold,
// so a stream of it stays open server-side until its client reads it
// through or cancels it.
func startBigServer(t *testing.T, cfg server.Config) (addr string, srv *server.Server) {
	t.Helper()
	db, err := loadgen.BuildDB(4000, 4, 1, smoothscan.Options{PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	srv = server.New(db, cfg)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv.Addr().String(), srv
}

// bigQuery is startBigServer's self-join.
func bigQuery(c *smoothscan.Conn) *smoothscan.Query {
	return c.Table(loadgen.Table).Join(loadgen.Table, loadgen.IndexedCol, loadgen.IndexedCol)
}

// requireRunning fails the test unless srv has completed no query since
// its QueriesServed read served: a stream the test relies on being open
// server-side must not have run to its end, or what the test checks
// next would pass vacuously.
func requireRunning(t *testing.T, srv *server.Server, served int64) {
	t.Helper()
	if n := srv.Stats().QueriesServed - served; n != 0 {
		t.Fatalf("the server completed %d queries while the stream under test should still run", n)
	}
}

func dial(t *testing.T, addr string) *smoothscan.Conn {
	t.Helper()
	c, err := smoothscan.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// rangeQuery composes the standard probe query.
func rangeQuery(c *smoothscan.Conn, lo, hi any) *smoothscan.Query {
	return c.Table(loadgen.Table).Where(loadgen.IndexedCol, smoothscan.Between(lo, hi))
}

func drain(t *testing.T, rows *smoothscan.Rows) int64 {
	t.Helper()
	var n int64
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return n
}

// TestHelloVersionMismatch speaks the handshake by hand with the
// versions before this one: the server answers each with a bad-request
// Error naming both versions rather than a stream protocol the peer
// does not speak (version 1 kept statement handles, version 2 waited
// for a Fetch before serving any row, version 3 opened ad-hoc streams
// with a Query request, version 4 sent Batch payloads as zigzag-varint
// deltas, version 5 waited for a Fetch before serving each window after
// the first, version 6 served a window per grant and sent End{More}
// between them).
func TestHelloVersionMismatch(t *testing.T) {
	addr, _ := startServer(t, server.Config{})
	for _, v := range []uint32{1, 2, 3, 4, 5, 6} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if err := wire.WriteFrame(conn, wire.MsgHello, wire.Hello{Magic: wire.Magic, Version: v}.Marshal()); err != nil {
			t.Fatal(err)
		}
		typ, payload, err := wire.ReadFrame(conn)
		conn.Close()
		if err != nil {
			t.Fatal(err)
		}
		if typ != wire.MsgError {
			t.Fatalf("v%d Hello answered with frame %#02x, want Error", v, typ)
		}
		m, err := wire.DecodeError(payload)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("version %d not supported (server speaks %d)", v, wire.Version)
		if m.Class != wire.ClassBadRequest || !strings.Contains(m.Msg, want) {
			t.Fatalf("v%d Hello: %s %q, want bad-request naming %q", v, wire.ClassName(m.Class), m.Msg, want)
		}
	}
}

// rawSession dials addr and completes the handshake by hand, for tests
// that check the exact frames the server writes.
func rawSession(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := wire.WriteFrame(conn, wire.MsgHello, wire.Hello{Magic: wire.Magic, Version: wire.Version}.Marshal()); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := wire.ReadFrame(conn); err != nil || typ != wire.MsgHelloOK {
		t.Fatalf("handshake: frame %#02x, %v", typ, err)
	}
	return conn
}

// readUntilEnd reads the frames of one response up to and including its
// End or Error, returning their types, the rows its batches carried, and
// the last frame's payload.
func readUntilEnd(t *testing.T, conn net.Conn) (types []byte, rows int, last []byte) {
	t.Helper()
	for {
		typ, payload, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatalf("after frames %x: %v", types, err)
		}
		types = append(types, typ)
		switch typ {
		case wire.MsgBatch:
			_, n, _, err := wire.DecodeBatchPayload(payload, nil)
			if err != nil {
				t.Fatal(err)
			}
			rows += n
		case wire.MsgEnd, wire.MsgError:
			return types, rows, payload
		}
	}
}

// TestOpenServesFirstWindow pins the whole-result stream on raw frames:
// an Execute, with binds or without, is answered by ExecOK, the result's
// Batch frames of up to 1 024 rows and its End with the summary, with
// nothing sent by the client in between and nothing after. A Cancel
// after the stream is answered OK, and a failed open writes one Error
// frame and nothing else.
func TestOpenServesFirstWindow(t *testing.T) {
	addr, db := startServer(t, server.Config{})
	conn := rawSession(t, addr)
	spec := func(q *smoothscan.Query) wire.QuerySpec {
		t.Helper()
		sp, err := q.Spec()
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}
	all := func() *smoothscan.Query {
		return db.Query(loadgen.Table).Where(loadgen.IndexedCol, smoothscan.Between(0, 2000))
	}
	send := func(typ byte, payload []byte) {
		t.Helper()
		if err := wire.WriteFrame(conn, typ, payload); err != nil {
			t.Fatal(err)
		}
	}
	// next reads one frame and requires its type.
	next := func(what string, want byte) []byte {
		t.Helper()
		typ, payload, err := wire.ReadFrame(conn)
		if err != nil || typ != want {
			t.Fatalf("%s: frame %#02x (%q), %v, want %#02x", what, typ, payload, err, want)
		}
		return payload
	}
	// silent requires that the server writes nothing more unprompted.
	silent := func(what string) {
		t.Helper()
		conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
		typ, _, err := wire.ReadFrame(conn)
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("%s: frame %#02x, %v, want nothing", what, typ, err)
		}
		conn.SetDeadline(time.Now().Add(10 * time.Second))
	}
	// stream sends req and requires exactly ExecOK, Batch frames of the
	// given row counts and an End summarising their total, then silence.
	stream := func(what string, req wire.Execute, batches ...int) {
		t.Helper()
		send(wire.MsgExecute, req.Marshal())
		next(what+": ExecOK", wire.MsgExecOK)
		total := 0
		for i, want := range batches {
			_, n, _, err := wire.DecodeBatchPayload(next(fmt.Sprintf("%s: batch %d", what, i), wire.MsgBatch), nil)
			if err != nil || n != want {
				t.Fatalf("%s: batch %d of %d rows (%v), want %d", what, i, n, err, want)
			}
			total += n
		}
		m, err := wire.DecodeEnd(next(what+": End", wire.MsgEnd))
		if err != nil || m.Summary.Rows != int64(total) {
			t.Fatalf("%s: End %+v (%v), want the summary of %d rows", what, m, err, total)
		}
		silent(what + ": after End")
	}

	// A short result is the whole exchange: ExecOK, Batch, End{Summary}.
	stream("ad hoc", wire.Execute{Spec: spec(all().Limit(2))}, 2)
	stream("prepared", wire.Execute{Spec: spec(all().Limit(smoothscan.Param("n"))), Binds: []wire.BindKV{{Name: "n", Val: 2}}}, 2)
	// A long one streams whole, in full Batch frames and a short last one.
	stream("2 000 rows", wire.Execute{Spec: spec(all().Limit(2000))}, 1024, 976)
	stream("1 024 rows", wire.Execute{Spec: spec(all().Limit(1024))}, 1024)

	// A Cancel after the stream finds nothing to stop and is answered OK.
	send(wire.MsgCancel, nil)
	next("Cancel after the stream", wire.MsgOK)
	send(wire.MsgStats, nil)
	next("Stats after a Cancel", wire.MsgStatsReply)

	// A failed open is one Error frame: the next response on the
	// connection is the next request's.
	send(wire.MsgExecute, wire.Execute{Spec: wire.QuerySpec{Table: "nope"}}.Marshal())
	next("unknown table", wire.MsgError)
	send(wire.MsgStats, nil)
	next("Stats after a failed open", wire.MsgStatsReply)
}

// TestRetiredRequestTypes sends the request types earlier versions
// used — 0x0b, version 1's CloseStmt, 0x0e, version 3's ad-hoc Query,
// and 0x07, version 6's Fetch, each with the payload its version gave
// it — on a current session. Each is a bad-request Error naming the
// type, never a run, and the session serves the next request.
func TestRetiredRequestTypes(t *testing.T) {
	addr, db := startServer(t, server.Config{})
	conn := rawSession(t, addr)
	spec, err := db.Query(loadgen.Table).Limit(2).Spec()
	if err != nil {
		t.Fatal(err)
	}
	v3Query := wire.Encoder{B: wire.AppendSpec(nil, &spec)}
	v3Query.Uvarint(0)
	var v6Fetch wire.Encoder
	v6Fetch.Uvarint(4096)
	for typ, payload := range map[byte][]byte{0x0b: {1}, 0x0e: v3Query.B, 0x07: v6Fetch.B} {
		if err := wire.WriteFrame(conn, typ, payload); err != nil {
			t.Fatal(err)
		}
		rtyp, rp, err := wire.ReadFrame(conn)
		if err != nil || rtyp != wire.MsgError {
			t.Fatalf("type %#02x: frame %#02x, %v, want Error", typ, rtyp, err)
		}
		m, err := wire.DecodeError(rp)
		if want := fmt.Sprintf("unexpected message %#02x", typ); err != nil || m.Class != wire.ClassBadRequest || m.Msg != want {
			t.Fatalf("type %#02x: %s %q (%v), want bad-request %q", typ, wire.ClassName(m.Class), m.Msg, err, want)
		}
	}
	if err := wire.WriteFrame(conn, wire.MsgExecute, wire.Execute{Spec: spec}.Marshal()); err != nil {
		t.Fatal(err)
	}
	if types, rows, _ := readUntilEnd(t, conn); rows != 2 || types[len(types)-1] != wire.MsgEnd {
		t.Fatalf("Execute after the refusals: frames %x with %d rows, want 2 rows and End", types, rows)
	}
}

// TestConnCloseEndsOpenStream closes the connection under an open
// stream: the stream must end with ErrConnLost, not look complete.
func TestConnCloseEndsOpenStream(t *testing.T) {
	addr, _ := startServer(t, server.Config{})
	c := dial(t, addr)
	rows, err := rangeQuery(c, 0, 2000).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if rows.Next() {
		t.Fatal("Next advanced after Conn.Close")
	}
	if !errors.Is(rows.Err(), smoothscan.ErrConnLost) {
		t.Fatalf("stream error after Conn.Close: %v, want ErrConnLost", rows.Err())
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("Rows.Close after Conn.Close: %v", err)
	}
}

// TestCloseBeforeFirstNext: a result is on its way before the caller's
// first Next, so closing a stream that was never read must read through
// what is in flight and resynchronise the connection — whether the
// stream holds the whole result, only the start of one still running
// on the server, or the caller's context was cancelled first. After
// each, the same Conn serves the next query, the server counts one
// Cancel, and no goroutine outlives the streams.
func TestCloseBeforeFirstNext(t *testing.T) {
	addr, srv := startBigServer(t, server.Config{})
	c := dial(t, addr)
	base := runtime.NumGoroutine()
	cases := []struct {
		name    string
		q       *smoothscan.Query
		running bool // still running on the server when closed
		cancel  bool
	}{
		{"complete", rangeQuery(c, 0, 2000).Limit(2), false, false},
		{"streaming", bigQuery(c).WithOptions(smoothscan.ScanOptions{Path: smoothscan.PathFull, Parallelism: 4}), true, false},
		{"ctx-cancelled", rangeQuery(c, 0, 2000).Limit(2000), false, true},
	}
	for i, tc := range cases {
		served := srv.Stats().QueriesServed
		ctx, cancel := context.WithCancel(context.Background())
		rows, err := tc.q.Run(ctx)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.running {
			time.Sleep(20 * time.Millisecond) // let the server fill the socket buffers
			requireRunning(t, srv, served)
		}
		if tc.cancel {
			cancel()
			if rows.Next() {
				t.Fatalf("%s: Next advanced under a cancelled context", tc.name)
			}
			if !errors.Is(rows.Err(), context.Canceled) {
				t.Fatalf("%s: Err = %v, want context.Canceled", tc.name, rows.Err())
			}
		}
		if err := rows.Close(); err != nil {
			t.Fatalf("%s: Close: %v", tc.name, err)
		}
		cancel()
		if !tc.cancel && rows.Err() != nil {
			t.Fatalf("%s: Err after Close = %v", tc.name, rows.Err())
		}
		next, err := rangeQuery(c, 0, 2000).Limit(100).Run(context.Background())
		if err != nil {
			t.Fatalf("%s: query after Close: %v", tc.name, err)
		}
		if n := drain(t, next); n != 100 {
			t.Fatalf("%s: query after Close returned %d rows, want 100", tc.name, n)
		}
		st, err := c.ServerStats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Cancels != int64(i+1) {
			t.Fatalf("%s: server counted %d cancels after %d closes", tc.name, st.Cancels, i+1)
		}
	}
	if c.Broken() {
		t.Fatal("connection marked broken by early closes")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d now vs %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestIdleTimeout lets a session go silent past the server's idle
// deadline and checks the server-initiated close surfaces as the
// typed ErrSessionClosed on the client's next request.
func TestIdleTimeout(t *testing.T) {
	addr, _ := startServer(t, server.Config{IdleTimeout: 150 * time.Millisecond})
	c := dial(t, addr)

	// An active session stays alive across requests.
	rows, err := rangeQuery(c, 0, 100).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	drain(t, rows)

	time.Sleep(400 * time.Millisecond)
	_, err = rangeQuery(c, 0, 100).Run(context.Background())
	if err == nil {
		t.Fatal("request after idle close succeeded")
	}
	if !errors.Is(err, smoothscan.ErrSessionClosed) && !errors.Is(err, smoothscan.ErrConnLost) {
		t.Fatalf("request after idle close: %v, want ErrSessionClosed or ErrConnLost", err)
	}
	if !c.Broken() {
		t.Fatal("client not marked broken after server-initiated close")
	}
}

// TestCancelMidStream opens a large parallel query, abandons it
// mid-stream, and checks (a) the connection resynchronises for the
// next query and (b) no server goroutines leak — the client Cancel
// must reach the in-flight query's context so parallel scan workers
// exit rather than block on a consumer that will never come.
func TestCancelMidStream(t *testing.T) {
	addr, srv := startBigServer(t, server.Config{})
	c := dial(t, addr)

	base := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		served := srv.Stats().QueriesServed
		rows, err := bigQuery(c).
			WithOptions(smoothscan.ScanOptions{Path: smoothscan.PathFull, Parallelism: 4}).
			Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !rows.Next() {
			t.Fatalf("iteration %d: no rows before cancel: %v", i, rows.Err())
		}
		requireRunning(t, srv, served)
		if err := rows.Close(); err != nil {
			t.Fatalf("iteration %d: mid-stream Close: %v", i, err)
		}
		// The same connection serves the next query after the cancel.
		full, err := rangeQuery(c, 0, 1).Limit(100).Run(context.Background())
		if err != nil {
			t.Fatalf("iteration %d: query after cancel: %v", i, err)
		}
		drain(t, full)
	}
	// Parallel workers and session goroutines must wind down; poll
	// because exits are asynchronous to the client-visible protocol.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d now vs %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestUnreadStreamIsReaped: a client that opens a stream far larger
// than the socket buffers and reads nothing blocks the server's write.
// With an idle timeout set, that write times out: the session is closed
// as idle, its admission slot is freed for another Conn's query, and
// the abandoned stream ends in an error, never as a complete result.
func TestUnreadStreamIsReaped(t *testing.T) {
	addr, srv := startBigServer(t, server.Config{IdleTimeout: 150 * time.Millisecond, MaxInFlight: 1})
	stalled := dial(t, addr)
	served, idle := srv.Stats().QueriesServed, srv.Stats().IdleCloses
	rows, err := bigQuery(stalled).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().IdleCloses == idle {
		if time.Now().After(deadline) {
			t.Fatalf("the session of a client that reads nothing was not reaped within 5s (%d rows sent)", srv.Stats().RowsSent)
		}
		time.Sleep(5 * time.Millisecond)
	}
	requireRunning(t, srv, served)

	other := dial(t, addr)
	next, err := rangeQuery(other, 0, 1).Limit(10).Run(context.Background())
	if err != nil {
		t.Fatalf("query after the reap: %v", err)
	}
	if n := drain(t, next); n != 10 {
		t.Fatalf("query after the reap returned %d rows, want 10", n)
	}

	for rows.Next() {
	}
	if !errors.Is(rows.Err(), smoothscan.ErrConnLost) {
		t.Fatalf("reaped stream ended with %v, want ErrConnLost", rows.Err())
	}
}

// TestCloseAfterKRows closes a 4 000-row stream after k rows, for k
// around each Batch edge, and after each close runs the full query on
// the same Conn: it must return the in-process oracle's rows. A close
// lands before, inside or right at the end of a Batch frame, with the
// rest of the result in flight or the End already sent, so an abort
// that reads too little or too far shows as a wrong, short or failed
// next query.
func TestCloseAfterKRows(t *testing.T) {
	addr, db := startServer(t, server.Config{})
	c := dial(t, addr)
	collect := func(rows *smoothscan.Rows) [][]int64 {
		t.Helper()
		var out [][]int64
		for rows.Next() {
			out = append(out, slices.Clone(rows.Row()))
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
		slices.SortFunc(out, slices.Compare)
		return out
	}
	local, err := db.Query(loadgen.Table).Where(loadgen.IndexedCol, smoothscan.Between(0, 2000)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	oracle := collect(local)
	if len(oracle) != 4000 {
		t.Fatalf("oracle has %d rows, want 4000", len(oracle))
	}
	for _, k := range []int{0, 1, 1023, 1024, 1025, 2047, 2048, 3999} {
		rows, err := rangeQuery(c, 0, 2000).Run(context.Background())
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		for i := 0; i < k; i++ {
			if !rows.Next() {
				t.Fatalf("k=%d: stream ended after %d rows: %v", k, i, rows.Err())
			}
		}
		if err := rows.Close(); err != nil {
			t.Fatalf("k=%d: Close: %v", k, err)
		}
		full, err := rangeQuery(c, 0, 2000).Run(context.Background())
		if err != nil {
			t.Fatalf("k=%d: query after Close: %v", k, err)
		}
		if got := collect(full); !slices.EqualFunc(got, oracle, slices.Equal) {
			t.Fatalf("k=%d: query after Close returned %d rows, not the oracle's %d", k, len(got), len(oracle))
		}
	}
	if c.Broken() {
		t.Fatal("connection marked broken by early closes")
	}
}

// TestAdmissionControl saturates MaxInFlight and checks the excess
// query is rejected with the typed ErrOverloaded after the bounded
// queue deadline — a shed, not a hang — while the in-flight query is
// left to complete normally.
func TestAdmissionControl(t *testing.T) {
	addr, srv := startBigServer(t, server.Config{
		MaxInFlight:   1,
		QueueDeadline: 100 * time.Millisecond,
	})
	holder := dial(t, addr)
	waiter := dial(t, addr)

	// The holder's stream occupies the only admission slot while it
	// runs, and a result far larger than the socket buffers keeps it
	// running until the holder reads it or closes it.
	served := srv.Stats().QueriesServed
	rows, err := bigQuery(holder).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("holder got no rows: %v", rows.Err())
	}
	requireRunning(t, srv, served)

	start := time.Now()
	_, err = rangeQuery(waiter, 0, 1).Limit(50).Run(context.Background())
	waited := time.Since(start)
	if !errors.Is(err, smoothscan.ErrOverloaded) {
		t.Fatalf("overloaded Execute: %v, want ErrOverloaded", err)
	}
	if waited > 3*time.Second {
		t.Fatalf("reject took %v; admission control must shed, not hang", waited)
	}

	// The in-flight query is unaffected by the shed, and closing it
	// frees the slot for the waiter.
	if !rows.Next() {
		t.Fatalf("holder stream ended after the shed: %v", rows.Err())
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	rows2, err := rangeQuery(waiter, 0, 1).Limit(50).Run(context.Background())
	if err != nil {
		t.Fatalf("query after slot freed: %v", err)
	}
	drain(t, rows2)
}

// TestConnLimit fills the connection budget and checks the next Dial
// fails typed with ErrOverloaded instead of hanging in a handshake.
func TestConnLimit(t *testing.T) {
	addr, _ := startServer(t, server.Config{MaxConns: 2})
	dial(t, addr)
	dial(t, addr)
	_, err := smoothscan.Dial(addr)
	if !errors.Is(err, smoothscan.ErrOverloaded) {
		t.Fatalf("Dial past MaxConns: %v, want ErrOverloaded", err)
	}
}

// TestCloseAfterServerShutdown checks the documented contract that
// Rows.Close and Stmt.Close are safe after the server is gone.
func TestCloseAfterServerShutdown(t *testing.T) {
	db, err := loadgen.BuildDB(2000, 1000, 1, smoothscan.Options{PoolPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, server.Config{})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	c, err := smoothscan.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stmt, err := c.PrepareQuery(rangeQuery(c, smoothscan.Param("lo"), smoothscan.Param("hi")))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := stmt.Run(context.Background(), smoothscan.Bind{"lo": 0, "hi": 500})
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no rows before shutdown: %v", rows.Err())
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// The stream dies with the server; closing the carcasses is nil.
	for rows.Next() {
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("Rows.Close after shutdown: %v", err)
	}
	if err := stmt.Close(); err != nil {
		t.Fatalf("Stmt.Close after shutdown: %v", err)
	}
	if _, err := stmt.Run(context.Background(), smoothscan.Bind{"lo": 0, "hi": 1}); err == nil {
		t.Fatal("Run against a closed server succeeded")
	}
}

// TestServerStats sanity-checks the counter snapshot a load driver
// reads for its remote measurements.
func TestServerStats(t *testing.T) {
	addr, _ := startServer(t, server.Config{})
	c := dial(t, addr)
	for i := int64(0); i < 3; i++ {
		rows, err := rangeQuery(c, i*10, i*10+50).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		drain(t, rows)
	}
	st, err := c.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.QueriesServed != 3 {
		t.Fatalf("QueriesServed = %d, want 3", st.QueriesServed)
	}
	if st.SessionsOpen != 1 || st.SessionsTotal != 1 {
		t.Fatalf("sessions open/total = %d/%d, want 1/1", st.SessionsOpen, st.SessionsTotal)
	}
	if st.DeviceSimCost <= 0 {
		t.Fatalf("DeviceSimCost = %v, want > 0", st.DeviceSimCost)
	}
}

// TestFaultAdminGate checks fault and cache administration are
// refused without the server-side opt-in, and work with it.
func TestFaultAdminGate(t *testing.T) {
	locked, _ := startServer(t, server.Config{})
	c := dial(t, locked)
	if err := c.SetFaultPolicy(1, smoothscan.FaultRule{Space: smoothscan.AnySpace, Kind: smoothscan.FaultTransient, Rate: 0.5}); err == nil {
		t.Fatal("SetFaultPolicy without -fault-admin succeeded")
	}
	if err := c.ColdCache(); err == nil {
		t.Fatal("ColdCache without -fault-admin succeeded")
	}

	open, _ := startServer(t, server.Config{FaultAdmin: true})
	ca := dial(t, open)
	if err := ca.SetFaultPolicy(1, smoothscan.FaultRule{Space: smoothscan.AnySpace, Kind: smoothscan.FaultTransient, Rate: 0.2}); err != nil {
		t.Fatalf("SetFaultPolicy: %v", err)
	}
	if err := ca.ColdCache(); err != nil {
		t.Fatalf("ColdCache: %v", err)
	}
	if err := ca.ClearFaultPolicy(); err != nil {
		t.Fatalf("ClearFaultPolicy: %v", err)
	}
	// Out-of-range rules are rejected before touching the device.
	if err := ca.SetFaultPolicy(1, smoothscan.FaultRule{Space: smoothscan.AnySpace, Kind: smoothscan.FaultKind(99), Rate: 0.5}); err == nil {
		t.Fatal("out-of-range fault kind accepted")
	}
	if err := ca.SetFaultPolicy(1, smoothscan.FaultRule{Space: smoothscan.AnySpace, Kind: smoothscan.FaultTransient, Rate: 1.5}); err == nil {
		t.Fatal("out-of-range fault rate accepted")
	}
}

// TestColdCacheUnderOpenCursor: a stream still running in one session
// holds its cursor open on the server, which makes another session's
// ColdCache fail with the engine's own ErrScansOpen, and the eviction
// goes through once the stream is closed.
func TestColdCacheUnderOpenCursor(t *testing.T) {
	addr, srv := startBigServer(t, server.Config{FaultAdmin: true})
	a, b := dial(t, addr), dial(t, addr)
	served := srv.Stats().QueriesServed
	rows, err := bigQuery(a).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	requireRunning(t, srv, served)
	if err := b.ColdCache(); !errors.Is(err, smoothscan.ErrScansOpen) {
		t.Fatalf("ColdCache beside an open cursor: %v, want ErrScansOpen", err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.ColdCache(); err != nil {
		t.Fatalf("ColdCache after the cursor closed: %v", err)
	}
}

// TestBadRequests drives protocol misuse paths and checks each gets a
// typed reject while the session stays usable.
func TestBadRequests(t *testing.T) {
	addr, _ := startServer(t, server.Config{})
	c := dial(t, addr)

	// Unknown table: a no-table reject, not a dropped connection.
	if _, err := c.Table("nope").Run(context.Background()); err == nil {
		t.Fatal("query on unknown table succeeded")
	}
	var re *smoothscan.RemoteError
	_, err := c.Table("nope").Run(context.Background())
	if !errors.As(err, &re) {
		t.Fatalf("unknown table error is %T, want RemoteError", err)
	}

	// Unknown column, bad parameter binding.
	if _, err := rangeQuery(c, 0, 10).Select("ghost").Run(context.Background()); err == nil {
		t.Fatal("select of unknown column succeeded")
	}
	s, err := c.PrepareQuery(rangeQuery(c, smoothscan.Param("lo"), smoothscan.Param("hi")))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background(), smoothscan.Bind{"lo": 1}); err == nil {
		t.Fatal("run with unbound parameter succeeded")
	}

	// Specs no builder can produce — what a hostile or broken peer
	// might send (the wire fuzz seeds carry the same shapes): each is a
	// classified bad-request reject on every request kind that carries a
	// spec, never an executed query.
	hostile := map[string]wire.QuerySpec{
		"predicate kind": {Table: loadgen.Table,
			Preds: []wire.PredSpec{{Col: loadgen.IndexedCol, Kind: wire.PredGe + 1, A: wire.ArgSpec{Lit: 1}}}},
		"aggregate kind": {Table: loadgen.Table, HasAgg: true, GroupCol: loadgen.IndexedCol,
			Aggs: []wire.AggSpec{{Kind: wire.AggMax + 1, Col: "id", As: "x"}}},
		"parameter name": {Table: loadgen.Table,
			Preds: []wire.PredSpec{{Col: loadgen.IndexedCol, Kind: wire.PredEq, A: wire.ArgSpec{Param: "a|b"}}}},
	}
	for what, spec := range hostile {
		_, perr := c.Conn.PrepareSpec(spec)
		var st client.Stream
		qerr := c.Conn.ExecuteSpec(context.Background(), spec, nil, &st, nil)
		eerr := c.Conn.ExecuteSpec(context.Background(), spec, smoothscan.Bind{"a|b": 1}, &st, nil)
		for _, err := range []error{perr, qerr, eerr} {
			if !errors.As(err, &re) || re.Class != wire.ClassBadRequest {
				t.Errorf("out-of-range %s: %v, want a bad-request RemoteError", what, err)
			}
		}
	}

	// The session survived all of it.
	rows, err := rangeQuery(c, 0, 100).Run(context.Background())
	if err != nil {
		t.Fatalf("session unusable after rejects: %v", err)
	}
	drain(t, rows)
	if c.Broken() {
		t.Fatal("client marked broken by recoverable rejects")
	}
}

// TestQueueDeadlineIsBounded pins down the "reject, don't hang"
// property under a pile-up bigger than one waiter.
func TestQueueDeadlineIsBounded(t *testing.T) {
	addr, srv := startBigServer(t, server.Config{
		MaxInFlight:   1,
		QueueDeadline: 50 * time.Millisecond,
	})
	holder := dial(t, addr)
	served := srv.Stats().QueriesServed
	rows, err := bigQuery(holder).Run(context.Background()) // keeps its slot while it runs
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatal("holder got no rows")
	}
	defer rows.Close()
	requireRunning(t, srv, served)

	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func(i int) {
			c, err := smoothscan.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			_, err = rangeQuery(c, 0, 10).Run(context.Background())
			errs <- err
		}(i)
	}
	timeout := time.After(10 * time.Second)
	for i := 0; i < 4; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, smoothscan.ErrOverloaded) {
				t.Fatalf("waiter %d: %v, want ErrOverloaded", i, err)
			}
		case <-timeout:
			t.Fatal("waiters hung instead of being shed")
		}
	}
}
