// Package wire is the smoothscan wire protocol: a small length-prefixed
// binary framing carrying the prepare → bind → execute query lifecycle
// between a remote client (smoothscan.Conn) and the serving subsystem
// (internal/server, cmd/ssserver). The protocol is stateless about
// statements: Prepare only validates a spec and names its parameters,
// and each Execute carries the spec again with its binds, so a server
// session holds no statement handles. Execute is the only request that
// opens a result stream; an ad-hoc query is an Execute without binds.
//
// # Framing
//
// Every frame is
//
//	| u32 big-endian length | u8 message type | payload (length-1 bytes) |
//
// where length counts the type byte plus the payload and is bounded by
// MaxFrame. Payloads are encoded with unsigned/zigzag varints and
// length-prefixed strings (Encoder/Decoder); result rows travel as
// column-major batches, each column bit-packed against a frame of
// reference (AppendBatch/DecodeBatchPayload), mirroring tuple.Batch as
// the engine's unit of vectorized execution.
//
// # Error model
//
// Errors cross the wire as Error frames carrying a Class byte plus a
// human-readable message. The classes preserve the engine's typed error
// taxonomy (fault injection, admission control, cancellation, bind and
// structural errors) through one table of class, name and sentinel:
// Classify picks the class on the server, and RemoteError unwraps to
// the same sentinel the in-process engine returns, so errors.Is — and
// therefore smoothscan.IsTransientFault / IsFaultError — give the same
// answers for a remote execution as for a local one.
package wire

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"smoothscan/internal/disk"
)

// Protocol constants.
const (
	// Magic opens the Hello message: "SSWP" (SmoothScan Wire Protocol).
	Magic uint32 = 0x53535750
	// Version is the protocol revision; the server rejects a Hello
	// carrying a different one. Version 2 made statements stateless:
	// Execute carries its spec, and the server holds no handles.
	// Version 3 made opening a stream one round trip: Query and Execute
	// carry the first window's row budget, and the server answers ExecOK
	// followed by that window without waiting for a Fetch. Version 4
	// retired Query: every stream opens with an Execute, binds or none.
	// Version 5 replaced the Batch payload's zigzag-varint deltas with
	// frame-of-reference bit-packed columns. Version 6 made the stream
	// credit-based: Execute granted two windows and the client one more
	// with a Fetch for each End{More} it read. Version 7 streams every
	// result whole, with TCP as its only flow control: Fetch,
	// Execute's window size and End's More flag are gone.
	Version uint32 = 7
	// MaxFrame bounds a frame's length field; a peer announcing more is
	// malformed and the connection is dropped.
	MaxFrame = 16 << 20
)

// Message types. The request/response pairing is strict per session:
// the client writes one request and reads frames until the terminal
// response; only Cancel may be injected while a response stream is in
// flight. 0x07 (version 6's Fetch), 0x0b (version 1's CloseStmt) and
// 0x0e (version 3's Query) are retired: a server answers them like any
// unknown type.
const (
	MsgHello        byte = 0x01 // client → server: handshake
	MsgHelloOK      byte = 0x02 // server → client: handshake accepted
	MsgPrepare      byte = 0x03 // client: validate a QuerySpec, learn its parameters
	MsgPrepareOK    byte = 0x04 // server: parameter names
	MsgExecute      byte = 0x05 // client: compile + bind + execute a QuerySpec, stream its whole result
	MsgExecOK       byte = 0x06 // server: query running; the result's Batch* and End (or Error) follow
	MsgBatch        byte = 0x08 // server: one column-encoded row batch
	MsgEnd          byte = 0x09 // server: stream complete (summary)
	MsgError        byte = 0x0a // server: typed error, terminates the current command
	MsgOK           byte = 0x0c // server: generic success
	MsgCancel       byte = 0x0d // client: cancel the open stream (also valid mid-stream)
	MsgStats        byte = 0x0f // client: server counters snapshot
	MsgStatsReply   byte = 0x10 // server: ServerStats
	MsgFaultCtl     byte = 0x11 // client: attach/clear a fault-injection policy (admin)
	MsgColdCache    byte = 0x12 // client: evict the server's buffer pool (admin; benchmarking)
	MsgCatalog      byte = 0x13 // client: request the server's table catalog
	MsgCatalogReply byte = 0x14 // server: CatalogReply (table names, columns, indexes, row counts)
)

// Error classes carried by Error frames. Each is a row of classes, the
// one table that maps a server-side error to its class and a class to
// the sentinel RemoteError unwraps to. A client that predates a class
// reads it as class-0xNN with no sentinel; the frame does not change.
const (
	ClassInternal      byte = 0x00 // unclassified server-side failure
	ClassBadRequest    byte = 0x01 // malformed or out-of-protocol request
	ClassNotFound      byte = 0x02 // unknown table/column/index, from a server predating 0x0b-0x0d
	ClassOverloaded    byte = 0x03 // admission control rejected (ErrOverloaded)
	ClassCancelled     byte = 0x04 // query cancelled (context.Canceled)
	ClassIdle          byte = 0x05 // server closed the session (idle timeout / shutdown)
	ClassTransient     byte = 0x06 // injected transient fault (retry can succeed)
	ClassPermanent     byte = 0x07 // injected permanent fault
	ClassCorrupt       byte = 0x08 // page checksum mismatch
	ClassUnbound       byte = 0x09 // a parameter the execution does not bind (ErrUnboundParam)
	ClassUnknown       byte = 0x0a // a bind naming a parameter the statement lacks (ErrUnknownParam)
	ClassNoTable       byte = 0x0b // ErrNoTable
	ClassUnknownColumn byte = 0x0c // ErrUnknownColumn
	ClassNoIndex       byte = 0x0d // ErrNoIndex
	ClassNotSelected   byte = 0x0e // ErrNotSelected
	ClassScansOpen     byte = 0x0f // ErrScansOpen
)

// Typed sentinels for conditions born on the wire layer itself, and the
// engine's sentinels that smoothscan re-exports from here so that a
// remote execution's errors unwrap to the same values. The engine-fault
// classes map to internal/disk's sentinels instead.
var (
	// ErrOverloaded is the admission-control reject: the server refused
	// the connection or query because a configured limit (connections,
	// in-flight queries past the queue deadline) was reached. Back off
	// and retry; the server is shedding load, not failing.
	ErrOverloaded = errors.New("wire: server overloaded")
	// ErrSessionClosed marks a server-initiated session close: idle
	// timeout or server shutdown.
	ErrSessionClosed = errors.New("wire: session closed by server")
	// ErrMalformed marks a frame or payload that does not decode; the
	// receiver drops the connection.
	ErrMalformed = errors.New("wire: malformed frame")
	// The engine's bind errors.
	ErrUnboundParam = errors.New("smoothscan: parameter not bound")
	ErrUnknownParam = errors.New("smoothscan: bind names unknown parameter")
	// The engine's structural errors: names a query or call refers to
	// that do not exist, and ColdCache/ResetStats under open scans.
	ErrNoTable       = errors.New("smoothscan: no such table")
	ErrUnknownColumn = errors.New("smoothscan: no such column")
	ErrNoIndex       = errors.New("smoothscan: no index on column")
	ErrNotSelected   = errors.New("smoothscan: column not in query output")
	ErrScansOpen     = errors.New("smoothscan: operation unsafe while scans are open")
)

// classRow is one row of the error table: a class, its name and the
// sentinel that maps to it.
type classRow struct {
	class    byte
	name     string
	sentinel error
}

// classes is the error table. Classify answers the class of the first
// row whose sentinel the error matches, so the order is precedence:
// the client's mistakes first, then cancellation, then the faults
// (corruption and permanence ahead of the transient fault), then
// admission and the bind errors. ClassName
// and RemoteError.Unwrap read the first row carrying the class. A row
// with no sentinel only names its class; a later row for a class
// already named is one-way: Classify sends its sentinel as that class,
// and the class unwraps to the first row's sentinel.
var classes = [...]classRow{
	{ClassInternal, "internal", nil},
	{ClassBadRequest, "bad-request", nil},
	{ClassNotFound, "not-found", nil},
	{ClassNoTable, "no-table", ErrNoTable},
	{ClassUnknownColumn, "unknown-column", ErrUnknownColumn},
	{ClassNoIndex, "no-index", ErrNoIndex},
	{ClassNotSelected, "not-selected", ErrNotSelected},
	{ClassScansOpen, "scans-open", ErrScansOpen},
	{ClassBadRequest, "", ErrMalformed},
	{ClassCancelled, "cancelled", context.Canceled},
	{ClassCancelled, "", context.DeadlineExceeded},
	{ClassCorrupt, "page-corrupt", disk.ErrPageCorrupt},
	{ClassPermanent, "permanent-fault", disk.ErrPermanentFault},
	{ClassTransient, "transient-fault", disk.ErrInjected},
	{ClassOverloaded, "overloaded", ErrOverloaded},
	{ClassIdle, "session-closed", ErrSessionClosed},
	{ClassUnbound, "unbound-param", ErrUnboundParam},
	{ClassUnknown, "unknown-param", ErrUnknownParam},
}

// ClassName renders an error class for messages and logs; a byte no
// row carries renders as class-0xNN.
func ClassName(class byte) string {
	for _, r := range classes {
		if r.class == class {
			return r.name
		}
	}
	return fmt.Sprintf("class-%#02x", class)
}

// RemoteError is an Error frame materialised client-side. It unwraps
// to the typed sentinel its class preserves — an injected transient
// fault that crossed the wire still satisfies
// smoothscan.IsTransientFault, an admission reject satisfies
// errors.Is(err, ErrOverloaded), an unknown table errors.Is(err,
// ErrNoTable), and so on.
type RemoteError struct {
	Class byte
	Msg   string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("remote (%s): %s", ClassName(e.Class), e.Msg)
}

// Unwrap returns the sentinel of the first row carrying the class: nil
// for a name-only class and for a byte no row carries.
func (e *RemoteError) Unwrap() error {
	for _, r := range classes {
		if r.class == e.Class {
			return r.sentinel
		}
	}
	return nil
}

// Classify maps a server-side error to the wire class that preserves
// its type for the client: the first row whose sentinel it matches,
// ClassInternal if none does.
func Classify(err error) byte {
	for _, r := range classes {
		if r.sentinel != nil && errors.Is(err, r.sentinel) {
			return r.class
		}
	}
	return ClassInternal
}

// WriteFrame writes one frame: length, type byte, payload.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload)+1 > MaxFrame {
		return fmt.Errorf("%w: frame of %d bytes exceeds MaxFrame", ErrMalformed, len(payload)+1)
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame, returning its type and a payload the
// caller owns. Frames longer than MaxFrame (or shorter than the type
// byte) are malformed: the caller must drop the connection, since the
// stream can no longer be resynchronised.
func ReadFrame(r io.Reader) (typ byte, payload []byte, err error) {
	return ReadFrameBuf(r, nil)
}

// ReadFrameBuf is ReadFrame reading the payload into buf's backing
// array when it is large enough and into a fresh slice otherwise; a
// connection passes the previous payload back once it has decoded it.
// The MaxFrame check runs before buf is touched or anything is
// allocated.
func ReadFrameBuf(r io.Reader, buf []byte) (typ byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err = io.ReadFull(r, hdr[:4]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n < 1 || n > MaxFrame {
		return 0, nil, fmt.Errorf("%w: frame length %d", ErrMalformed, n)
	}
	if _, err = io.ReadFull(r, hdr[4:5]); err != nil {
		return 0, nil, err
	}
	typ = hdr[4]
	if n == 1 {
		return typ, nil, nil
	}
	payload = slices.Grow(buf[:0], int(n-1))[:n-1]
	if _, err = io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return typ, payload, nil
}

// Encoder appends varint-based primitives to a byte slice. The zero
// value is ready to use; B is the accumulated payload.
type Encoder struct {
	B []byte
}

// U8 appends one byte.
func (e *Encoder) U8(v byte) { e.B = append(e.B, v) }

// Bool appends a bool as one byte.
func (e *Encoder) Bool(v bool) { e.B = appendBool(e.B, v) }

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(v uint64) {
	e.B = binary.AppendUvarint(e.B, v)
}

// Varint appends a zigzag-encoded signed varint.
func (e *Encoder) Varint(v int64) {
	e.B = binary.AppendVarint(e.B, v)
}

// F64 appends a float64 as its IEEE-754 bits, little-endian.
func (e *Encoder) F64(v float64) { e.B = appendF64(e.B, v) }

// Str appends a length-prefixed string.
func (e *Encoder) Str(s string) { e.B = appendStr(e.B, s) }

// The append-style forms of the primitives, for AppendSpec.

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendStr(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// Decoder consumes the primitives Encoder writes, accumulating the
// first error instead of panicking: adversarial payloads (the fuzz
// tests feed them directly) surface as Err, never as a crash.
type Decoder struct {
	b   []byte
	off int
	Err error
}

// NewDecoder decodes the given payload.
func NewDecoder(p []byte) *Decoder { return &Decoder{b: p} }

// fail records the first decode error.
func (d *Decoder) fail(what string) {
	if d.Err == nil {
		d.Err = fmt.Errorf("%w: %s at offset %d", ErrMalformed, what, d.off)
	}
}

// Rem returns the number of unconsumed bytes.
func (d *Decoder) Rem() int { return len(d.b) - d.off }

// U8 reads one byte.
func (d *Decoder) U8() byte {
	if d.Err != nil {
		return 0
	}
	if d.off >= len(d.b) {
		d.fail("truncated u8")
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

// Bool reads a one-byte bool; any nonzero byte is true.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.Err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.off += n
	return v
}

// U32 reads an unsigned varint that must fit in 32 bits: a larger value
// is malformed, never silently truncated (a forged 2^32+7 would
// otherwise read as version 7).
func (d *Decoder) U32() uint32 {
	v := d.Uvarint()
	if v > math.MaxUint32 {
		d.fail("uvarint overflows uint32")
		return 0
	}
	return uint32(v)
}

// Varint reads a zigzag-encoded signed varint.
func (d *Decoder) Varint() int64 {
	if d.Err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.off += n
	return v
}

// F64 reads a float64 from its IEEE-754 bits.
func (d *Decoder) F64() float64 {
	if d.Err != nil {
		return 0
	}
	if d.Rem() < 8 {
		d.fail("truncated f64")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return math.Float64frombits(v)
}

// Str reads a length-prefixed string, bounds-checked against the
// remaining payload so a hostile length cannot force a huge allocation.
func (d *Decoder) Str() string {
	n := d.Uvarint()
	if d.Err != nil {
		return ""
	}
	if n > uint64(d.Rem()) {
		d.fail("string length exceeds payload")
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// Count reads a collection count and validates it against both a
// protocol cap and the remaining bytes (each element costs at least
// one byte), so a forged count cannot pre-allocate unbounded memory.
func (d *Decoder) Count(max int, what string) int {
	n := d.Uvarint()
	if d.Err != nil {
		return 0
	}
	if n > uint64(max) || n > uint64(d.Rem()) {
		d.fail(what + " count out of range")
		return 0
	}
	return int(n)
}

// Finish returns the accumulated decode error, flagging trailing
// garbage after a structurally valid payload.
func (d *Decoder) Finish() error {
	if d.Err != nil {
		return d.Err
	}
	if d.Rem() != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformed, d.Rem())
	}
	return nil
}
