package wire

import (
	"fmt"

	"smoothscan/internal/disk"
)

// Message payload structs and their codecs. Each message type has a
// Marshal (payload bytes) and a Decode<Name> (payload → struct) pair,
// and each request a client sends mid-session also an AppendTo;
// DecodeMessage dispatches on the frame type for consumers (and the
// fuzz harness) that want one entry point.

// Hello opens a session.
type Hello struct {
	Magic   uint32
	Version uint32
}

// Marshal serialises the message payload.
func (m Hello) Marshal() []byte {
	var e Encoder
	e.Uvarint(uint64(m.Magic))
	e.Uvarint(uint64(m.Version))
	return e.B
}

// DecodeHello parses a Hello payload.
func DecodeHello(p []byte) (Hello, error) {
	d := NewDecoder(p)
	m := Hello{Magic: d.U32(), Version: d.U32()}
	return m, d.Finish()
}

// HelloOK accepts a session.
type HelloOK struct {
	Version uint32
}

// Marshal serialises the message payload.
func (m HelloOK) Marshal() []byte {
	var e Encoder
	e.Uvarint(uint64(m.Version))
	return e.B
}

// DecodeHelloOK parses a HelloOK payload.
func DecodeHelloOK(p []byte) (HelloOK, error) {
	d := NewDecoder(p)
	m := HelloOK{Version: d.U32()}
	return m, d.Finish()
}

// Prepare compiles a query structure and reports its parameters. The
// server keeps nothing: a prepared statement lives on the client as its
// spec, and every Execute carries that spec again.
type Prepare struct {
	Spec QuerySpec
}

// Marshal serialises the message payload.
func (m Prepare) Marshal() []byte { return m.AppendTo(nil) }

// AppendTo appends the message payload to dst and returns the extended
// slice, as Execute.AppendTo does.
func (m Prepare) AppendTo(dst []byte) []byte {
	return AppendSpec(dst, &m.Spec)
}

// DecodePrepare parses a Prepare payload.
func DecodePrepare(p []byte) (Prepare, error) {
	d := NewDecoder(p)
	m := Prepare{Spec: d.DecodeSpec()}
	return m, d.Finish()
}

// PrepareOK returns the statement's parameter names, in first-use
// order (smoothscan.Stmt.Params).
type PrepareOK struct {
	Params []string
}

// Marshal serialises the message payload.
func (m PrepareOK) Marshal() []byte {
	var e Encoder
	e.Uvarint(uint64(len(m.Params)))
	for _, p := range m.Params {
		e.Str(p)
	}
	return e.B
}

// DecodePrepareOK parses a PrepareOK payload.
func DecodePrepareOK(p []byte) (PrepareOK, error) {
	d := NewDecoder(p)
	var m PrepareOK
	n := d.Count(maxParams, "param")
	m.Params = make([]string, 0, n)
	for i := 0; i < n && d.Err == nil; i++ {
		m.Params = append(m.Params, d.Str())
	}
	return m, d.Finish()
}

// BindKV is one bound parameter of an Execute.
type BindKV struct {
	Name string
	Val  int64
}

// Execute compiles the spec, binds it and runs it, opening the
// session's result stream. It is the one request that opens a stream:
// an ad-hoc query sends no binds (its literals are inline), a prepared
// statement's run sends its spec again with the bind. The server
// answers ExecOK and streams the whole result behind it.
type Execute struct {
	Spec  QuerySpec
	Binds []BindKV
}

// Marshal serialises the message payload.
func (m Execute) Marshal() []byte { return m.AppendTo(nil) }

// AppendTo appends the message payload to dst and returns the extended
// slice, so a client encodes every request into one reused buffer.
func (m Execute) AppendTo(dst []byte) []byte {
	e := Encoder{B: AppendSpec(dst, &m.Spec)}
	e.Uvarint(uint64(len(m.Binds)))
	for _, b := range m.Binds {
		e.Str(b.Name)
		e.Varint(b.Val)
	}
	return e.B
}

// DecodeExecute parses an Execute payload.
func DecodeExecute(p []byte) (Execute, error) {
	d := NewDecoder(p)
	m := Execute{Spec: d.DecodeSpec()}
	n := d.Count(maxParams, "bind")
	m.Binds = make([]BindKV, 0, n)
	for i := 0; i < n && d.Err == nil; i++ {
		m.Binds = append(m.Binds, BindKV{Name: d.Str(), Val: d.Varint()})
	}
	return m, d.Finish()
}

// ExecOK opens the result stream: the query runs and these are its
// output columns. The result's Batch frames and its End or Error
// follow it.
type ExecOK struct {
	Cols []string
}

// Marshal serialises the message payload.
func (m ExecOK) Marshal() []byte {
	var e Encoder
	e.Uvarint(uint64(len(m.Cols)))
	for _, c := range m.Cols {
		e.Str(c)
	}
	return e.B
}

// DecodeExecOK parses an ExecOK payload.
func DecodeExecOK(p []byte) (ExecOK, error) {
	d := NewDecoder(p)
	var m ExecOK
	n := d.Count(maxSelCols, "col")
	m.Cols = make([]string, 0, n)
	for i := 0; i < n && d.Err == nil; i++ {
		m.Cols = append(m.Cols, d.Str())
	}
	return m, d.Finish()
}

// ExecSummary is the execution's closing statistics, the remote
// projection of smoothscan.ExecStats: row count, fault-recovery
// counters, the degradation ladder taken, and plan-cache reuse.
type ExecSummary struct {
	Rows         int64
	Retries      int64
	FaultsSeen   int64
	PlanCacheHit bool
	Degraded     []string
	// IO is the execution's own I/O account on the server, so a remote
	// shard driver can surface per-shard IOStats exactly as an
	// in-process shard does (ExecStats.Shards, ssload balance
	// reporting).
	IO disk.Stats
	// Result-cache interaction of the execution, mirroring
	// smoothscan.ResultCacheExec: whether the server served the stream
	// from its result-cache tier (zero device I/O), the served entry's
	// accounted size, and its age in nanoseconds.
	ResultCacheHit   bool
	ResultCacheBytes int64
	ResultCacheAgeNs int64
}

// End completes the result stream: the query ran to its end, and
// Summary is its closing statistics.
type End struct {
	Summary ExecSummary
}

// Marshal serialises the message payload.
func (m End) Marshal() []byte {
	var e Encoder
	e.Varint(m.Summary.Rows)
	e.Varint(m.Summary.Retries)
	e.Varint(m.Summary.FaultsSeen)
	e.Bool(m.Summary.PlanCacheHit)
	e.Uvarint(uint64(len(m.Summary.Degraded)))
	for _, s := range m.Summary.Degraded {
		e.Str(s)
	}
	appendIOStats(&e, m.Summary.IO)
	e.Bool(m.Summary.ResultCacheHit)
	e.Varint(m.Summary.ResultCacheBytes)
	e.Varint(m.Summary.ResultCacheAgeNs)
	return e.B
}

// appendIOStats encodes a disk.Stats block field by field.
func appendIOStats(e *Encoder, st disk.Stats) {
	e.Varint(st.Requests)
	e.Varint(st.RandomAccesses)
	e.Varint(st.SeqAccesses)
	e.Varint(st.SkippedPages)
	e.Varint(st.PagesRead)
	e.Varint(st.PagesWritten)
	e.Varint(st.BytesRead)
	e.F64(st.IOTime)
	e.F64(st.CPUTime)
	e.Varint(st.Faults)
	e.Varint(st.Corruptions)
	e.Varint(st.LatencySpikes)
	e.Varint(st.Retries)
}

// decodeIOStats decodes the disk.Stats block appendIOStats writes.
func decodeIOStats(d *Decoder) disk.Stats {
	var st disk.Stats
	st.Requests = d.Varint()
	st.RandomAccesses = d.Varint()
	st.SeqAccesses = d.Varint()
	st.SkippedPages = d.Varint()
	st.PagesRead = d.Varint()
	st.PagesWritten = d.Varint()
	st.BytesRead = d.Varint()
	st.IOTime = d.F64()
	st.CPUTime = d.F64()
	st.Faults = d.Varint()
	st.Corruptions = d.Varint()
	st.LatencySpikes = d.Varint()
	st.Retries = d.Varint()
	return st
}

// DecodeEnd parses an End payload.
func DecodeEnd(p []byte) (End, error) {
	d := NewDecoder(p)
	var m End
	m.Summary.Rows = d.Varint()
	m.Summary.Retries = d.Varint()
	m.Summary.FaultsSeen = d.Varint()
	m.Summary.PlanCacheHit = d.Bool()
	n := d.Count(maxParams, "degraded")
	for i := 0; i < n && d.Err == nil; i++ {
		m.Summary.Degraded = append(m.Summary.Degraded, d.Str())
	}
	m.Summary.IO = decodeIOStats(d)
	m.Summary.ResultCacheHit = d.Bool()
	m.Summary.ResultCacheBytes = d.Varint()
	m.Summary.ResultCacheAgeNs = d.Varint()
	return m, d.Finish()
}

// ErrorMsg is the typed error frame.
type ErrorMsg struct {
	Class byte
	Msg   string
}

// Marshal serialises the message payload.
func (m ErrorMsg) Marshal() []byte {
	var e Encoder
	e.U8(m.Class)
	e.Str(m.Msg)
	return e.B
}

// DecodeError parses an Error payload.
func DecodeError(p []byte) (ErrorMsg, error) {
	d := NewDecoder(p)
	m := ErrorMsg{Class: d.U8(), Msg: d.Str()}
	return m, d.Finish()
}

// Err converts the frame to the client-side error value.
func (m ErrorMsg) Err() error { return &RemoteError{Class: m.Class, Msg: m.Msg} }

// ServerStats is the server's counter snapshot, served to clients via
// the Stats message — the wire-layer counterpart of ExecStats for
// whole-server observability.
type ServerStats struct {
	// SessionsOpen / SessionsTotal count live and lifetime sessions.
	SessionsOpen  int64
	SessionsTotal int64
	// ConnsRejected counts connections refused at the limit.
	ConnsRejected int64
	// Prepare requests answered across all sessions.
	StmtsPrepared int64
	// Query admission and completion.
	QueriesServed   int64 // streams that completed (End with summary)
	QueriesFailed   int64 // streams that ended in an Error frame
	QueriesRejected int64 // admission-control rejects (queue deadline)
	Cancels         int64 // Cancel messages honoured
	IdleCloses      int64 // sessions closed by the idle timeout
	// Result traffic.
	RowsSent    int64
	BatchesSent int64
	// Engine-side observability forwarded for remote harnesses: the
	// simulated-device time total and the DB plan-cache counters.
	DeviceSimCost   float64
	PlanCacheHits   int64
	PlanCacheMisses int64
	// Result-cache tier counters of the server's DB (zero when the
	// server runs with the tier disabled): lookup traffic, entries
	// dropped by write invalidation, and the tier's current footprint.
	ResultCacheHits        int64
	ResultCacheMisses      int64
	ResultCacheInvalidated int64
	ResultCacheEntries     int64
	ResultCacheBytes       int64
}

// Marshal serialises the message payload.
func (m ServerStats) Marshal() []byte {
	var e Encoder
	e.Varint(m.SessionsOpen)
	e.Varint(m.SessionsTotal)
	e.Varint(m.ConnsRejected)
	e.Varint(m.StmtsPrepared)
	e.Varint(m.QueriesServed)
	e.Varint(m.QueriesFailed)
	e.Varint(m.QueriesRejected)
	e.Varint(m.Cancels)
	e.Varint(m.IdleCloses)
	e.Varint(m.RowsSent)
	e.Varint(m.BatchesSent)
	e.F64(m.DeviceSimCost)
	e.Varint(m.PlanCacheHits)
	e.Varint(m.PlanCacheMisses)
	e.Varint(m.ResultCacheHits)
	e.Varint(m.ResultCacheMisses)
	e.Varint(m.ResultCacheInvalidated)
	e.Varint(m.ResultCacheEntries)
	e.Varint(m.ResultCacheBytes)
	return e.B
}

// DecodeServerStats parses a StatsReply payload.
func DecodeServerStats(p []byte) (ServerStats, error) {
	d := NewDecoder(p)
	var m ServerStats
	m.SessionsOpen = d.Varint()
	m.SessionsTotal = d.Varint()
	m.ConnsRejected = d.Varint()
	m.StmtsPrepared = d.Varint()
	m.QueriesServed = d.Varint()
	m.QueriesFailed = d.Varint()
	m.QueriesRejected = d.Varint()
	m.Cancels = d.Varint()
	m.IdleCloses = d.Varint()
	m.RowsSent = d.Varint()
	m.BatchesSent = d.Varint()
	m.DeviceSimCost = d.F64()
	m.PlanCacheHits = d.Varint()
	m.PlanCacheMisses = d.Varint()
	m.ResultCacheHits = d.Varint()
	m.ResultCacheMisses = d.Varint()
	m.ResultCacheInvalidated = d.Varint()
	m.ResultCacheEntries = d.Varint()
	m.ResultCacheBytes = d.Varint()
	return m, d.Finish()
}

// FaultRuleSpec is one fault-injection rule of a FaultCtl message; it
// always targets every space (the remote chaos harness's usage).
type FaultRuleSpec struct {
	Kind      byte // FaultTransient=0, FaultPermanent=1, FaultLatency=2, FaultCorrupt=3
	Rate      float64
	ExtraCost int64
}

// FaultCtl attaches a deterministic fault-injection policy to the
// server's device (admin operation, gated by server configuration).
// Empty Rules detaches any policy.
type FaultCtl struct {
	Seed  int64
	Rules []FaultRuleSpec
}

// Marshal serialises the message payload.
func (m FaultCtl) Marshal() []byte { return m.AppendTo(nil) }

// AppendTo appends the message payload to dst and returns the extended
// slice, as Execute.AppendTo does.
func (m FaultCtl) AppendTo(dst []byte) []byte {
	e := Encoder{B: dst}
	e.Varint(m.Seed)
	e.Uvarint(uint64(len(m.Rules)))
	for _, r := range m.Rules {
		e.U8(r.Kind)
		e.F64(r.Rate)
		e.Varint(r.ExtraCost)
	}
	return e.B
}

// DecodeFaultCtl parses a FaultCtl payload.
func DecodeFaultCtl(p []byte) (FaultCtl, error) {
	d := NewDecoder(p)
	var m FaultCtl
	m.Seed = d.Varint()
	n := d.Count(maxRules, "rule")
	m.Rules = make([]FaultRuleSpec, 0, n)
	for i := 0; i < n && d.Err == nil; i++ {
		m.Rules = append(m.Rules, FaultRuleSpec{Kind: d.U8(), Rate: d.F64(), ExtraCost: d.Varint()})
	}
	return m, d.Finish()
}

// TableSpec describes one table in a Catalog reply: name, column order,
// indexed columns, and the loaded row count — enough for a coordinator
// to mirror the remote schema and drive planning against it.
type TableSpec struct {
	Name    string
	Cols    []string
	Indexed []string
	Rows    int64
}

// CatalogReply answers a Catalog request with the server's tables.
type CatalogReply struct {
	Tables []TableSpec
}

// Marshal serialises the message payload.
func (m CatalogReply) Marshal() []byte {
	var e Encoder
	e.Uvarint(uint64(len(m.Tables)))
	for _, t := range m.Tables {
		e.Str(t.Name)
		e.Uvarint(uint64(len(t.Cols)))
		for _, c := range t.Cols {
			e.Str(c)
		}
		e.Uvarint(uint64(len(t.Indexed)))
		for _, c := range t.Indexed {
			e.Str(c)
		}
		e.Varint(t.Rows)
	}
	return e.B
}

// DecodeCatalogReply parses a CatalogReply payload.
func DecodeCatalogReply(p []byte) (CatalogReply, error) {
	d := NewDecoder(p)
	var m CatalogReply
	nt := d.Count(maxTables, "table")
	m.Tables = make([]TableSpec, 0, nt)
	for i := 0; i < nt && d.Err == nil; i++ {
		var t TableSpec
		t.Name = d.Str()
		nc := d.Count(maxSelCols, "col")
		t.Cols = make([]string, 0, nc)
		for j := 0; j < nc && d.Err == nil; j++ {
			t.Cols = append(t.Cols, d.Str())
		}
		ni := d.Count(maxSelCols, "indexed col")
		t.Indexed = make([]string, 0, ni)
		for j := 0; j < ni && d.Err == nil; j++ {
			t.Indexed = append(t.Indexed, d.Str())
		}
		t.Rows = d.Varint()
		m.Tables = append(m.Tables, t)
	}
	return m, d.Finish()
}

// DecodeMessage decodes any frame by type, returning the typed message
// struct. Frames with no payload structure (OK, Cancel, Stats) return
// nil. It is the single entry point the fuzz harness drives: whatever
// the bytes, the result is a value or an error — never a panic, never
// an allocation proportional to a forged length field.
func DecodeMessage(typ byte, payload []byte) (any, error) {
	switch typ {
	case MsgHello:
		return DecodeHello(payload)
	case MsgHelloOK:
		return DecodeHelloOK(payload)
	case MsgPrepare:
		return DecodePrepare(payload)
	case MsgPrepareOK:
		return DecodePrepareOK(payload)
	case MsgExecute:
		return DecodeExecute(payload)
	case MsgExecOK:
		return DecodeExecOK(payload)
	case MsgBatch:
		flat, rows, width, err := DecodeBatchPayload(payload, nil)
		if err != nil {
			return nil, err
		}
		return BatchFrame{Flat: flat, Rows: rows, Width: width}, nil
	case MsgEnd:
		return DecodeEnd(payload)
	case MsgError:
		return DecodeError(payload)
	case MsgOK, MsgCancel, MsgStats, MsgColdCache, MsgCatalog:
		if len(payload) != 0 {
			return nil, NewDecoder(payload).Finish()
		}
		return nil, nil
	case MsgStatsReply:
		return DecodeServerStats(payload)
	case MsgFaultCtl:
		return DecodeFaultCtl(payload)
	case MsgCatalogReply:
		return DecodeCatalogReply(payload)
	default:
		return nil, fmt.Errorf("%w: unknown message type %#02x", ErrMalformed, typ)
	}
}

// BatchFrame is DecodeMessage's materialisation of a Batch frame.
type BatchFrame struct {
	Flat  []int64
	Rows  int
	Width int
}
