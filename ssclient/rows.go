package ssclient

import (
	"smoothscan"
	"smoothscan/internal/client"
)

// Rows iterates a remote result stream. It mirrors the embedded
// smoothscan.Rows iterator (Next/Row/Col/Err/Close) over the wire's
// pull cursor: rows arrive in column-encoded batches, a fetch window
// at a time, so the server never runs unboundedly ahead of the
// consumer. The embedded transport stream contributes Columns, Next,
// Row, CopyRow, Col, Err, Summary and Close. Row is a view into the
// decoded batch, valid until the next Next or Close; CopyRow is how a
// caller retains a row.
//
// A Rows is owned by a single goroutine, and its Conn can serve no
// other request until the stream is drained or closed. Close is safe
// at any point — mid-stream it cancels the server-side query (parallel
// scan workers exit promptly) — and safe after a server disconnect: a
// stream the server can no longer serve is simply over.
type Rows struct {
	*client.Rows
}

// ExecStats returns the execution's statistics in the engine's shape,
// populated once the stream has been fully drained (before that the
// server has not sent its summary and the zero value returns). The
// fields a remote execution cannot observe — operator and worker
// breakdowns, smooth-scan morph state — stay zero; I/O, row count,
// plan-cache reuse, retry and fault counters, and the degradation
// ladder all survive the wire.
func (r *Rows) ExecStats() smoothscan.ExecStats {
	sum, _ := r.Summary()
	return smoothscan.SummaryStats(sum)
}
