package smoothscan

import (
	"context"
	"fmt"
	"slices"

	"smoothscan/internal/disk"
	"smoothscan/internal/optimizer"
	"smoothscan/internal/plan"
	"smoothscan/internal/wire"
)

// Fault injection.
//
// A FaultPolicy attached to a DB's device makes reads fail, slow down
// or return corrupted bytes according to deterministic seed-driven
// rules — the chaos harness behind the robustness experiments. Every
// decision is a pure hash of (seed, rule, space, page, attempt), so a
// schedule replays identically across runs and goroutine interleavings,
// which is what lets the property tests compare a faulty run against a
// fault-free oracle byte for byte.
//
// The engine's recovery layers, bottom up:
//
//   - the buffer pool retries transient read faults (including checksum
//     mismatches from corrupted payloads) up to bufferpool.MaxReadRetries
//     times, charging simulated backoff I/O time per retry;
//   - permanent faults are never retried; they surface to the planner,
//     which degrades the plan one step at a time — index-driven paths
//     (index, sort, switch) fall back to Smooth Scan, Smooth Scan falls
//     back to a full scan — re-opening the query after each step. A
//     step only edits one input's scan options in a copy of the
//     template and re-binds it (degradeOnFault); the bind phase
//     re-decides everything else, as it does for a fresh query;
//   - what cannot be recovered or degraded around surfaces as a typed
//     error from Run/Next/Err, never as a panic, with every worker
//     goroutine exited.
//
// Recovery is visible, not silent: ExecStats carries Retries, FaultsSeen
// and Degraded, and the Explain plan of a degraded Rows is annotated
// with each fallback taken.

// FaultPolicy is a deterministic fault-injection schedule (see
// disk.FaultPolicy). Attach one with DB.SetFaultPolicy.
type FaultPolicy = disk.FaultPolicy

// FaultRule scopes one kind of fault to a space and page range at a
// given rate.
type FaultRule = disk.FaultRule

// FaultKind selects what a matching rule injects.
type FaultKind = disk.FaultKind

// Fault kinds, re-exported from internal/disk.
const (
	// FaultTransient fails the read with ErrTransientFault; a retry
	// re-rolls the decision, so bounded retry recovers unless Rate is 1.
	FaultTransient = disk.FaultTransient
	// FaultPermanent fails the read with ErrPermanentFault on every
	// attempt; recovery happens by plan degradation, not retry.
	FaultPermanent = disk.FaultPermanent
	// FaultLatency lets the read succeed but charges ExtraCost extra
	// simulated I/O time (a latency spike, not an error).
	FaultLatency = disk.FaultLatency
	// FaultCorrupt returns a bit-flipped copy of the page; checksum
	// verification turns it into ErrPageCorrupt and a retry re-reads
	// the intact device page.
	FaultCorrupt = disk.FaultCorrupt
)

// SpaceID identifies a disk space (one table's heap or one index's
// run). Obtain concrete IDs from TableSpace and IndexSpace.
type SpaceID = disk.SpaceID

// AnySpace in a FaultRule matches every space.
const AnySpace = disk.AnySpace

// Typed fault errors, matchable with errors.Is through every layer.
var (
	// ErrTransientFault marks an injected transient read failure.
	ErrTransientFault = disk.ErrInjected
	// ErrPermanentFault marks an injected permanent read failure.
	ErrPermanentFault = disk.ErrPermanentFault
	// ErrPageCorrupt marks a page whose checksum did not verify.
	ErrPageCorrupt = disk.ErrPageCorrupt
)

// NewFaultPolicy builds a policy from a seed and rules. Rules are
// evaluated in order per page read; the first error-kind match wins,
// while latency and corruption effects accumulate.
func NewFaultPolicy(seed int64, rules ...FaultRule) *FaultPolicy {
	return disk.NewFaultPolicy(seed, rules...)
}

// IsFaultError reports whether err (or anything it wraps) is an
// injected fault or a checksum failure — the error class the planner
// degrades around.
func IsFaultError(err error) bool { return disk.IsFault(err) }

// IsTransientFault reports whether err is a retryable injected fault —
// a transient failure or a detected corruption, but not a permanent
// fault. Clients that re-run failed queries (application-level retry
// above the engine's own bounded page retry) should gate on this: a
// transient schedule re-rolls per attempt, so a fresh run can succeed,
// while retrying a permanent fault fails identically every time.
func IsTransientFault(err error) bool { return disk.IsTransient(err) }

// SetFaultPolicy attaches a fault policy to the database's device, or
// detaches it when p is nil. With no policy attached every fault path
// is dormant: reads skip checksum verification and retry entirely, and
// the fault counters in IOStats stay zero.
//
// Attaching a policy while scans are open affects their subsequent
// reads; for reproducible schedules attach the policy before starting
// the query.
func (db *DB) SetFaultPolicy(p *FaultPolicy) { db.dev.SetFaultPolicy(p) }

// FaultPolicyAttached returns the currently attached policy, or nil.
func (db *DB) FaultPolicyAttached() *FaultPolicy { return db.dev.FaultPolicy() }

// TableSpace returns the disk space holding the named table's heap
// pages, for targeting FaultRules.
func (db *DB) TableSpace(name string) (SpaceID, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoTable, name)
	}
	return t.File.Space(), nil
}

// IndexSpace returns the disk space holding the named table's index on
// col, for targeting FaultRules.
func (db *DB) IndexSpace(tableName, col string) (SpaceID, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[tableName]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoTable, tableName)
	}
	tree, ok := t.Indexes[col]
	if !ok {
		return 0, fmt.Errorf("%w: %q.%q", ErrNoIndex, tableName, col)
	}
	return tree.Space(), nil
}

// degradeOnFault re-binds the query one step further down the
// degradation ladder, or returns nil when nothing is left to degrade.
// A step edits one input's scan options, in their wire form; the
// ladder, in order:
//
//  1. an index-driven path (index, sort, switch) falls back to Smooth
//     Scan — same index, but morphing tolerates regions of the heap
//     being re-read: Path = PathSmooth;
//  2. Smooth Scan falls back to a full heap scan, which touches no
//     index space at all: Path = PathFull, Ordered = false.
//
// A parallel full scan is never stepped down to serial: its serial
// form reads the same heap pages, and a permanent fault fails the same
// page on every attempt. The binder then re-decides everything else
// exactly as for a fresh query — residual pushdown, scan order, merge
// or hash join and build side, whether ORDER BY needs a posterior
// sort, the full scan's parallelism — so each step keeps the query's
// result contract. Step 2 passes over only the driving table of a
// join-free query whose Ordered option defines the result order with
// no ORDER BY sort to restore it. The caller loops: a
// degraded plan that still hits the fault degrades again, so
// multi-input queries converge even when the ladder picks a healthy
// input first. The caller holds db.mu (read).
func (db *DB) degradeOnFault(cq *compiledQuery) (*compiledQuery, error) {
	if cq.EmptyWhy != "" {
		return nil, nil
	}
	for i := range cq.Inputs {
		switch p := cq.Inputs[i].Spec.Path; p {
		case plan.PathIndex, plan.PathSort, plan.PathSwitch:
			o := cq.Template.Inputs[i].Opts
			o.Path = byte(PathSmooth)
			return db.rebind(cq, i, o, fmt.Sprintf("%s: %s scan -> smooth scan (fault)", cq.Inputs[i].Table, publicPath(p)))
		}
	}
	for i := range cq.Inputs {
		o := cq.Template.Inputs[i].Opts
		if cq.Inputs[i].Spec.Path != plan.PathSmooth || len(cq.Joins) == 0 && o.Ordered && cq.OrderVia != "scan" {
			continue
		}
		o.Path, o.Ordered = byte(PathFull), false
		return db.rebind(cq, i, o, fmt.Sprintf("%s: smooth scan -> full scan (fault)", cq.Inputs[i].Table))
	}
	return nil, nil
}

// rebind binds a copy of cq's template with input i's options replaced
// by o, under the constants cq was bound with. The degradation notes
// are what the binder decided differently — ORDER BY losing its scan
// order, a join changing algorithm — followed by the step's own note.
func (db *DB) rebind(cq *compiledQuery, i int, o wire.OptsSpec, note string) (*compiledQuery, error) {
	pt := *cq.Template
	pt.Inputs = slices.Clone(pt.Inputs)
	pt.Inputs[i].Opts = o
	next := &compiledQuery{planCached: cq.planCached, annotate: cq.annotate, degraded: slices.Clone(cq.degraded)}
	var err error
	if next.Bound, err = optimizer.Bind(db.dev, db.planTable, &pt, cq.Lits, cq.Vals); err != nil {
		return nil, err
	}
	if cq.OrderVia == "scan" && next.SortIdx >= 0 {
		next.degraded = append(next.degraded,
			fmt.Sprintf("order by %s: scan order -> posterior sort (fault)", pt.OrderName))
	}
	for k, st := range cq.Joins {
		if algo := next.Joins[k].Algo; algo != st.Algo {
			jt := &pt.Joins[k]
			next.degraded = append(next.degraded,
				fmt.Sprintf("%s=%s: %s join -> %s join (fault)", jt.LeftName, jt.RightName, st.Algo, algo))
		}
	}
	next.degraded = append(next.degraded, note)
	return next, nil
}

// degradeAndReopen walks the degradation ladder from execution l until
// a plan opens cleanly, returning the degraded execution with its tree
// opened. Every rebuilt tree reads through l's pool view, so the I/O
// burned by failed attempts stays in the query's account. When the
// ladder is exhausted (or a step fails with a non-fault error) it
// returns the last error; the caller reports that to the user. The
// caller holds db.mu (read).
func (db *DB) degradeAndReopen(ctx context.Context, l *localExec, cause error) (*localExec, error) {
	err := cause
	for IsFaultError(err) {
		cq, berr := db.degradeOnFault(l.cq)
		if berr != nil {
			return nil, berr
		}
		if cq == nil {
			return nil, err
		}
		l = &localExec{db: db, cq: cq, pool: l.pool}
		if berr := l.build(ctx); berr != nil {
			return nil, berr
		}
		if err = l.root.Open(); err == nil {
			return l, nil
		}
	}
	return nil, err
}

// degrade attempts mid-stream recovery after a fault surfaced from
// NextBatch (the Rows only asks before any row has been delivered —
// afterwards a restart would replay rows): for fault-classed errors
// the Rows transparently switches to the degraded plan's operator tree
// and reports the fallbacks via ExecStats.Degraded.
func (l *localExec) degrade(r *Rows, err error) bool {
	if !IsFaultError(err) {
		return false
	}
	l.db.mu.RLock()
	defer l.db.mu.RUnlock()
	next, derr := l.db.degradeAndReopen(r.ctx, l, err)
	if derr != nil {
		return false
	}
	// The failed tree is closed only after its replacement opened, so a
	// failure above leaves the Rows exactly as it was (Close still
	// closes the original operator once).
	_ = r.op.Close()
	r.run, r.op, r.counters = next, next.root, next.counters
	r.plan = nil // re-render: the plan now carries degradation notes
	return true
}
