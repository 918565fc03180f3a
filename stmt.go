package smoothscan

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"smoothscan/internal/plan"
	"smoothscan/internal/wire"
)

// ErrUnboundParam is returned (wrapped) when a query references a
// Param that the execution does not bind: running a parameterized
// query ad hoc, or calling Stmt.Run / Stmt.Explain with a Bind set
// that misses one of the statement's parameters.
var ErrUnboundParam = wire.ErrUnboundParam

// ErrUnknownParam is returned (wrapped) when a Bind set names a
// parameter the prepared statement does not have — almost always a
// typo, so it is an error rather than silently ignored.
var ErrUnknownParam = wire.ErrUnknownParam

// Bind maps parameter names to the values of one execution. The same
// parameter may appear at several places in the query; it binds once.
type Bind map[string]int64

// Stmt is a prepared statement: the compile-once half of the
// prepare → bind → execute query lifecycle. Prepare (DB.Prepare or
// ShardedDB.Prepare) validates the query's structure — tables, columns,
// join tree, projection — and compiles it into an immutable plan
// template exactly once; each Run or Explain then performs only the
// cheap bind phase: substitute the Bind values and re-decide the
// estimate-sensitive choices (driving index among the indexed
// conjuncts, access path under PathAuto, hash-join build side and
// hash-vs-merge selection, parallelism clamp) from the tables'
// statistics at that moment, with zero device I/O. Two bind sets can
// therefore execute the same Stmt with different driving indexes — the
// paper's statistics-robustness argument applied at the API layer.
//
// An ad-hoc Query.Run is the same execution: the run of an unnamed
// statement whose template comes from the plan cache and whose bind is
// nil. Query.Run, Stmt.Run and DB.ExecuteSpec share one bind-and-run
// path on every engine, which is why a Stmt's rows, errors and
// result-cache entries are those of its literal twin.
//
// On a sharded engine every Run binds the coordinator's template, which
// re-prunes the shard set from the bound predicate values — so the same
// statement can touch one shard for a narrow bind and all of them for a
// wide one — and each active shard runs the query with the bind
// substituted, re-planning its slice through its own plan cache.
//
// On a Conn, the statement is its query's spec: every Run ships it with
// the bind, and the server binds it through its own plan cache.
//
// A Stmt on a DB or ShardedDB is safe for concurrent use: any number
// of goroutines may Run it simultaneously, each getting an independent
// Rows (a Conn runs one stream at a time). It holds no
// device, pool or server state, so Close releases nothing; it only
// makes later Runs fail.
type Stmt struct {
	eng    queryEngine
	pt     *plan.Template // nil on a Conn
	lits   []int64
	params []string
	// q is the query as prepared, on a sharded engine and a Conn: bound
	// per execution into the literal query the shards run, or shipped
	// with the bind.
	q      *Query
	closed atomic.Bool
}

// statement is what an engine binds and runs: a query and the Stmt it
// was prepared into. Query.Run and Query.Explain pass an unnamed
// statement, stmt nil, whose template the engine takes from its plan
// cache; it is the same bind as a Stmt's, with no binds. A statement is
// two pointers and travels by value, so an unnamed one costs no
// allocation. The prepared template stays behind the Stmt pointer:
// escape analysis does not tell a struct's fields apart, so a template
// pointer beside q would make every bind move q to the heap.
type statement struct {
	q    *Query
	stmt *Stmt
}

// prepareOn is Prepare on every engine: refuse a query the engine does
// not own, then compile.
func prepareOn(eng queryEngine, q *Query) (*Stmt, error) {
	if q == nil || q.eng != eng {
		return nil, errors.New("smoothscan: Prepare of a query that was not built on this engine (nil or another engine's)")
	}
	return eng.prepare(q)
}

// Prepare validates and compiles the query's structure into a
// reusable plan template. Structural mistakes — unknown tables or
// columns, ambiguous conjuncts, bad argument types — surface here;
// index availability and everything estimate-sensitive are re-checked
// at every bind, so a statement prepared before a CreateIndex or
// Analyze picks the improvement up on its next Run.
//
// The template is also registered in the DB-wide plan cache under the
// query's canonical shape, so ad-hoc runs of the same shape hit it.
func (db *DB) Prepare(q *Query) (*Stmt, error) { return prepareOn(db, q) }

func (db *DB) prepare(q *Query) (*Stmt, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	pt, lits, _, err := db.templateFor(q)
	if err != nil {
		return nil, err
	}
	return &Stmt{eng: db, pt: pt, lits: lits, params: pt.Params}, nil
}

// Params returns the statement's parameter names in first-use order.
func (s *Stmt) Params() []string {
	return append([]string(nil), s.params...)
}

// checkBind rejects bind sets naming parameters the template does not
// have.
func checkBind(pt *plan.Template, b Bind) error {
	var unknown []string
	for name := range b {
		if !slices.Contains(pt.Params, name) {
			unknown = append(unknown, "$"+name)
		}
	}
	if len(unknown) == 0 {
		return nil
	}
	sort.Strings(unknown)
	have := "no parameters"
	if ps := pt.Params; len(ps) > 0 {
		have = "$" + strings.Join(ps, ", $")
	}
	return fmt.Errorf("%w: %s (statement has %s)", ErrUnknownParam, strings.Join(unknown, ", "), have)
}

// Run binds the parameters and executes the statement. Binding is the
// cheap phase — constants substituted, estimate-sensitive plan choices
// re-decided (on a sharded engine: the shard set re-pruned), no
// template recompilation, no device access — and the execution is
// value-for-value identical to running the equivalent literal query ad
// hoc; the two also share result-cache entries. Missing parameters
// return ErrUnboundParam, extra ones ErrUnknownParam.
//
// Run is safe to call from many goroutines at once; as with Query.Run,
// always Close the returned Rows. After Close it fails.
func (s *Stmt) Run(ctx context.Context, b Bind) (*Rows, error) {
	if s.closed.Load() {
		return nil, errStmtClosed
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return s.eng.run(ctx, statement{q: s.q, stmt: s}, b)
}

// errStmtClosed is what Stmt.Run returns after Close.
var errStmtClosed = errors.New("smoothscan: Run on a closed Stmt")

// Explain binds the parameters and returns the plan this execution
// would run, without touching the device — the same tree Query.Explain
// renders, annotated with the bound values ("bind: $lo=…") and the
// estimate-sensitive decisions the bind phase re-made ("re-planned at
// bind: …"). Parameter-fed predicate bounds render as $name markers in
// the plan details.
func (s *Stmt) Explain(b Bind) (*Plan, error) { return s.eng.explain(statement{q: s.q, stmt: s}, b) }

// Close marks the statement closed; later Runs fail. A statement holds
// nothing to release, so Close is idempotent and never fails.
func (s *Stmt) Close() error {
	s.closed.Store(true)
	return nil
}
