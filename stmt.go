package smoothscan

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
)

// ErrUnboundParam is returned (wrapped) when a query references a
// Param that the execution does not bind: running a parameterized
// query ad hoc, or calling Stmt.Run / Stmt.Explain with a Bind set
// that misses one of the statement's parameters.
var ErrUnboundParam = errors.New("smoothscan: parameter not bound")

// ErrUnknownParam is returned (wrapped) when a Bind set names a
// parameter the prepared statement does not have — almost always a
// typo, so it is an error rather than silently ignored.
var ErrUnknownParam = errors.New("smoothscan: bind names unknown parameter")

// Bind maps parameter names to the values of one execution. The same
// parameter may appear at several places in the query; it binds once.
type Bind map[string]int64

// Stmt is a prepared statement: the compile-once half of the
// prepare → bind → execute query lifecycle. DB.Prepare validates the
// query's structure — tables, columns, join tree, projection — and
// compiles it into an immutable plan template exactly once; each Run
// or Explain then performs only the cheap bind phase: substitute the
// Bind values and re-decide the estimate-sensitive choices (driving
// index among the indexed conjuncts, access path under PathAuto,
// hash-join build side and hash-vs-merge selection, parallelism clamp)
// from the tables' statistics at that moment, with zero device I/O.
// Two bind sets can therefore execute the same Stmt with different
// driving indexes — the paper's statistics-robustness argument applied
// at the API layer.
//
// A Stmt is immutable and safe for concurrent use: any number of
// goroutines may Run it simultaneously, each getting an independent
// Rows. It needs no Close and holds no device or pool state.
type Stmt struct {
	db     *DB
	qt     *qtemplate
	lits   []int64
	params []string
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
func (db *DB) Prepare(q *Query) (*Stmt, error) {
	if q == nil || q.eng == nil {
		return nil, fmt.Errorf("smoothscan: Prepare of a nil or detached query")
	}
	if q.eng != queryEngine(db) {
		return nil, fmt.Errorf("smoothscan: Prepare of a query built on a different DB")
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	qt, lits, _, err := db.templateFor(q)
	if err != nil {
		return nil, err
	}
	return &Stmt{db: db, qt: qt, lits: lits, params: qt.pt.Params}, nil
}

// Params returns the statement's parameter names in first-use order.
func (s *Stmt) Params() []string {
	return append([]string(nil), s.params...)
}

// checkBind rejects bind sets naming parameters the statement does
// not have.
func (s *Stmt) checkBind(b Bind) error {
	var unknown []string
	for name := range b {
		if !s.qt.pt.HasParam(name) {
			unknown = append(unknown, "$"+name)
		}
	}
	if len(unknown) == 0 {
		return nil
	}
	sort.Strings(unknown)
	return fmt.Errorf("%w: %s (statement has %s)", ErrUnknownParam,
		strings.Join(unknown, ", "), s.describeParams())
}

func (s *Stmt) describeParams() string {
	if len(s.params) == 0 {
		return "no parameters"
	}
	return "$" + strings.Join(s.params, ", $")
}

// Run binds the parameters and executes the statement. Binding is the
// cheap phase — constants substituted, estimate-sensitive plan choices
// re-decided, no template recompilation, no device access — and the
// execution is value-for-value identical to running the equivalent
// literal query ad hoc. Missing parameters return ErrUnboundParam,
// extra ones ErrUnknownParam.
//
// Run is safe to call from many goroutines at once; as with Query.Run,
// always Close the returned Rows.
func (s *Stmt) Run(ctx context.Context, b Bind) (*Rows, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := s.checkBind(b); err != nil {
		return nil, err
	}
	s.db.mu.RLock()
	defer s.db.mu.RUnlock()
	cq, err := s.db.bindTemplate(s.qt, s.lits, b, true)
	if err != nil {
		return nil, err
	}
	cq.planCached = true
	return s.db.startRows(ctx, cq)
}

// Explain binds the parameters and returns the plan this execution
// would run, without touching the device — the same tree Query.Explain
// renders, annotated with the bound values ("bind: $lo=…") and the
// estimate-sensitive decisions the bind phase re-made ("re-planned at
// bind: …"). Parameter-fed predicate bounds render as $name markers in
// the plan details.
func (s *Stmt) Explain(b Bind) (*Plan, error) {
	if err := s.checkBind(b); err != nil {
		return nil, err
	}
	s.db.mu.RLock()
	defer s.db.mu.RUnlock()
	cq, err := s.db.bindTemplate(s.qt, s.lits, b, true)
	if err != nil {
		return nil, err
	}
	return cq.plan(), nil
}

// Close releases the statement. An in-process statement holds no
// resources beyond its compiled template, so Close is a no-op; it
// exists so code written against the Engine interface — where a remote
// statement does hold a server-side handle — can treat every
// PreparedQuery uniformly.
func (s *Stmt) Close() error { return nil }
