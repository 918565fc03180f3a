package smoothscan

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"smoothscan/internal/disk"
	"smoothscan/internal/exec"
	"smoothscan/internal/optimizer"
	"smoothscan/internal/parallel"
	"smoothscan/internal/plan"
	"smoothscan/internal/rescache"
	"smoothscan/internal/shard"
	"smoothscan/internal/tuple"
	"smoothscan/internal/wire"
)

// Partitioning describes how a sharded table's rows distribute across
// the shard set: the partition column, a Hash or Range scheme, and the
// shard count. Build one with HashPartitioning or RangePartitioning.
type Partitioning = shard.Partitioning

// HashPartitioning splits a table across n shards by a full-avalanche
// hash of the named column — balanced under any insert order, but
// range predicates wider than a few values fan out to every shard.
func HashPartitioning(column string, n int) Partitioning {
	return Partitioning{Column: column, Scheme: shard.Hash, N: n}
}

// RangePartitioning splits a table by contiguous value ranges of the
// named column: shard 0 owns (-inf, bounds[0]), shard i owns
// [bounds[i-1], bounds[i]), the last shard owns [bounds[n-2], +inf).
// Range predicates on the column prune to the owning shards.
func RangePartitioning(column string, bounds ...int64) Partitioning {
	return Partitioning{Column: column, Scheme: shard.Range, N: len(bounds) + 1, Bounds: bounds}
}

// EqualWidthBounds computes n-1 split points dividing [lo, hi) into n
// near-equal ranges, for RangePartitioning over uniform domains.
func EqualWidthBounds(lo, hi int64, n int) []int64 { return shard.EqualWidthBounds(lo, hi, n) }

// ErrNotSharded is returned (wrapped) when a sharded query touches a
// table that was not created through CreateShardedTable — the planner
// has no Partitioning to route or prune by.
var ErrNotSharded = errors.New("smoothscan: table is not sharded")

// ErrShardJoin is returned when a join cannot execute under sharding:
// more than one join stage where the inputs are not co-partitioned on
// the join keys (a single non-co-partitioned join broadcasts the
// smaller side instead).
var ErrShardJoin = errors.New("smoothscan: join cannot be sharded")

// ShardedDB presents N in-process DB shards behind the one-database
// query API: tables are horizontally partitioned at load time, queries
// scatter to the owning shards (each shard planning — and morphing —
// its access path independently) and gather through an unordered
// fan-in or a k-way ordered merge. With N=1 every query executes
// byte-identically to the unsharded engine, which is what the
// equivalence suite pins.
//
// Concurrency follows DB: any number of queries may run concurrently;
// a Rows is owned by one goroutine.
type ShardedDB struct {
	// shards holds each shard's planning DB: the shard's own embedded
	// engine for in-process topologies, a schema-only catalog mirror
	// for remote ones. The coordinator compiles, prunes and explains
	// against these; drivers decide where execution actually happens.
	shards []*DB
	// drivers execute the per-shard slices, one per shard.
	drivers []shardDriver
	// remote marks a topology opened with OpenShardedRemote: shards
	// are schema-only mirrors, data lives on the nodes, and load-time
	// mutators are refused.
	remote bool
	// resCache is the coordinator-level result-cache tier: repeated
	// sharded queries are served above scatter-gather with zero shard
	// traffic. nil when Options.ResultCacheBytes leaves the tier
	// disabled. See "Coordinator-level result caching" below.
	resCache *rescache.Cache
	mu       sync.RWMutex // guards parts
	parts    map[string]shard.Partitioning
}

// errRemoteMutation explains a refused load-time mutator on a remote
// topology.
func errRemoteMutation(op string) error {
	return fmt.Errorf("smoothscan: %s on a remote sharded database (load data on the shard nodes; the coordinator's catalog is read-only)", op)
}

// OpenSharded creates n empty shards, each on its own fresh simulated
// device with its own buffer pool and plan cache (opts applies to
// every shard; PoolPages is per shard).
func OpenSharded(n int, opts Options) (*ShardedDB, error) {
	if n < 1 {
		return nil, fmt.Errorf("smoothscan: shard count %d (want >= 1)", n)
	}
	s := &ShardedDB{parts: map[string]shard.Partitioning{}, resCache: rescache.New(opts.ResultCacheBytes, 0)}
	for i := 0; i < n; i++ {
		db, err := Open(opts)
		if err != nil {
			return nil, err
		}
		s.shards = append(s.shards, db)
		s.drivers = append(s.drivers, &localDriver{})
	}
	return s, nil
}

// NumShards returns the shard count.
func (s *ShardedDB) NumShards() int { return len(s.shards) }

// Close releases every shard driver. In-process shards hold no
// external resources (Close is then a no-op); remote shards close
// their server connections. The database is unusable afterwards.
func (s *ShardedDB) Close() error {
	var first error
	for _, d := range s.drivers {
		if err := d.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Shard returns the i-th underlying DB — for per-shard inspection
// (stats, fault injection) in tests and tools.
func (s *ShardedDB) Shard(i int) *DB { return s.shards[i] }

// Partitioning returns the named table's partitioning.
func (s *ShardedDB) Partitioning(table string) (Partitioning, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p, ok := s.parts[table]
	if !ok {
		return Partitioning{}, fmt.Errorf("%w: %q", ErrNotSharded, table)
	}
	return p, nil
}

// ShardedTableBuilder loads rows into a sharded table, routing each
// row to its owning shard by the partition column.
type ShardedTableBuilder struct {
	builders []*TableBuilder
	colIdx   int
	part     shard.Partitioning
}

// CreateShardedTable creates the table on every shard and registers
// its partitioning. The partitioning's shard count must equal the
// database's, and its column must be one of the table's columns.
func (s *ShardedDB) CreateShardedTable(name string, p Partitioning, columns ...string) (*ShardedTableBuilder, error) {
	if s.remote {
		return nil, errRemoteMutation("CreateShardedTable")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.N != len(s.shards) {
		return nil, fmt.Errorf("smoothscan: partitioning over %d shards on a %d-shard database", p.N, len(s.shards))
	}
	colIdx := -1
	for i, c := range columns {
		if c == p.Column {
			colIdx = i
		}
	}
	if colIdx < 0 {
		return nil, fmt.Errorf("smoothscan: partition column %q is not among the table's columns", p.Column)
	}
	builders := make([]*TableBuilder, len(s.shards))
	for i, db := range s.shards {
		tb, err := db.CreateTable(name, columns...)
		if err != nil {
			return nil, err
		}
		builders[i] = tb
	}
	s.mu.Lock()
	s.parts[name] = p
	s.mu.Unlock()
	return &ShardedTableBuilder{builders: builders, colIdx: colIdx, part: p}, nil
}

// Append routes one row to its owning shard.
func (b *ShardedTableBuilder) Append(vals ...int64) error {
	if len(vals) != 0 && b.colIdx >= len(vals) {
		return fmt.Errorf("smoothscan: %d values, partition column at %d", len(vals), b.colIdx)
	}
	if len(vals) == 0 {
		return fmt.Errorf("smoothscan: empty row")
	}
	return b.builders[b.part.Route(vals[b.colIdx])].Append(vals...)
}

// Finish flushes the load on every shard.
func (b *ShardedTableBuilder) Finish() error {
	for _, tb := range b.builders {
		if err := tb.Finish(); err != nil {
			return err
		}
	}
	return nil
}

// CreateIndex builds the index on every shard.
func (s *ShardedDB) CreateIndex(table, column string) error {
	if s.remote {
		return errRemoteMutation("CreateIndex")
	}
	for _, db := range s.shards {
		if err := db.CreateIndex(table, column); err != nil {
			return err
		}
	}
	return nil
}

// Analyze collects statistics on every shard — each shard's optimizer
// sees its own local histograms, so access paths can differ per shard.
func (s *ShardedDB) Analyze(table string, columns ...string) error {
	if s.remote {
		return errRemoteMutation("Analyze")
	}
	for _, db := range s.shards {
		if err := db.Analyze(table, columns...); err != nil {
			return err
		}
	}
	return nil
}

// Insert routes one row to its owning shard.
func (s *ShardedDB) Insert(table string, vals ...int64) error {
	if s.remote {
		return errRemoteMutation("Insert")
	}
	s.mu.RLock()
	p, ok := s.parts[table]
	s.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotSharded, table)
	}
	t, err := s.shards[0].table(table)
	if err != nil {
		return err
	}
	col := t.File.Schema().ColIndex(p.Column)
	if col < 0 || col >= len(vals) {
		return fmt.Errorf("smoothscan: %d values for table %q", len(vals), table)
	}
	return s.shards[p.Route(vals[col])].Insert(table, vals...)
}

// Compact compacts every shard's indexes on the table.
func (s *ShardedDB) Compact(table string) error {
	if s.remote {
		return errRemoteMutation("Compact")
	}
	for _, db := range s.shards {
		if err := db.Compact(table); err != nil {
			return err
		}
	}
	return nil
}

// NumRows sums the table's row count across shards. On a remote
// topology the counts are the nodes' catalog snapshots from open time.
func (s *ShardedDB) NumRows(table string) (int64, error) {
	counts, err := s.ShardRows(table)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, n := range counts {
		total += n
	}
	return total, nil
}

// ShardRows returns the per-shard row counts of a table, in shard
// order — the load balance ssload reports. On a remote topology the
// counts come from each node's catalog snapshot (the planning mirrors
// hold no rows).
func (s *ShardedDB) ShardRows(table string) ([]int64, error) {
	out := make([]int64, len(s.shards))
	for i, db := range s.shards {
		if rd, ok := s.drivers[i].(*remoteDriver); ok {
			n, known := rd.rows[table]
			if !known {
				return nil, fmt.Errorf("smoothscan: unknown table %q", table)
			}
			out[i] = n
			continue
		}
		n, err := db.NumRows(table)
		if err != nil {
			return nil, err
		}
		out[i] = n
	}
	return out, nil
}

// ColdCache empties every shard's buffer pool and purges the
// coordinator's result-cache tier (each shard purges its own tier
// inside DB.ColdCache). On a remote topology the request is forwarded
// to each node (the server must run with fault administration enabled,
// as for Conn.ColdCache).
func (s *ShardedDB) ColdCache() error {
	s.resCache.Purge()
	for i, db := range s.shards {
		if rd, ok := s.drivers[i].(*remoteDriver); ok {
			if err := rd.coldCache(); err != nil {
				return err
			}
			continue
		}
		if err := db.ColdCache(); err != nil {
			return err
		}
	}
	return nil
}

// Query starts a composable query over the named sharded table — the
// one Query builder, bound to the scatter-gather engine.
func (s *ShardedDB) Query(table string) *Query {
	return &Query{eng: s, spec: wire.QuerySpec{Table: table}}
}

// clone deep-copies the builder state (a statement prepared on a
// sharded engine or a Conn must not alias slices the caller keeps
// appending to).
func (q *Query) clone() *Query {
	cp := *q
	cp.spec.Preds = append([]wire.PredSpec(nil), q.spec.Preds...)
	cp.spec.Joins = append([]wire.JoinSpec(nil), q.spec.Joins...)
	cp.spec.Select = append([]string(nil), q.spec.Select...)
	cp.spec.Aggs = append([]wire.AggSpec(nil), q.spec.Aggs...)
	return &cp
}

// bound returns the query with every parameter replaced by its value
// in b: the literal query the shards of a sharded Stmt's execution run.
// The coordinator's own binding has already rejected a missing
// parameter.
func (q *Query) bound(b Bind) *Query {
	arg := func(a wire.ArgSpec) wire.ArgSpec {
		if a.Param != "" {
			return wire.ArgSpec{Lit: b[a.Param]}
		}
		return a
	}
	cp := *q
	cp.spec.Preds = make([]wire.PredSpec, len(q.spec.Preds))
	for i, p := range q.spec.Preds {
		p.A, p.B = arg(p.A), arg(p.B)
		cp.spec.Preds[i] = p
	}
	cp.spec.Limit = arg(q.spec.Limit)
	return &cp
}

// perShardQuery is the query each shard runs under the scan and
// partition-wise strategies: the query itself, re-bound to the shard.
// Aggregate queries drop OrderBy and Limit — shards emit partial
// groups, and ordering/limiting only make sense after the coordinator
// merges them; everything else (including OrderBy and a pushed Limit)
// runs as-is per shard.
func (q *Query) perShardQuery(db *DB) *Query {
	cp := *q
	cp.eng = db
	if cp.spec.HasAgg {
		cp.spec.OrderCol, cp.spec.HasOrd = "", false
		cp.spec.Limit, cp.spec.HasLim = wire.ArgSpec{}, false
	}
	return &cp
}

// sideQuery builds the single-table query for one side of a broadcast
// join: that table, the Where conjuncts on its columns (BuildTemplate
// has rejected a column two inputs share), its ScanOptions — no
// projection, ordering or limit (those happen above the join).
func (q *Query) sideQuery(db *DB, input int, pt *plan.Template) *Query {
	side := &Query{eng: db, err: q.err, spec: wire.QuerySpec{Table: pt.Inputs[input].Table, Opts: q.spec.Opts}}
	if input > 0 {
		side.spec.Opts = q.spec.Joins[input-1].Opts
	}
	for _, c := range q.spec.Preds {
		if pt.Inputs[input].Schema.ColIndex(c.Col) >= 0 {
			side.spec.Preds = append(side.spec.Preds, c)
		}
	}
	return side
}

// mergeSpecs derives the coordinator's merge aggregates from the
// per-shard partials: partial COUNTs sum, SUM/MIN/MAX merge with
// their own function. Input column i+1 is aggregate i of the partial
// row (column 0 is the group key).
func mergeSpecs(specs []exec.AggSpec) []exec.AggSpec {
	out := make([]exec.AggSpec, len(specs))
	for i, sp := range specs {
		kind := sp.Kind
		if kind == exec.AggCount {
			kind = exec.AggSum
		}
		out[i] = exec.AggSpec{Name: sp.Name, Col: i + 1, Kind: kind}
	}
	return out
}

// Scatter-gather strategies.
const (
	strategyScan      = "scan"           // no joins: every shard scans its slice
	strategyPartition = "partition-wise" // co-partitioned joins: shard i joins shard i
	strategyBroadcast = "broadcast"      // one join, smaller side replicated to every shard
)

// shardExec is one scatter-gather execution. Compiled: which shards
// run, why the others don't, what each worker produces, and the
// coordinator stages above the gather. Started: the gather tree and
// what the Rows over it needs at Close and for ExecStats — it is the
// sharded implementation of the Rows' execution seam. One is built per
// Run/Explain and never shared.
type shardExec struct {
	s        *ShardedDB
	pt       *plan.Template
	cq0      *compiledQuery // the whole query bound on shard 0
	part     shard.Partitioning
	strategy string

	// q is the literal query the shards derive theirs from (shardQuery):
	// an ad-hoc query as written, a Stmt's query with its bind
	// substituted. planCached: the coordinator template was reused.
	q          *Query
	planCached bool

	active    []int    // shard indexes that run, ascending
	prunedWhy []string // per shard; "" for active shards

	// Broadcast-join configuration (strategyBroadcast only).
	bcInput   int // the replicated side (0 or 1)
	scanInput int
	bcActive  []int // broadcast-side shards to read

	gatherSchema *tuple.Schema
	ordered      bool
	keyCol       int

	// coord is the stage list above the gather: cq0's own, minus what
	// the shards already did beneath it (see compileShardExec).
	coord stages

	emptyWhy string

	// Execution state, filled by ShardedDB.run.
	root     exec.Operator
	counters []*opCounter
	adapters []*shardRowsOp
	sides    []*shardRowsOp // the broadcast side's drained shard queries
}

// strategyFor decides the scatter strategy structurally: scan for
// single-table queries; partition-wise when every join stage's keys
// are the partition columns of co-partitioned tables (any join is
// trivially partition-wise at N=1); broadcast for exactly one
// non-co-partitioned join; ErrShardJoin otherwise. Every table must
// be sharded.
func (s *ShardedDB) strategyFor(pt *plan.Template, part shard.Partitioning) (strategy string, parts []shard.Partitioning, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	parts = make([]shard.Partitioning, len(pt.Inputs))
	parts[0] = part
	for i := 1; i < len(pt.Inputs); i++ {
		p, ok := s.parts[pt.Inputs[i].Table]
		if !ok {
			return "", nil, fmt.Errorf("%w: %q", ErrNotSharded, pt.Inputs[i].Table)
		}
		parts[i] = p
	}
	if len(pt.Joins) == 0 {
		return strategyScan, parts, nil
	}
	aligned := map[string]bool{part.Column: true}
	allPW := true
	leftWidth := pt.Inputs[0].Schema.NumCols()
	for k := range pt.Joins {
		jt := &pt.Joins[k]
		rp := parts[k+1]
		rightSchema := pt.Inputs[k+1].Schema
		pw := part.CoPartitioned(rp) &&
			(part.N == 1 || (aligned[jt.LeftName] && jt.RightName == rp.Column))
		if !pw {
			allPW = false
		}
		// The right partition column survives into the joined schema
		// (possibly "r."-prefixed); track it as an aligned key.
		if pw {
			rc := rightSchema.ColIndex(rp.Column)
			if rc >= 0 {
				aligned[jt.Joined.Col(leftWidth+rc).Name] = true
			}
		}
		leftWidth = jt.Joined.NumCols()
	}
	if allPW {
		return strategyPartition, parts, nil
	}
	if len(pt.Joins) == 1 {
		return strategyBroadcast, parts, nil
	}
	return "", nil, fmt.Errorf("%w: %d join stages with non-co-partitioned inputs (broadcast handles one)", ErrShardJoin, len(pt.Joins))
}

// broadcastSide picks the input of a broadcast join to replicate:
// optimizer.BroadcastSide over each input's post-predicate estimate
// summed across shards, each shard binding an input exactly as the
// side query it would run does (a join query has no free-order column).
func (s *ShardedDB) broadcastSide(pt *plan.Template, lits, vals []int64) (bc, scan int, err error) {
	var est [2]int64
	for _, db := range s.shards {
		db.mu.RLock()
		for i := range est {
			var n int64
			if n, err = optimizer.InputEstimate(db.dev, db.planTable, pt, i, lits, vals); err != nil {
				break
			}
			est[i] += n
		}
		db.mu.RUnlock()
		if err != nil {
			return 0, 0, err
		}
	}
	bc, scan = optimizer.BroadcastSide(est[0], est[1])
	return bc, scan, nil
}

// compileShardExec binds a sharded execution of st. Shard 0 binds the
// whole statement — an unnamed one takes its template from shard 0's
// plan cache — and supplies what the planner has already worked out:
// the folded predicates per input, the contradiction and LIMIT 0
// short-circuits, the stage list. The coordinator decides only what is
// its own: the scatter strategy, the broadcast side, which shards the
// partition predicates prune, and the gather mode. The shards run st's
// query with b substituted, each re-planning its slice through its own
// plan cache.
func (s *ShardedDB) compileShardExec(st statement, b Bind) (*shardExec, error) {
	shard0 := s.shards[0]
	shard0.mu.RLock()
	cq0, err := shard0.bind(st, b)
	shard0.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	pt, lits := cq0.Template, cq0.Lits
	part, err := s.Partitioning(pt.Inputs[0].Table)
	if err != nil {
		return nil, err
	}

	strategy, parts, err := s.strategyFor(pt, part)
	if err != nil {
		return nil, err
	}

	se := &shardExec{
		s:          s,
		pt:         pt,
		cq0:        cq0,
		part:       part,
		strategy:   strategy,
		q:          st.q,
		planCached: cq0.planCached,
		prunedWhy:  make([]string, len(s.shards)),
		keyCol:     -1,
		coord:      cq0.stages(),
		emptyWhy:   cq0.EmptyWhy,
	}
	if len(b) > 0 {
		se.q = st.q.bound(b)
	}

	// Broadcast side selection, from each side's estimate over every
	// shard.
	if strategy == strategyBroadcast {
		if se.bcInput, se.scanInput, err = s.broadcastSide(pt, lits, cq0.Vals); err != nil {
			return nil, err
		}
	}

	// Partition pruning: keep only the shards that can hold rows inside
	// the range input i's conjuncts fold to on its partition column.
	prune := func(i int) {
		p := parts[i]
		pr := cq0.Inputs[i].RangeOn(p.Column)
		if pr.Lo == math.MinInt64 && pr.Hi == math.MaxInt64 {
			return
		}
		keep := make(map[int]bool, p.N)
		for _, si := range p.Prune(pr.Lo, pr.Hi) {
			keep[si] = true
		}
		next := se.active[:0]
		for _, si := range se.active {
			if keep[si] {
				next = append(next, si)
			} else if se.prunedWhy[si] == "" {
				se.prunedWhy[si] = fmt.Sprintf("%s excludes %s", fmtPred(p.Column, pr, "", ""), p.DescribeShard(si))
			}
		}
		se.active = next
	}

	if se.emptyWhy == "" {
		se.active = make([]int, len(s.shards))
		for i := range se.active {
			se.active[i] = i
		}
		if strategy == strategyBroadcast {
			prune(se.scanInput)
			bcPart := parts[se.bcInput]
			bcPr := cq0.Inputs[se.bcInput].RangeOn(bcPart.Column)
			se.bcActive = bcPart.Prune(bcPr.Lo, bcPr.Hi)
			if len(se.bcActive) == 0 {
				se.emptyWhy = fmt.Sprintf("broadcast side %q fully pruned", pt.Inputs[se.bcInput].Table)
			}
		} else {
			// One input, or co-partitioned ones: a shard excluded by any
			// input's partition predicate produces no output there.
			for i := range pt.Inputs {
				prune(i)
			}
		}
		if len(se.active) == 0 && se.emptyWhy == "" {
			se.emptyWhy = fmt.Sprintf("every shard pruned by %s predicates", part.Column)
		}
	}
	if se.emptyWhy != "" {
		se.active = nil
		for i := range se.prunedWhy {
			if se.prunedWhy[i] == "" {
				se.prunedWhy[i] = se.emptyWhy
			}
		}
		return se, nil
	}

	// Gather mode, and which of cq0's stages are left for the
	// coordinator.
	switch {
	case strategy == strategyBroadcast:
		// Shards emit raw join output (whose per-shard ordering is not
		// usable for a merge): every stage runs at the coordinator.
		se.gatherSchema = pt.Joins[0].Joined
	case pt.GroupIdx >= 0:
		// Shards emit partial groups, already projected; the coordinator
		// merges them, then orders and limits as cq0 would.
		se.gatherSchema = pt.Out
		se.coord.selIdx, se.coord.groupIdx, se.coord.merge = nil, 0, true
		se.coord.aggSpecs = mergeSpecs(pt.AggSpecs)
	default:
		// Shards emit final rows — projected, ordered, limited; the
		// coordinator merges the streams in order and re-limits.
		se.gatherSchema = pt.Out
		se.coord.selIdx, se.coord.sortIdx = nil, -1
		if pt.OrderIdx >= 0 {
			se.ordered, se.keyCol = true, pt.OrderIdx
		}
	}
	return se, nil
}

// shardRowsOp drives one shard's Rows as a batched operator, so the
// parallel gather can run it as a worker. start is deferred to Open —
// pruned or never-opened shards never build or run their query, hence
// never touch their device (or network). Every error the shard's
// stream returns passes noteErr, which names a lost remote shard and
// records it for ExecStats.Shards.
type shardRowsOp struct {
	schema      *tuple.Schema
	shard       int
	drv         shardDriver
	ctx         context.Context
	query       func() *Query
	rows        *Rows
	unavailable bool
	// join is the I/O account of the broadcast join above this shard's
	// stream (nil under the other strategies): the join runs on the
	// worker's goroutine, on a channel of the shard's device.
	join *disk.Channel
}

func (o *shardRowsOp) Schema() *tuple.Schema { return o.schema }

func (o *shardRowsOp) Open() error {
	rows, err := o.drv.run(o.ctx, o.query())
	if err != nil {
		return o.noteErr(err)
	}
	o.rows = rows
	return nil
}

func (o *shardRowsOp) NextBatch(b *tuple.Batch) (int, error) {
	n, err := o.rows.fillBatch(b)
	return n, o.noteErr(err)
}

// noteErr classifies a shard error (shardErr) and flags a
// shard-unavailable failure on its way out. The flag is written by the
// worker goroutine driving this op and read only after the gather has
// quiesced, the same discipline as the shard Rows' stats.
func (o *shardRowsOp) noteErr(err error) error {
	err = shardErr(o.shard, o.drv.address(), err)
	if errors.Is(err, ErrShardUnavailable) {
		o.unavailable = true
	}
	return err
}

// Close closes the shard's Rows (idempotent), which returns a remote
// shard's connection to its pool.
func (o *shardRowsOp) Close() error {
	if o.rows == nil {
		return nil
	}
	return o.noteErr(o.rows.Close())
}

// shardOp is the op reading shard si's result of query().
func (se *shardExec) shardOp(ctx context.Context, si int, schema *tuple.Schema, query func() *Query) *shardRowsOp {
	return &shardRowsOp{schema: schema, shard: si, drv: se.s.drivers[si], ctx: ctx, query: query}
}

// shardQuery is the query active shard si runs, bound to the shard's
// planning DB: its slice of the scanned input under broadcast, the
// whole query otherwise.
func (se *shardExec) shardQuery(si int) *Query {
	db := se.s.shards[si]
	if se.strategy == strategyBroadcast {
		return se.q.sideQuery(db, se.scanInput, se.pt)
	}
	return se.q.perShardQuery(db)
}

// run binds st and runs the scatter-gather. A coordinator result-cache
// hit serves the materialized result with every shard untouched; a
// miss captures the epochs now — before any shard worker starts — so
// a write interleaving with the gather fails the store-time re-check.
func (s *ShardedDB) run(ctx context.Context, st statement, b Bind) (*Rows, error) {
	se, err := s.compileShardExec(st, b)
	if err != nil {
		return nil, err
	}
	cache := se.cacheable()
	var eps map[string]uint64
	if cache {
		if v, ok := s.resCache.Lookup(se.cq0.resKey, s.epochOf); ok {
			return se.rows(ctx).serveCached(v), nil
		}
		eps = make(map[string]uint64, len(se.cq0.resEpochs))
		for name := range se.cq0.resEpochs {
			eps[name] = s.epochOf(name)
		}
	}
	if err = se.start(ctx); err != nil {
		return nil, err
	}
	rows := se.rows(ctx)
	if cache {
		rows.acc = newResAccum(se.cq0.resKey, eps, s.resCache.EntryCap(), se.pt.Out.NumCols())
	}
	return rows, nil
}

// start builds and opens the gather tree: one worker per active shard
// feeding the parallel exchange, coordinator stages above it. The
// broadcast side, when present, is drained first and replicated into
// every worker's join.
func (se *shardExec) start(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s := se.s
	count := func(name string, op exec.Operator) exec.Operator {
		c := &opCounter{name: name}
		se.counters = append(se.counters, c)
		return &countedOp{inner: op, c: c}
	}

	var cur exec.Operator
	if se.emptyWhy != "" {
		cur = count("empty", exec.NewValues(se.pt.Out, nil))
	} else {
		// Broadcast side: drain the replicated input's active shards
		// into memory once, before the workers start, through a pooled
		// batch that goes back once its rows are cloned.
		var bcRows []tuple.Row
		if se.strategy == strategyBroadcast {
			bcSchema := se.pt.Inputs[se.bcInput].Schema
			b := exec.GetBatch(bcSchema)
			for _, si := range se.bcActive {
				op := se.shardOp(ctx, si, bcSchema, func() *Query { return se.q.sideQuery(s.shards[si], se.bcInput, se.pt) })
				se.sides = append(se.sides, op)
				err := op.Open()
				for err == nil {
					var n int
					if n, err = op.NextBatch(b); n == 0 {
						break
					}
					for i := 0; i < n; i++ {
						bcRows = append(bcRows, b.Row(i).Clone())
					}
				}
				if cerr := op.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					exec.PutBatch(b)
					return err
				}
			}
			exec.PutBatch(b)
		}

		workers := make([]exec.Operator, 0, len(se.active))
		for _, si := range se.active {
			si := si
			a := se.shardOp(ctx, si, se.gatherSchema, func() *Query { return se.shardQuery(si) })
			se.adapters = append(se.adapters, a)
			var w exec.Operator = a
			if se.strategy == strategyBroadcast {
				a.schema = se.pt.Inputs[se.scanInput].Schema
				a.join = s.shards[si].dev.NewChannel()
				vals := exec.NewValues(se.pt.Inputs[se.bcInput].Schema, bcRows)
				spec := plan.JoinSpec{
					LeftCol:  se.pt.Joins[0].LeftCol,
					RightCol: se.pt.Joins[0].RightCol,
					Algo:     plan.JoinHash,
					Ch:       a.join,
				}
				if se.bcInput == 0 {
					spec.Left, spec.Right, spec.BuildLeft = vals, exec.Operator(a), true
				} else {
					spec.Left, spec.Right = a, vals
				}
				j, err := plan.BuildJoin(spec)
				if err != nil {
					return err
				}
				w = j
			}
			workers = append(workers, w)
		}
		g, err := parallel.NewScan(workers, parallel.Options{
			Schema:  se.gatherSchema,
			Ordered: se.ordered,
			KeyCol:  se.keyCol,
			Ctx:     ctx,
		})
		if err != nil {
			return err
		}
		name := fmt.Sprintf("gather[%d]", len(workers))
		if se.ordered {
			name = fmt.Sprintf("gather-merge[%d]", len(workers))
		}
		cur = &ctxGuard{inner: count(name, g), ctx: ctx}
		if cur, err = se.coord.build(cur, nil, se.pt.Out, count); err != nil {
			return err
		}
	}

	se.root = cur
	if err := cur.Open(); err != nil {
		// Blocking coordinator stages already closed the gather beneath
		// them on failure; this sweeps up pass-through stages. Close is
		// idempotent everywhere in the tree.
		_ = cur.Close()
		return err
	}
	return nil
}

// rows hands out the Rows over the execution's tree.
func (se *shardExec) rows(ctx context.Context) *Rows {
	return &Rows{
		run:        se,
		op:         se.root,
		schema:     se.pt.Out,
		baseSchema: se.pt.Base,
		ctx:        ctx,
		counters:   se.counters,
		planCached: se.planCached,
	}
}

// degrade: fault degradation happens inside each shard's own Rows (one
// shard's fault degrades that shard, not the query), never up here.
func (se *shardExec) degrade(*Rows, error) bool { return false }

// finish closes every shard stream once the gather has closed
// (stopping the shard workers).
func (se *shardExec) finish() error {
	// Workers close their shard Rows before their stream shuts down;
	// this sweep only matters when the gather never opened.
	var first error
	for _, a := range se.adapters {
		if err := a.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// plan renders the scatter-gather plan, each active shard's own tree
// included; nil if a shard's plan no longer compiles.
func (se *shardExec) plan() *Plan {
	p, err := se.explain()
	if err != nil {
		return nil
	}
	return p
}

func (s *ShardedDB) explain(st statement, b Bind) (*Plan, error) {
	se, err := s.compileShardExec(st, b)
	if err != nil {
		return nil, err
	}
	return se.explain()
}

// Prepare validates and compiles the sharded query's structure — its
// coordinator template and its scatter strategy — into a Stmt.
func (s *ShardedDB) Prepare(q *Query) (*Stmt, error) { return prepareOn(s, q) }

func (s *ShardedDB) prepare(q *Query) (*Stmt, error) {
	snap := q.clone()
	shard0 := s.shards[0]
	shard0.mu.RLock()
	pt, lits, _, err := shard0.templateFor(snap)
	shard0.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	part, err := s.Partitioning(snap.spec.Table)
	if err != nil {
		return nil, err
	}
	if _, _, err := s.strategyFor(pt, part); err != nil {
		return nil, err
	}
	return &Stmt{eng: s, pt: pt, lits: lits, params: pt.Params, q: snap}, nil
}

// Coordinator-level result caching: the sharded engine carries its own
// rescache tier above scatter-gather, so a repeated sharded query is
// served from the coordinator's memory without touching any shard —
// no gather, no per-shard cursors, no device or network traffic. The
// per-shard slices still flow through each shard DB's own tier (the
// same Options configure both), so a coordinator miss can still be
// assembled from per-shard hits.
//
// Epochs at this level are the sum of the shard epochs for each table:
// every Insert routes to exactly one shard and bumps that shard's
// table epoch under its lock, so the sum is monotonic and moves on
// every write regardless of which shard took it. A remote topology's
// planning mirrors hold no rows and the coordinator refuses mutations,
// so its epochs are static — consistent with the open-time catalog
// snapshot the coordinator already treats as the data's state.

// ResultCacheStats snapshots the coordinator-level result-cache tier's
// counters (zero when the tier is disabled). Per-shard tiers are
// reachable via Shard(i).ResultCacheStats().
func (s *ShardedDB) ResultCacheStats() ResultCacheStats { return s.resCache.Stats() }

// epochOf sums the named table's write epoch across shards — the
// coordinator tier's invalidation clock. Each shard's epoch is read
// under its own lock; the sum is monotonic because shard epochs only
// ever increase.
func (s *ShardedDB) epochOf(name string) uint64 {
	var sum uint64
	for _, db := range s.shards {
		sum += db.epochOf(name)
	}
	return sum
}

// cacheable reports whether this sharded execution participates in the
// coordinator tier. Beyond the local rules (tier enabled, key derived,
// no empty short-circuit), any shard carrying a fault policy bypasses
// — degraded shard runs may skip corrupted pages, and a partial result
// must never be pinned. A remote broadcast join also bypasses: its
// replicated side drains through cursors whose degradation state the
// coordinator cannot observe.
func (se *shardExec) cacheable() bool {
	s := se.s
	if s.resCache == nil || se.cq0.resKey == "" || se.emptyWhy != "" {
		return false
	}
	for _, db := range s.shards {
		if db.dev.FaultPolicy() != nil {
			return false
		}
	}
	return !(s.remote && se.strategy == strategyBroadcast)
}

// store admits a drained sharded result unless a shard was unavailable
// or degraded (a gather that lost or degraded a shard delivered a
// best-effort result, not the query's answer). The coordinator epochs
// are re-checked inside: a write that routed to any shard during the
// gather moves the sum and the entry would be born stale.
func (se *shardExec) store(a *resAccum) {
	for _, ad := range se.adapters {
		if ad.unavailable {
			return
		}
		if ad.rows != nil && len(ad.rows.ExecStats().Degraded) > 0 {
			return
		}
	}
	storeResult(se.s.resCache, a, se.s.epochOf)
}
