// Command ssload is the concurrent correctness driver for the
// smoothscan engine: it bulk-loads a synthetic table, then hammers it
// from many client goroutines and reports an order-independent result
// digest that must agree across topologies, prepared and ad-hoc
// execution and fault schedules. The tuples/s, queries/s and
// latencies it prints are what its clients observed, not a performance
// claim — bench/ (BENCHMARK.json) is the one tool that times. It is
// the inter-query counterpart of ScanOptions.Parallelism (intra-query):
// both can be combined.
//
// Usage:
//
//	ssload -rows 200000 -clients 8 -queries 64 -selectivity 0.01
//	ssload -clients 4 -path full -parallelism 4
//	ssload -shards 4 -prepare
//	ssload -chaos -clients 4 -queries 64
//	ssload -addr 127.0.0.1:7744 -clients 8 -queries 64
//
// By default the clients share one in-process DB. With -addr the same
// workload runs against a remote ssserver instead: every client
// goroutine owns one smoothscan.Conn, queries travel the wire
// protocol, and the reported latencies are client-observed (dial,
// frame round trips and result streaming included). -shards N and
// -shard-addrs run it through the scatter-gather engine over
// in-process or remote shards. -prepare routes every query through a
// prepared statement (one shared Stmt in-process, one per connection
// remotely) and combines with every topology and with -chaos; chaos
// schedules are installed remotely through the fault-administration
// frame (the server must run with -fault-admin). A client whose
// connection is lost re-dials transparently; reconnect counts land in
// the JSON output next to the retry counters.
//
// The -chaos mode runs the workload once fault-free to record an
// order-independent result digest, then re-runs it under a sweep of
// injected fault schedules (transient failures, corrupted pages,
// latency spikes). Recovered runs must reproduce the oracle digest
// exactly; the sweep exits non-zero if any run diverged or errored.
//
// A client goroutine never aborts the whole load on a query error: it
// records the error (retrying transient faults a bounded number of
// times first) and moves on, so one poisoned query cannot hide the
// rest of the run. Per-client error and retry counts land in the JSON
// output. -require-clean turns any recorded error into a non-zero
// exit, for smoke tests that must not average failures away.
package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"smoothscan"
	"smoothscan/internal/loadgen"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ssload:", err)
		os.Exit(1)
	}
}

// run is the whole command behind main: flags in, error (exit 1) out.
func run(args []string) error {
	fs := flag.NewFlagSet("ssload", flag.ExitOnError)
	var (
		rows        = fs.Int64("rows", 200_000, "table rows (10 int64 columns, like the paper's micro table); local modes only")
		domain      = fs.Int64("domain", 100_000, "indexed-column value domain (must match the server's with -addr)")
		clients     = fs.Int("clients", 4, "concurrent client goroutines")
		queries     = fs.Int("queries", 64, "total queries across all clients")
		selectivity = fs.Float64("selectivity", 0.01, "per-query selectivity (0..1]")
		parallelism = fs.Int("parallelism", 1, "full-scan workers per query (ScanOptions.Parallelism); only -path full runs in parallel")
		ordered     = fs.Bool("ordered", false, "request index-key-ordered output")
		policy      = fs.String("policy", "elastic", "morphing policy: elastic, greedy, si")
		path        = fs.String("path", "smooth", "access path: smooth, full, index, sort, switch")
		seed        = fs.Int64("seed", 42, "generator seed")
		pool        = fs.Int("pool", 2048, "buffer pool pages; local modes only")
		jsonOut     = fs.String("json", "", "also write results as JSON to this file")
		timeout     = fs.Duration("timeout", 0, "deadline for the whole load; in-flight queries are cancelled through their context")
		prepare     = fs.Bool("prepare", false, "clients bind and execute a prepared statement per query instead of composing an ad-hoc one")
		chaos       = fs.Bool("chaos", false, "chaos mode: run a fault-free oracle load, then re-run under injected fault schedules and verify the result digests match")
		addr        = fs.String("addr", "", "run against a remote ssserver at this address instead of in-process (the server owns the data; use matching -domain/-seed flags on both sides)")
		shards      = fs.Int("shards", 0, "range-partition the table across N in-process shards and run the load through the scatter-gather engine (0 = unsharded); local modes only")
		shardAddrs  = fs.String("shard-addrs", "", "comma-separated ssserver addresses, one per shard (each server started with -shard-id I -shard-count N and matching -rows/-domain/-seed); runs the load through the scatter-gather engine with remote shard drivers")
		clean       = fs.Bool("require-clean", false, "exit non-zero if any query failed")
	)
	fs.Parse(args) // ExitOnError: a bad flag exits 2 here, as the flag package's own set would

	if *shards < 0 {
		return fmt.Errorf("-shards %d (want >= 0)", *shards)
	}
	if *shards > 0 && *addr != "" {
		return fmt.Errorf("-shards needs the in-process engine (drop -addr)")
	}
	if *shardAddrs != "" && (*addr != "" || *shards > 0) {
		return fmt.Errorf("-shard-addrs does not combine with -addr or -shards")
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	opts, err := scanOptions(*path, *policy, *ordered, *parallelism)
	if err != nil {
		return err
	}
	cfg := loadConfig{
		clients:     *clients,
		queries:     *queries,
		selectivity: *selectivity,
		domain:      *domain,
		seed:        *seed,
		opts:        opts,
		prepared:    *prepare,
	}

	var h *harness
	dbOpts := smoothscan.Options{PoolPages: *pool}
	switch {
	case *shardAddrs != "":
		if h, err = remoteShardedHarness(strings.Split(*shardAddrs, ","), *domain); err != nil {
			return fmt.Errorf("shard-addrs %s: %w", *shardAddrs, err)
		}
	case *addr != "":
		if h, err = remoteHarness(*addr); err != nil {
			return fmt.Errorf("dial %s: %w", *addr, err)
		}
	case *shards > 0:
		s, err := loadgen.BuildShardedDB(*rows, *domain, *seed, *shards, dbOpts)
		if err != nil {
			return err
		}
		h = shardedHarness(s)
	default:
		db, err := loadgen.BuildDB(*rows, *domain, *seed, dbOpts)
		if err != nil {
			return err
		}
		h = localHarness(db)
	}
	defer h.close()

	if *chaos {
		// Chaos is clean by construction: any unrecovered error fails it.
		return runChaos(ctx, h, cfg, *seed, chaosSchedules, *jsonOut)
	}

	res, err := runLoad(ctx, h, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("ssload: %d clients x %d queries, sel=%.4f%%, path=%s, parallelism=%d, ordered=%v, prepared=%v, mode=%s, cpus=%d\n",
		*clients, *queries, *selectivity*100, *path, *parallelism, *ordered, *prepare, h.mode, runtime.NumCPU())
	res.print(os.Stdout)
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, res); err != nil {
			return err
		}
	}
	if *clean && res.Errors > 0 {
		return fmt.Errorf("-require-clean: %d queries failed", res.Errors)
	}
	return nil
}

func scanOptions(path, policy string, ordered bool, parallelism int) (smoothscan.ScanOptions, error) {
	opts := smoothscan.ScanOptions{Ordered: ordered, Parallelism: parallelism}
	switch path {
	case "smooth":
		opts.Path = smoothscan.PathSmooth
	case "full":
		opts.Path = smoothscan.PathFull
	case "index":
		opts.Path = smoothscan.PathIndex
	case "sort":
		opts.Path = smoothscan.PathSort
	case "switch":
		opts.Path = smoothscan.PathSwitch
	default:
		return opts, fmt.Errorf("unknown path %q", path)
	}
	switch policy {
	case "elastic":
		opts.Policy = smoothscan.Elastic
	case "greedy":
		opts.Policy = smoothscan.Greedy
	case "si":
		opts.Policy = smoothscan.SelectivityIncrease
	default:
		return opts, fmt.Errorf("unknown policy %q", policy)
	}
	return opts, nil
}

type loadConfig struct {
	clients     int
	queries     int
	selectivity float64
	domain      int64
	seed        int64
	opts        smoothscan.ScanOptions
	// prepared routes every query through a prepared statement (bound
	// per query) instead of the ad-hoc builder.
	prepared bool
	// retryFaults is the number of application-level re-runs a client
	// gives a query that failed with a transient injected fault, on top
	// of the engine's own bounded page retry. Chaos mode sets it so a
	// recoverable schedule cannot strand a query.
	retryFaults int
}

// queryResult is one successful query execution; a failed attempt's
// partial rows are discarded wholesale so a retried query cannot
// double-count into the digest.
type queryResult struct {
	digest  uint64
	tuples  int64
	reused  bool
	retries int64
	faults  int64
}

// loadTemplate is the workload's one query shape, composed through
// the Engine interface so every backend — in-process, sharded,
// remote — compiles exactly the same builder calls.
func loadTemplate(e smoothscan.Engine, opts smoothscan.ScanOptions) *smoothscan.Query {
	return e.Table(loadgen.Table).
		Where(loadgen.IndexedCol, smoothscan.Between(smoothscan.Param("lo"), smoothscan.Param("hi"))).
		WithOptions(opts)
}

// engineRunner executes one client goroutine's queries; it is owned by
// that goroutine and never shared. It drives a smoothscan.Engine and
// drains the one *Rows, so the measured query path is literally
// the same code on every topology.
type engineRunner struct {
	cfg  loadConfig
	eng  smoothscan.Engine
	stmt *smoothscan.Stmt
	// dial is set when the client owns its engine — conn, a
	// session dialed through it, re-dialed when lost and closed with the
	// runner. Both nil for an engine (and statement) shared through the
	// harness.
	dial  func() (*smoothscan.Conn, error)
	conn  *smoothscan.Conn
	recon int
}

// connect dials this client's session and, in prepared mode, prepares
// its statement (a remote Stmt runs on the connection that prepared it;
// the compiled template is shared through the server's plan cache).
func (r *engineRunner) connect() error {
	c, err := r.dial()
	if err != nil {
		return err
	}
	var stmt *smoothscan.Stmt
	if r.cfg.prepared {
		if stmt, err = c.PrepareQuery(loadTemplate(c, r.cfg.opts)); err != nil {
			c.Close()
			return err
		}
	}
	r.close()
	r.conn, r.eng, r.stmt = c, c, stmt
	return nil
}

func (r *engineRunner) runQuery(ctx context.Context, lo, hi int64) (queryResult, error) {
	var qr queryResult
	if r.conn != nil && r.conn.Broken() {
		// Transparent re-dial on a lost connection; the count lands in
		// the per-client JSON so flapping is visible, not averaged away.
		if err := r.connect(); err != nil {
			return qr, err
		}
		r.recon++
	}
	var cur *smoothscan.Rows
	var err error
	if r.cfg.prepared {
		cur, err = r.stmt.Run(ctx, smoothscan.Bind{"lo": lo, "hi": hi})
	} else {
		cur, err = r.eng.Table(loadgen.Table).
			Where(loadgen.IndexedCol, smoothscan.Between(lo, hi)).
			WithOptions(r.cfg.opts).
			Run(ctx)
	}
	if err != nil {
		return qr, err
	}
	var order keyOrder
	for cur.Next() {
		qr.tuples++
		qr.digest += rowHash(cur.Row())
		if r.cfg.opts.Ordered {
			if err = order.add(cur.Row()); err != nil {
				break
			}
		}
	}
	if err == nil {
		err = cur.Err()
	}
	if cerr := cur.Close(); err == nil {
		err = cerr
	}
	// ExecStats is complete after the drain on every backend (a remote
	// cursor's statistics arrive with the server's closing summary).
	st := cur.ExecStats()
	qr.reused = st.PlanCacheHit
	qr.retries = st.Retries
	qr.faults = st.FaultsSeen
	return qr, err
}

func (r *engineRunner) close() {
	if r.conn == nil {
		return
	}
	if r.stmt != nil {
		r.stmt.Close()
	}
	r.conn.Close()
}

// nodeCost is a node's cumulative device counters.
type nodeCost struct {
	sim   float64
	pages int64
}

// node is one simulated device behind the workload, in the form the
// harness can administer it: an in-process DB, or a control session to
// the ssserver that owns it (a client session is single-goroutine, so
// the query connections cannot double as controls).
type node interface {
	cost() (nodeCost, error)
	// setFault installs a fault-injection schedule (nil clears it).
	setFault(seed int64, rule *smoothscan.FaultRule) error
	// close releases what the node holds beyond the harness's engine.
	close()
}

type dbNode struct{ *smoothscan.DB }

func (n dbNode) cost() (nodeCost, error) {
	st := n.Stats()
	return nodeCost{sim: st.Time(), pages: st.PagesRead}, nil
}

func (n dbNode) setFault(seed int64, rule *smoothscan.FaultRule) error {
	var p *smoothscan.FaultPolicy
	if rule != nil {
		p = smoothscan.NewFaultPolicy(seed, *rule)
	}
	n.SetFaultPolicy(p)
	return nil
}

func (n dbNode) close() {} // the harness's engine owns the DB

// ctlNode reports simulated cost only: the server counters do not
// break pages out (per-query page counts travel in ExecStats.Shards,
// which the load loop does not accumulate).
type ctlNode struct{ *smoothscan.Conn }

func (n ctlNode) cost() (nodeCost, error) {
	st, err := n.ServerStats()
	return nodeCost{sim: st.DeviceSimCost}, err
}

func (n ctlNode) setFault(seed int64, rule *smoothscan.FaultRule) error {
	if rule == nil {
		return n.ClearFaultPolicy()
	}
	err := n.SetFaultPolicy(seed, *rule)
	if err != nil {
		return fmt.Errorf("%w (remote fault schedules need ssserver -fault-admin)", err)
	}
	return nil
}

func (n ctlNode) close() { n.Close() }

// harness is where the workload runs — the product {in-process,
// remote} × {one device, N devices}: clients share one engine (a DB, or
// a ShardedDB coordinator over in-process or remote shards) or dial a
// session each, and the devices behind them are a list of nodes. The
// load loop, the latency accounting and the digest are identical on all
// four, which is what makes their digests comparable: the row stream,
// and thus every predicate's result multiset, is the same — only the
// placement differs.
type harness struct {
	mode string
	// eng is the engine every client shares (the coordinator is safe for
	// concurrent queries: each remote shard driver pools its
	// connections); nil when every client dials its own session.
	eng  smoothscan.Engine
	stmt *smoothscan.Stmt // shared prepared statement over eng, created lazily
	dial func() (*smoothscan.Conn, error)
	// cold empties every buffer pool and result-cache tier. An ssserver
	// without -fault-admin refuses; noCold then lets later windows
	// measure warm instead of failing the run.
	cold   func() error
	noCold bool
	nodes  []node
	base   []nodeCost // per node, at the last mark
	// sharded is the coordinator of an N-device topology, shardMode
	// where its shards live: "in-process" (-shards) or "remote"
	// (-shard-addrs).
	sharded   *smoothscan.ShardedDB
	shardMode string
}

func localHarness(db *smoothscan.DB) *harness {
	return &harness{mode: "local", eng: db, cold: db.ColdCache, nodes: []node{dbNode{db}}}
}

func shardedHarness(s *smoothscan.ShardedDB) *harness {
	h := &harness{mode: fmt.Sprintf("sharded[%d]", s.NumShards()), eng: s, cold: s.ColdCache, sharded: s, shardMode: "in-process"}
	for i := 0; i < s.NumShards(); i++ {
		h.nodes = append(h.nodes, dbNode{s.Shard(i)})
	}
	return h
}

func remoteHarness(addr string) (*harness, error) {
	ctl, err := smoothscan.Dial(addr)
	if err != nil {
		return nil, err
	}
	dial := func() (*smoothscan.Conn, error) { return smoothscan.Dial(addr) }
	return &harness{mode: "remote", dial: dial, cold: ctl.ColdCache, nodes: []node{ctlNode{ctl}}}, nil
}

// remoteShardedHarness gathers one ssserver per shard (each serving its
// BuildShardSlice) through an in-process coordinator.
func remoteShardedHarness(addrs []string, domain int64) (*harness, error) {
	placements := make([]smoothscan.Placement, len(addrs))
	for i, a := range addrs {
		if placements[i].Addr = strings.TrimSpace(a); placements[i].Addr == "" {
			return nil, fmt.Errorf("empty shard address at position %d", i)
		}
	}
	parts := map[string]smoothscan.Partitioning{
		loadgen.Table: loadgen.ShardParts(domain, len(addrs)),
	}
	s, err := smoothscan.OpenShardedRemote(placements, parts, smoothscan.Options{PoolPages: 64})
	if err != nil {
		return nil, err
	}
	h := &harness{mode: fmt.Sprintf("remote-sharded[%d]", len(addrs)), eng: s, cold: s.ColdCache, sharded: s, shardMode: "remote"}
	for _, p := range placements {
		ctl, err := smoothscan.Dial(p.Addr)
		if err != nil {
			h.close()
			return nil, fmt.Errorf("control dial %s: %w", p.Addr, err)
		}
		h.nodes = append(h.nodes, ctlNode{ctl})
	}
	return h, nil
}

// mark starts a measurement window: cold-start every node where
// allowed, then snapshot its counters so window can report deltas.
func (h *harness) mark() error {
	if !h.noCold {
		if err := h.cold(); err != nil {
			var re *smoothscan.RemoteError
			if !errors.As(err, &re) {
				return err
			}
			h.noCold = true
		}
	}
	h.base = h.base[:0]
	for _, n := range h.nodes {
		c, err := n.cost()
		if err != nil {
			return err
		}
		h.base = append(h.base, c)
	}
	return nil
}

// window reports the simulated device cost since mark, summed over the
// nodes, and on a sharded topology its per-shard balance.
func (h *harness) window() (float64, []shardBalance, error) {
	var rows []int64
	if h.sharded != nil {
		var err error
		if rows, err = h.sharded.ShardRows(loadgen.Table); err != nil {
			return 0, nil, err
		}
	}
	var total float64
	var bal []shardBalance
	for i, n := range h.nodes {
		c, err := n.cost()
		if err != nil {
			return 0, nil, err
		}
		sim := c.sim - h.base[i].sim
		total += sim
		if rows != nil {
			bal = append(bal, shardBalance{Shard: i, Rows: rows[i], SimCost: sim, PagesRead: c.pages - h.base[i].pages})
		}
	}
	return total, bal, nil
}

func (h *harness) newRunner(cfg loadConfig) (*engineRunner, error) {
	r := &engineRunner{cfg: cfg, eng: h.eng, dial: h.dial}
	if h.dial != nil {
		if err := r.connect(); err != nil {
			return nil, err
		}
		return r, nil
	}
	if cfg.prepared && h.stmt == nil {
		stmt, err := h.eng.PrepareQuery(loadTemplate(h.eng, cfg.opts))
		if err != nil {
			return nil, err
		}
		h.stmt = stmt
	}
	r.stmt = h.stmt
	return r, nil
}

// setFault installs one independent policy per node, same seed, so
// decisions stay deterministic per (node, space, page, attempt); nil
// clears them.
func (h *harness) setFault(seed int64, rule *smoothscan.FaultRule) error {
	for _, n := range h.nodes {
		if err := n.setFault(seed, rule); err != nil {
			return err
		}
	}
	return nil
}

func (h *harness) close() {
	for _, n := range h.nodes {
		n.close()
	}
	if h.eng != nil {
		h.eng.Close()
	}
}

// clientStat is one client goroutine's tally, reported in the JSON
// output so a sick client is visible instead of averaged away.
type clientStat struct {
	Client  int `json:"client"`
	Queries int `json:"queries"`
	Errors  int `json:"errors"`
	// QueryRetries counts application-level query re-runs (see
	// loadConfig.retryFaults); Retries counts the engine's page-level
	// read retries inside this client's queries; Reconnects counts
	// re-dials of a lost remote connection.
	QueryRetries int    `json:"query_retries"`
	Retries      int64  `json:"retries"`
	FaultsSeen   int64  `json:"faults_seen"`
	Reconnects   int    `json:"reconnects,omitempty"`
	FirstError   string `json:"first_error,omitempty"`
}

// loadResult aggregates a load run; field names feed the JSON output.
type loadResult struct {
	Mode        string  `json:"mode"`
	Clients     int     `json:"clients"`
	Queries     int     `json:"queries"`
	Parallelism int     `json:"parallelism"`
	CPUs        int     `json:"cpus"`
	WallMS      float64 `json:"wall_ms"`
	Tuples      int64   `json:"tuples"`
	TuplesPerS  float64 `json:"tuples_per_s"`
	QueriesPerS float64 `json:"queries_per_s"`
	P50MS       float64 `json:"p50_ms"`
	P99MS       float64 `json:"p99_ms"`
	MaxMS       float64 `json:"max_ms"`
	SimCost     float64 `json:"simcost"`
	// PlanReuseRate is the fraction of queries that reused a compiled
	// plan template (ExecStats.PlanCacheHit): the DB plan cache for
	// ad-hoc loads, the Stmt's template for prepared loads — or, when
	// the load is remote, the server's plan cache for both.
	PlanReuseRate float64 `json:"plan_reuse_rate"`
	// Errors counts queries that still failed after any application
	// retries; failed queries are excluded from Queries, the latency
	// percentiles, Tuples and Digest.
	Errors int `json:"errors"`
	// QueryRetries / Retries / FaultsSeen / Reconnects aggregate the
	// per-client fault counters (see clientStat).
	QueryRetries int   `json:"query_retries"`
	Retries      int64 `json:"retries"`
	FaultsSeen   int64 `json:"faults_seen"`
	Reconnects   int   `json:"reconnects"`
	// ShardMode labels a sharded run's topology: "in-process" for
	// -shards N, "remote" for -shard-addrs; omitted for unsharded
	// runs. Digests are comparable across the two (and against an
	// unsharded run) — only the placement differs.
	ShardMode string `json:"shard_mode,omitempty"`
	// Shards reports the per-shard row and device-cost balance of a
	// sharded run (-shards N or -shard-addrs), in shard order; omitted
	// otherwise. Rows is static placement; SimCost and PagesRead are
	// this run's deltas, showing whether pruning and the uniform
	// predicate stream spread the work evenly (remote nodes report
	// SimCost only; their PagesRead stays zero).
	Shards []shardBalance `json:"shards,omitempty"`
	// Digest is an order-independent checksum of every result row of
	// every successful query (sum of per-row FNV-1a hashes), stable
	// across client scheduling and parallel-worker interleavings. Two
	// runs of the same workload over the same data must agree on it —
	// including one local and one remote run, since results cross the
	// wire bit-exact.
	Digest uint64 `json:"digest"`
	// PerClient breaks the run down by client goroutine.
	PerClient []clientStat `json:"per_client,omitempty"`
}

// shardBalance is one shard's slice of a sharded run.
type shardBalance struct {
	Shard     int     `json:"shard"`
	Rows      int64   `json:"rows"`
	SimCost   float64 `json:"simcost"`
	PagesRead int64   `json:"pages_read"`
}

func (r loadResult) print(w *os.File) {
	fmt.Fprintf(w, "  wall       %.1f ms\n", r.WallMS)
	fmt.Fprintf(w, "  tuples     %d (%.2fM tuples/s aggregate)\n", r.Tuples, r.TuplesPerS/1e6)
	fmt.Fprintf(w, "  queries/s  %.1f\n", r.QueriesPerS)
	fmt.Fprintf(w, "  latency    p50 %.2f ms, p99 %.2f ms, max %.2f ms\n", r.P50MS, r.P99MS, r.MaxMS)
	fmt.Fprintf(w, "  simcost    %.1f units (device total for the run)\n", r.SimCost)
	fmt.Fprintf(w, "  plan reuse %.1f%% of queries\n", r.PlanReuseRate*100)
	if r.Errors > 0 {
		fmt.Fprintf(w, "  errors     %d queries failed (excluded from digest and latency)\n", r.Errors)
	}
	if r.FaultsSeen > 0 || r.Retries > 0 || r.QueryRetries > 0 {
		fmt.Fprintf(w, "  faults     %d seen, %d page retries, %d query re-runs\n",
			r.FaultsSeen, r.Retries, r.QueryRetries)
	}
	if r.Reconnects > 0 {
		fmt.Fprintf(w, "  reconnects %d lost connections re-dialed\n", r.Reconnects)
	}
	for _, sb := range r.Shards {
		fmt.Fprintf(w, "  shard %-4d %8d rows, %10.1f simcost, %8d pages read\n",
			sb.Shard, sb.Rows, sb.SimCost, sb.PagesRead)
	}
}

// keyOrder checks one -ordered query's rows arrive in index-key order:
// the digest sums row hashes and cannot see order, so this check does.
type keyOrder struct {
	n    int64 // rows seen
	last int64 // the last row's val
}

// add takes the next row and fails if its val column, the index key
// (row[1]), is below the previous row's.
func (k *keyOrder) add(row []int64) error {
	v := row[1]
	if k.n > 0 && v < k.last {
		return fmt.Errorf("ordered query: row %d has %s %d after %d", k.n, loadgen.IndexedCol, v, k.last)
	}
	k.n, k.last = k.n+1, v
	return nil
}

// rowHash hashes one result row; per-query and per-run digests are
// wrapping sums of row hashes, making them order-independent.
func rowHash(vals []int64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// runLoad fires cfg.queries queries across cfg.clients goroutines and
// aggregates wall-clock throughput and latency. Every query goes
// through the composable Query builder — the same surface the
// library's users compose, local or remote — with ctx cancelling
// in-flight queries (and their parallel scan workers, on either side
// of the wire) when the -timeout deadline hits.
func runLoad(ctx context.Context, h *harness, cfg loadConfig) (loadResult, error) {
	if cfg.clients < 1 || cfg.queries < 1 {
		return loadResult{}, fmt.Errorf("need at least one client and one query")
	}
	if err := h.mark(); err != nil {
		return loadResult{}, err
	}
	width := int64(float64(cfg.domain) * cfg.selectivity)
	if width < 1 {
		width = 1
	}
	// Runners are created up front so a backend that cannot serve the
	// run at all (bad prepare, unreachable server) fails it cleanly
	// instead of being tallied as per-query errors.
	runners := make([]*engineRunner, cfg.clients)
	for c := range runners {
		r, err := h.newRunner(cfg)
		if err != nil {
			for _, prev := range runners[:c] {
				prev.close()
			}
			return loadResult{}, fmt.Errorf("client %d: %w", c, err)
		}
		runners[c] = r
	}
	defer func() {
		for _, r := range runners {
			r.close()
		}
	}()

	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		latencies []time.Duration
		tuples    int64
		reused    int64
		digest    uint64
		perClient []clientStat
	)
	start := time.Now()
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func(c int, run *engineRunner) {
			defer wg.Done()
			// Distribute exactly cfg.queries across the clients.
			n := cfg.queries / cfg.clients
			if c < cfg.queries%cfg.clients {
				n++
			}
			rng := rand.New(rand.NewSource(cfg.seed + int64(c)*7919))
			stat := clientStat{Client: c}
			var localLat []time.Duration
			var localTuples, localReused int64
			var localDigest uint64
			for q := 0; q < n; q++ {
				lo := int64(0)
				if cfg.domain > width {
					lo = rng.Int63n(cfg.domain - width)
				}
				qStart := time.Now()
				var qr queryResult
				var err error
				for attempt := 0; ; attempt++ {
					var once queryResult
					once, err = run.runQuery(ctx, lo, lo+width)
					qr.retries += once.retries
					qr.faults += once.faults
					if err == nil {
						qr.digest, qr.tuples, qr.reused = once.digest, once.tuples, once.reused
						break
					}
					if attempt >= cfg.retryFaults || !smoothscan.IsTransientFault(err) || ctx.Err() != nil {
						break
					}
					stat.QueryRetries++
				}
				stat.Retries += qr.retries
				stat.FaultsSeen += qr.faults
				if err != nil {
					// Record the failure and move on: one poisoned
					// query must not hide the rest of this client's
					// work. A cancelled context is the exception —
					// every further query would fail the same way.
					stat.Errors++
					if stat.FirstError == "" {
						stat.FirstError = err.Error()
					}
					if ctx.Err() != nil {
						break
					}
					continue
				}
				stat.Queries++
				if qr.reused {
					localReused++
				}
				localTuples += qr.tuples
				localDigest += qr.digest
				localLat = append(localLat, time.Since(qStart))
			}
			stat.Reconnects = run.recon
			mu.Lock()
			latencies = append(latencies, localLat...)
			tuples += localTuples
			reused += localReused
			digest += localDigest
			perClient = append(perClient, stat)
			mu.Unlock()
		}(c, runners[c])
	}
	wg.Wait()
	wall := time.Since(start)
	if err := ctx.Err(); err != nil {
		return loadResult{}, err
	}
	simCost, shardBal, err := h.window()
	if err != nil {
		return loadResult{}, err
	}

	sort.Slice(perClient, func(i, j int) bool { return perClient[i].Client < perClient[j].Client })
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(p float64) float64 {
		if len(latencies) == 0 {
			return 0
		}
		idx := int(p * float64(len(latencies)-1))
		return float64(latencies[idx]) / float64(time.Millisecond)
	}
	reuseRate := 0.0
	if len(latencies) > 0 {
		reuseRate = float64(reused) / float64(len(latencies))
	}
	res := loadResult{
		Mode:          h.mode,
		Clients:       cfg.clients,
		Queries:       len(latencies),
		Parallelism:   cfg.opts.Parallelism,
		CPUs:          runtime.NumCPU(),
		WallMS:        float64(wall) / float64(time.Millisecond),
		Tuples:        tuples,
		TuplesPerS:    float64(tuples) / wall.Seconds(),
		QueriesPerS:   float64(len(latencies)) / wall.Seconds(),
		P50MS:         pct(0.50),
		P99MS:         pct(0.99),
		MaxMS:         pct(1.0),
		SimCost:       simCost,
		PlanReuseRate: reuseRate,
		ShardMode:     h.shardMode,
		Shards:        shardBal,
		Digest:        digest,
		PerClient:     perClient,
	}
	for _, st := range perClient {
		res.Errors += st.Errors
		res.QueryRetries += st.QueryRetries
		res.Retries += st.Retries
		res.FaultsSeen += st.FaultsSeen
		res.Reconnects += st.Reconnects
	}
	return res, nil
}

// chaosRun is one fault schedule of the -chaos sweep.
type chaosRun struct {
	Schedule string     `json:"schedule"`
	Run      loadResult `json:"run"`
	// Match reports whether the run reproduced the fault-free oracle:
	// same digest, same tuple count, zero unrecovered errors.
	Match bool `json:"match"`
}

// chaosReport is the -chaos JSON document.
type chaosReport struct {
	Oracle loadResult `json:"oracle"`
	Runs   []chaosRun `json:"runs"`
}

// chaosSchedule is one injected fault schedule.
type chaosSchedule struct {
	name string
	rule smoothscan.FaultRule
}

// chaosSchedules is the -chaos sweep.
var chaosSchedules = []chaosSchedule{
	{"transient r=0.05", smoothscan.FaultRule{Space: smoothscan.AnySpace, Kind: smoothscan.FaultTransient, Rate: 0.05}},
	{"transient r=0.15", smoothscan.FaultRule{Space: smoothscan.AnySpace, Kind: smoothscan.FaultTransient, Rate: 0.15}},
	{"corrupt r=0.05", smoothscan.FaultRule{Space: smoothscan.AnySpace, Kind: smoothscan.FaultCorrupt, Rate: 0.05}},
	{"latency r=0.50 +50u", smoothscan.FaultRule{Space: smoothscan.AnySpace, Kind: smoothscan.FaultLatency, Rate: 0.50, ExtraCost: 50}},
}

// chaosQueryRetries is the application-level retry budget chaos mode
// gives each query on top of the engine's page-level retry: transient
// decisions re-roll per attempt, so a recoverable schedule converges.
const chaosQueryRetries = 8

// runChaos verifies end-to-end fault recovery under concurrent load:
// the workload runs once fault-free to record the oracle digest, then
// once per injected fault schedule. Recovered runs must reproduce the
// oracle bit-for-bit; any divergence or unrecovered error fails the
// sweep. Fault decisions are seed-deterministic per (space, page,
// attempt); which attempt a page is at when concurrent clients race
// through the shared pool is scheduling-dependent, which is exactly
// the point — recovery must hold under any interleaving. Remotely the
// same holds with the wire in the loop: schedules are installed via
// fault administration, typed fault errors drive the same client-side
// retries, and the digest must still match the remote oracle.
func runChaos(ctx context.Context, h *harness, cfg loadConfig, seed int64, schedules []chaosSchedule, jsonOut string) error {
	oracle, err := runLoad(ctx, h, cfg)
	if err != nil {
		return err
	}
	if oracle.Errors > 0 {
		return fmt.Errorf("chaos: fault-free oracle run had %d errors", oracle.Errors)
	}
	fmt.Printf("ssload -chaos: fault-free oracle (%d clients x %d queries, mode=%s, digest %016x)\n",
		cfg.clients, cfg.queries, h.mode, oracle.Digest)
	oracle.print(os.Stdout)

	ccfg := cfg
	ccfg.retryFaults = chaosQueryRetries
	report := chaosReport{Oracle: oracle}
	failed := 0
	for _, sc := range schedules {
		if err := h.setFault(seed, &sc.rule); err != nil {
			return fmt.Errorf("chaos: installing schedule %q: %w", sc.name, err)
		}
		res, err := runLoad(ctx, h, ccfg)
		if cerr := h.setFault(0, nil); cerr != nil && err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("chaos: schedule %q: %w", sc.name, err)
		}
		match := res.Digest == oracle.Digest && res.Tuples == oracle.Tuples && res.Errors == 0
		if !match {
			failed++
		}
		verdict := "recovered, digest matches oracle"
		if !match {
			verdict = "DIVERGED from oracle"
		}
		fmt.Printf("chaos %-20s %s — %d faults, %d page retries, %d query re-runs, %d errors\n",
			sc.name, verdict, res.FaultsSeen, res.Retries, res.QueryRetries, res.Errors)
		report.Runs = append(report.Runs, chaosRun{Schedule: sc.name, Run: res, Match: match})
	}
	if jsonOut != "" {
		if err := writeJSON(jsonOut, report); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("chaos: %d of %d schedules diverged from the fault-free oracle", failed, len(schedules))
	}
	fmt.Printf("chaos: all %d schedules recovered to the oracle digest\n", len(schedules))
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
