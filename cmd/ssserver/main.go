// Command ssserver serves a smoothscan engine over the wire protocol
// (see docs/PROTOCOL.md): it bulk-loads the same synthetic table
// ssload generates locally, then accepts smoothscan.Conn sessions with
// prepared statements, admission control and fault injection.
//
// Usage:
//
//	ssserver -addr :7744 -rows 200000
//	ssserver -addr :7744 -fault-rate 0.05 -fault-seed 7
//	ssserver -addr :7744 -fault-admin   # let ssload -chaos drive faults
//
// The data generator is shared with ssload (internal/loadgen), so a
// remote run against the same -rows/-domain/-seed serves exactly the
// rows an in-process run would see — the remote-equivalence property
// the test suite checks end to end.
//
// Admission control has two layers: connections beyond -max-conns are
// rejected at accept time with an overloaded error frame (a client's
// Dial fails typed, it never hangs), and queries beyond -max-inflight
// queue up to -queue-deadline before being shed the same way.
// Sessions silent longer than -idle-timeout are closed server-side
// with a typed session-closed error, and so are sessions whose client
// stops reading a result for as long (the blocked write times out).
//
// With -fault-rate > 0 the server's simulated device starts with a
// deterministic fault-injection policy attached, so remote clients
// observe the engine's degradation ladders and typed error classes
// over the wire. -fault-admin additionally lets clients install and
// clear fault schedules themselves (ssload -chaos -addr needs it);
// leave it off outside test rigs.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"smoothscan"
	"smoothscan/internal/loadgen"
	"smoothscan/internal/server"
)

func main() {
	var (
		addr          = flag.String("addr", "127.0.0.1:7744", "listen address (host:port, :0 for an ephemeral port)")
		rows          = flag.Int64("rows", 200_000, "table rows (10 int64 columns, like the paper's micro table)")
		domain        = flag.Int64("domain", 100_000, "indexed-column value domain")
		seed          = flag.Int64("seed", 42, "generator seed")
		pool          = flag.Int("pool", 2048, "buffer pool pages")
		maxConns      = flag.Int("max-conns", 64, "max concurrently open sessions; more are rejected typed at accept")
		maxInflight   = flag.Int("max-inflight", 16, "max queries executing at once across all sessions")
		queueDeadline = flag.Duration("queue-deadline", 2*time.Second, "how long a query may wait for an admission slot before a typed overloaded reject")
		idleTimeout   = flag.Duration("idle-timeout", 0, "close sessions silent longer than this (0 disables)")
		faultSeed     = flag.Int64("fault-seed", 1, "fault-injection decision seed (with -fault-rate)")
		faultRate     = flag.Float64("fault-rate", 0, "attach a fault policy with this per-read fault probability (0 disables)")
		faultKind     = flag.String("fault-kind", "transient", "injected fault kind: transient, permanent, latency, corrupt")
		faultExtra    = flag.Float64("fault-extra-cost", 50, "extra simulated cost per latency fault (with -fault-kind latency)")
		faultAdmin    = flag.Bool("fault-admin", false, "allow clients to install/clear fault policies over the wire (ssload -chaos -addr needs this)")
		shardID       = flag.Int("shard-id", -1, "serve only shard N of a -shard-count-way placement instead of the whole table (pair with ssload -shard-addrs; -1 = unsharded)")
		shardCount    = flag.Int("shard-count", 0, "total shards in the placement (with -shard-id)")
		resCacheBytes = flag.Int64("result-cache-bytes", 0, "result-cache tier byte budget (0 disables; repeated queries are then served with zero device I/O)")
		verbose       = flag.Bool("v", false, "log session lifecycle events")
	)
	flag.Parse()

	sharded := *shardID >= 0
	if sharded && *shardCount < 1 {
		fatal(fmt.Errorf("-shard-id %d needs -shard-count >= 1", *shardID))
	}
	if sharded && *shardID >= *shardCount {
		fatal(fmt.Errorf("-shard-id %d out of range [0, %d)", *shardID, *shardCount))
	}
	if !sharded && *shardCount > 0 {
		fatal(fmt.Errorf("-shard-count needs -shard-id"))
	}

	opts := smoothscan.Options{
		PoolPages:        *pool,
		ResultCacheBytes: *resCacheBytes,
	}
	var db *smoothscan.DB
	var err error
	if sharded {
		// This node owns one horizontal slice of the shared generator's
		// table; a remote-sharded coordinator (ssload -shard-addrs, or
		// smoothscan.OpenShardedRemote) gathers the slices back into the
		// whole table.
		db, err = loadgen.BuildShardSlice(*rows, *domain, *seed, *shardID, *shardCount, opts)
	} else {
		db, err = loadgen.BuildDB(*rows, *domain, *seed, opts)
	}
	if err != nil {
		fatal(err)
	}
	if *faultRate > 0 {
		kind, err := parseFaultKind(*faultKind)
		if err != nil {
			fatal(err)
		}
		db.SetFaultPolicy(smoothscan.NewFaultPolicy(*faultSeed, smoothscan.FaultRule{
			Space:     smoothscan.AnySpace,
			Kind:      kind,
			Rate:      *faultRate,
			ExtraCost: *faultExtra,
		}))
		fmt.Printf("ssserver: fault policy attached (%s r=%.3f seed=%d)\n", *faultKind, *faultRate, *faultSeed)
	}

	cfg := server.Config{
		MaxConns:      *maxConns,
		MaxInFlight:   *maxInflight,
		QueueDeadline: *queueDeadline,
		IdleTimeout:   *idleTimeout,
		FaultAdmin:    *faultAdmin,
	}
	if *verbose {
		cfg.Logf = log.New(os.Stderr, "ssserver: ", log.LstdFlags).Printf
	}
	srv := server.New(db, cfg)
	if err := srv.Start(*addr); err != nil {
		fatal(err)
	}
	if sharded {
		fmt.Printf("ssserver: serving shard %d/%d of table %q (%d rows total, domain %d) on %s\n",
			*shardID, *shardCount, loadgen.Table, *rows, *domain, srv.Addr())
	} else {
		fmt.Printf("ssserver: serving table %q (%d rows, domain %d) on %s\n",
			loadgen.Table, *rows, *domain, srv.Addr())
	}
	fmt.Printf("ssserver: limits: %d conns, %d in flight (queue %s), idle timeout %s, fault admin %v\n",
		*maxConns, *maxInflight, *queueDeadline, *idleTimeout, *faultAdmin)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("ssserver: shutting down")
	if err := srv.Close(); err != nil {
		fatal(err)
	}
	st := srv.Stats()
	fmt.Printf("ssserver: served %d sessions, %d queries (%d failed, %d aborted, %d shed), %d rows in %d batches\n",
		st.SessionsTotal, st.QueriesServed, st.QueriesFailed, st.QueriesAborted, st.QueriesRejected, st.RowsSent, st.BatchesSent)
	fmt.Printf("ssserver: %d stmts prepared, %d cancels, %d idle closes, %d conns rejected, simcost %.1f\n",
		st.StmtsPrepared, st.Cancels, st.IdleCloses, st.ConnsRejected, st.DeviceSimCost)
	if *resCacheBytes > 0 {
		fmt.Printf("ssserver: result cache: %d hits, %d misses, %d invalidated, %d entries / %d bytes resident\n",
			st.ResultCacheHits, st.ResultCacheMisses, st.ResultCacheInvalidated, st.ResultCacheEntries, st.ResultCacheBytes)
	}
}

func parseFaultKind(s string) (smoothscan.FaultKind, error) {
	switch s {
	case "transient":
		return smoothscan.FaultTransient, nil
	case "permanent":
		return smoothscan.FaultPermanent, nil
	case "latency":
		return smoothscan.FaultLatency, nil
	case "corrupt":
		return smoothscan.FaultCorrupt, nil
	}
	return 0, fmt.Errorf("unknown -fault-kind %q (known: transient, permanent, latency, corrupt)", s)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ssserver:", err)
	os.Exit(1)
}
