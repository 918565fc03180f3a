package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"smoothscan"
	"smoothscan/internal/loadgen"
	"smoothscan/internal/server"
)

const (
	testRows   = 8000
	testDomain = 2000
	testSeed   = 7
	testShards = 2
)

var testOpts = smoothscan.Options{PoolPages: 64}

// settledGoroutines polls until the goroutine count returns to base or
// 5 s pass, and returns the last count.
func settledGoroutines(base int) int {
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestMain fails the run when goroutines outlive the tests — a client,
// a loopback server's session or a shard driver's pooled connection
// that a close left behind: after a passing run the count must return
// to its pre-run baseline within 5 s, or the survivors' stacks are
// printed and the binary exits 1.
func TestMain(m *testing.M) {
	base := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		if n := settledGoroutines(base); n > base {
			fmt.Fprintf(os.Stderr, "%d goroutines alive after the tests (baseline %d)\n", n, base)
			pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
			code = 1
		}
	}
	os.Exit(code)
}

func testConfig(prepared bool) loadConfig {
	return loadConfig{
		clients:     3,
		queries:     12,
		selectivity: 0.02,
		domain:      testDomain,
		seed:        testSeed,
		prepared:    prepared,
	}
}

// serve puts db behind a loopback server and returns its address.
func serve(t *testing.T, db *smoothscan.DB, faultAdmin bool) (*server.Server, string) {
	t.Helper()
	srv := server.New(db, server.Config{FaultAdmin: faultAdmin})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, srv.Addr().String()
}

func serveTable(t *testing.T, faultAdmin bool) (*server.Server, string) {
	t.Helper()
	db, err := loadgen.BuildDB(testRows, testDomain, testSeed, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	return serve(t, db, faultAdmin)
}

func serveShards(t *testing.T, faultAdmin bool) []string {
	t.Helper()
	addrs := make([]string, testShards)
	for i := range addrs {
		db, err := loadgen.BuildShardSlice(testRows, testDomain, testSeed, i, testShards, testOpts)
		if err != nil {
			t.Fatal(err)
		}
		_, addrs[i] = serve(t, db, faultAdmin)
	}
	return addrs
}

// remoteHarnesses builds the two remote topologies over fresh loopback
// servers holding the generator's table.
func remoteHarnesses(t *testing.T, faultAdmin bool) map[string]*harness {
	t.Helper()
	_, addr := serveTable(t, faultAdmin)
	remote, err := remoteHarness(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(remote.close)
	remoteSharded, err := remoteShardedHarness(serveShards(t, faultAdmin), testDomain)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(remoteSharded.close)
	return map[string]*harness{"remote": remote, "remote-sharded": remoteSharded}
}

// topologies builds the one harness all four ways over the same table.
func topologies(t *testing.T) map[string]*harness {
	t.Helper()
	hs := remoteHarnesses(t, true)
	db, err := loadgen.BuildDB(testRows, testDomain, testSeed, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	hs["local"] = localHarness(db)
	s, err := loadgen.BuildShardedDB(testRows, testDomain, testSeed, testShards, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	hs["sharded"] = shardedHarness(s)
	t.Cleanup(hs["local"].close)
	t.Cleanup(hs["sharded"].close)
	return hs
}

// The digest is the tool's whole claim: every topology, ad-hoc or
// prepared, returns exactly the same rows for the same workload.
func TestDigestAcrossTopologies(t *testing.T) {
	var want *loadResult
	for name, h := range topologies(t) {
		for _, prepared := range []bool{false, true} {
			res, err := runLoad(context.Background(), h, testConfig(prepared))
			if err != nil {
				t.Fatalf("%s prepared=%v: %v", name, prepared, err)
			}
			if res.Errors != 0 || res.Tuples == 0 || res.SimCost <= 0 {
				t.Fatalf("%s prepared=%v: %d errors, %d tuples, simcost %v", name, prepared, res.Errors, res.Tuples, res.SimCost)
			}
			if prepared && res.PlanReuseRate != 1 {
				t.Errorf("%s: prepared run reused its template on %.0f%% of queries, want all", name, res.PlanReuseRate*100)
			}
			if (h.sharded != nil) != (len(res.Shards) == testShards && res.ShardMode != "") {
				t.Errorf("%s: shard_mode %q with %d shard balances", name, res.ShardMode, len(res.Shards))
			}
			if want == nil {
				want = &res
			}
			if res.Digest != want.Digest || res.Tuples != want.Tuples {
				t.Errorf("%s prepared=%v: digest %016x over %d tuples, want %016x over %d",
					name, prepared, res.Digest, res.Tuples, want.Digest, want.Tuples)
			}
		}
	}
}

func TestChaosRecoversOnEveryTopology(t *testing.T) {
	transient := chaosSchedules[:1]
	for name, h := range topologies(t) {
		for _, prepared := range []bool{false, true} {
			if err := runChaos(context.Background(), h, testConfig(prepared), testSeed, transient, ""); err != nil {
				t.Errorf("%s prepared=%v: %v", name, prepared, err)
			}
		}
	}
}

// -chaos used to return before -prepare was looked at, so the sweep ran
// ad-hoc whatever the command line said.
func TestChaosHonoursPrepareFlag(t *testing.T) {
	srv, addr := serveTable(t, true)
	err := run([]string{"-chaos", "-prepare", "-addr", addr, "-domain", "2000", "-seed", "7",
		"-clients", "2", "-queries", "8", "-selectivity", "0.02"})
	if err != nil {
		t.Fatal(err)
	}
	if n := srv.Stats().StmtsPrepared; n == 0 {
		t.Error("-chaos -prepare prepared no statement on the server")
	}
}

// Cold starts and fault schedules are operator-granted (ssserver
// -fault-admin): without the grant a load still runs, on a warm pool,
// and only installing a schedule fails.
func TestServerWithoutFaultAdmin(t *testing.T) {
	for name, h := range remoteHarnesses(t, false) {
		res, err := runLoad(context.Background(), h, testConfig(false))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !h.noCold || res.Errors != 0 || res.Tuples == 0 {
			t.Errorf("%s: noCold=%v, %d errors, %d tuples", name, h.noCold, res.Errors, res.Tuples)
		}
		err = h.setFault(testSeed, &chaosSchedules[0].rule)
		if err == nil || !strings.Contains(err.Error(), "need ssserver -fault-admin") {
			t.Errorf("%s: refused fault install returned %v", name, err)
		}
	}
}

// TestKeyOrderRejectsDecrease: -ordered's check accepts a val sequence
// that never decreases, ties included, and fails the first row whose
// val is below its predecessor's.
func TestKeyOrderRejectsDecrease(t *testing.T) {
	var ok keyOrder
	for _, row := range [][]int64{{9, 1}, {4, 1}, {7, 3}, {2, 8}} {
		if err := ok.add(row); err != nil {
			t.Fatalf("sorted sequence refused at %v: %v", row, err)
		}
	}
	var bad keyOrder
	for _, row := range [][]int64{{0, 2}, {1, 5}} {
		if err := bad.add(row); err != nil {
			t.Fatalf("row %v refused: %v", row, err)
		}
	}
	if err := bad.add([]int64{2, 4}); err == nil {
		t.Fatal("val 4 after 5 accepted")
	}
}
