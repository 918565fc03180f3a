GO ?= go

.PHONY: check fmt vet build test race examples bench-smoke bench-build ab-gate loc bench cover equiv chaos server-smoke multinode-smoke fuzz

## check: everything CI runs — format, vet, build, tests (incl. -race),
## the example programs, bench smoke, the bench/ module's own vet +
## test, the facade-equivalence golden diff, the coverage floor, the
## chaos sweep, and the client/server and multinode smokes.
check: fmt vet build test race examples bench-smoke bench-build equiv cover chaos server-smoke multinode-smoke

## COVER_FLOOR: minimum total statement coverage (percent) make cover accepts.
COVER_FLOOR ?= 70.0

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

## test: the suite, then the tests that assert determinism under
## parallelism (and the Row view contract over recycled buffers) again
## at several GOMAXPROCS — a single-P run cannot see that class of
## failure. The sharded statement tests ride along: each shard builds
## its bound query inside a gather worker goroutine, and so do the
## remote shard tests: a shard's Rows releases its connection and
## classifies a lost node inside the worker that drains it. The second
## line repeats the client/server stream-lifecycle tests (cancel, close
## before the first Next, a Conn closed under its stream, a reader that
## stops reading reaped by the idle write deadline, closes around each
## Batch edge) the same way.
## Pooled batches cross goroutines and queries, so the 2-shard byte
## budget rides on the first line, and a third repeats the exchange's
## batch-lifecycle tests. So does the exact-CPU-clock test: a parallel
## scan's workers only interleave their CPU charges on several cores;
## and so do the recoverable fault schedules, whose parallel full scan
## must meet the same per-page faults whatever the interleaving.
test:
	$(GO) test ./...
	$(GO) test -cpu 1,2,4 -count=5 -run 'TestStmtRunMatchesLiteralQuery|TestFaultRecoverableMatchesOracle|TestParallelSerialEquivalence|TestParallelFullScanEquivalence|TestParallelCPUIsExact|TestRowIsAViewUntilNext|TestShardedStmtStrategies|TestShardedStmtBindPruning|TestRemoteShardedPrepared|TestRemoteShardedEarlyClosePoolReuse|TestRemoteShardedFailover|TestCursorNoCurrentRow|TestShardedScanByteBudget' .
	$(GO) test -cpu 1,2,4 -count=5 -run 'TestCancelMidStream|TestCloseBeforeFirstNext|TestConnCloseEndsOpenStream|TestUnreadStreamIsReaped|TestCloseAfterKRows' ./internal/server
	$(GO) test -cpu 1,2,4 -count=5 -run 'TestExchangeBatchLifecycle|TestExchangeDropsSwappedArrays' ./internal/parallel

## race: the test suite under the race detector (the concurrent scan
## and session tests only prove anything when this runs), then the
## write-vs-scan race test again at several GOMAXPROCS: an Insert
## replacing a page a scan still holds only races with real
## parallelism. The per-query I/O account test rides along: concurrent
## queries charging the same device only overlap on several cores. So
## do distinct shapes compiled, evicted and keyed concurrently: a buffer
## shared between executions' cache keys only races on several cores.
## The last line repeats the device's concurrent-snapshot test: its
## atomic CPU tick counters only race on several cores.
race:
	$(GO) test -race ./...
	$(GO) test -race -cpu 2,4 -count=10 -run 'TestResultCacheInvalidationRace|TestQueryIOIsOwn|TestAdHocShapesConcurrent' .
	$(GO) test -race -cpu 2,4 -count=10 -run TestStatsConcurrentSnapshot ./internal/disk

## examples: run every examples/* program to completion; a non-zero
## exit fails the target. Their output goes to /dev/null, their errors
## to the terminal.
examples:
	@for d in examples/*/; do \
		echo "$(GO) run ./$$d"; \
		$(GO) run ./$$d > /dev/null || { echo "$$d exited non-zero" >&2; exit 1; }; \
	done

## bench-smoke: one iteration of every benchmark so they cannot rot.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

## bench-build: bench/ is a module of its own (BENCHMARK.json's
## harness), so build/test above never compile it; vet it and run its
## quick-scale test here so a public-API slip surfaces before the
## benchmark pipeline does.
bench-build:
	cd bench && $(GO) vet ./... && $(GO) test ./...

## AB_BASE: the ref ab-gate pairs the working tree against.
AB_BASE ?= HEAD~1

## ab-gate: one quick paired run of BENCHMARK.json against AB_BASE
## (scripts/ab.sh, 1 pair x 2 s; needs jq; overwrites BENCH_e2e.json),
## failing only on the cells no machine phase moves — simcost_per_query,
## allocs_per_query, alloc_kb_per_query beyond BENCHMARK.json's bounds,
## or more failed operations — and printing every other cell.
ab-gate:
	./scripts/ab.sh $(AB_BASE) 1 2
	@jq -r --slurpfile spec BENCHMARK.json -f scripts/ab_gate.jq BENCH_e2e.json

## loc: the code-line ruler simplicity PRs quote (see scripts/loc.sh).
loc:
	@./scripts/loc.sh

## bench: the real benchmark suite with allocation reporting.
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

## COVER_DIR: where coverage artifacts land — an ignored scratch dir,
## so `make cover` never strands a cover.out in the working tree.
COVER_DIR ?= tmp

## cover: the test suite with coverage, enforcing COVER_FLOOR on the total.
## -coverpkg counts cross-package coverage: ssclient and internal/loadgen
## are exercised by the server and remote-equivalence suites, not by
## same-package tests.
cover:
	@mkdir -p $(COVER_DIR)
	$(GO) test -coverprofile=$(COVER_DIR)/cover.out -coverpkg=./... ./...
	@total=$$($(GO) tool cover -func=$(COVER_DIR)/cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); 	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; 	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || 		{ echo "coverage $$total% is below the $(COVER_FLOOR)% floor" >&2; exit 1; }

## equiv: diff the deterministic ssbench experiments against the
## committed golden — proves facade/plan refactors left the simulated
## I/O and CPU accounting byte-identical.
equiv:
	./scripts/equivcheck.sh

## chaos: the fault-injection matrix under the race detector plus the
## ssload chaos sweep — recovered results must be byte-identical to
## the fault-free oracle, unrecoverable faults must surface as typed
## errors with no goroutine leaks. -cpu 4 gives the parallel full
## scans under fault schedules real concurrent workers. The second
## sweep runs the ordered Smooth Scan (Result Cache and all) under the
## same faults and clients.
chaos:
	$(GO) test -race -cpu 1,4 -run 'TestFault' -count=1 . ./internal/disk/
	$(GO) run ./cmd/ssload -chaos -rows 60000 -clients 4 -queries 32
	$(GO) run ./cmd/ssload -chaos -ordered -rows 60000 -clients 4 -queries 32

## fuzz: each fuzz target for 10 s, one go test per target (go
## test -fuzz takes one target at a time): the wire's message and frame
## decoders, its Error frames against the error class table, the batch
## codec's round trip, the query shape key's
## equivalence classes, hostile Execute payloads run through
## DB.ExecuteSpec, the heap's page kernel against its scalar oracle,
## and the B+-tree's leaf-at-a-time count against its Next loop.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeMessage$$' -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzErrorFrame$$' -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzBatchRoundTrip$$' -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzShapeKeyClasses$$' -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz '^FuzzExecuteSpec$$' -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz '^FuzzPageKernel$$' -fuzztime 10s ./internal/heap
	$(GO) test -run '^$$' -fuzz '^FuzzCountBelow$$' -fuzztime 10s ./internal/btree

## server-smoke: boot ssserver and drive it with ssload -addr, both
## race-instrumented — plain, prepared and chaos remote runs must be
## clean (zero failed queries) with nonzero client-observed throughput.
server-smoke:
	./scripts/server_smoke.sh

## multinode-smoke: boot N race-instrumented shard-node ssservers and
## drive them with a remote-sharded ssload (-shard-addrs) — clean runs
## whose result digest must be identical to in-process sharded and
## unsharded runs of the same workload.
multinode-smoke:
	./scripts/multinode_smoke.sh
