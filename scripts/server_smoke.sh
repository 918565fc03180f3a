#!/usr/bin/env bash
# Server smoke: boot ssserver on an ephemeral port and drive it with
# ssload -addr, both race-instrumented. Three remote runs — plain,
# prepared-statement and chaos — must finish with zero failed queries
# (-require-clean), the plain run must report nonzero client-observed
# throughput, the prepared run must reproduce the plain run's result
# digest, and the server's summary must count at least one Prepare per
# prepared-run client. Each query matches about 3 200 rows, so its
# result streams as several Batch frames, and the summary must count
# more batches than queries. This is the CI proof that the wire path
# works end to end as processes, not just in-process test harnesses.
set -euo pipefail
cd "$(dirname "$0")/.."

GO=${GO:-go}
TMP="$(mktemp -d)"
SRV_PID=
cleanup() {
	if [ -n "$SRV_PID" ] && kill -0 "$SRV_PID" 2>/dev/null; then
		kill "$SRV_PID" 2>/dev/null || true
		wait "$SRV_PID" 2>/dev/null || true
	fi
	rm -rf "$TMP"
}
trap cleanup EXIT

echo "server-smoke: building race-instrumented binaries"
$GO build -race -o "$TMP/ssserver" ./cmd/ssserver
$GO build -race -o "$TMP/ssload" ./cmd/ssload

ROWS=40000 DOMAIN=20000 SEED=7
# 8% of the domain: about 3 200 rows a query, at least three Batch
# frames of up to 1 024 rows.
SEL=0.08
# -fault-admin so the remote harness can cold-start the pool between
# measurement windows and the chaos run can install fault schedules.
"$TMP/ssserver" -addr 127.0.0.1:0 -rows "$ROWS" -domain "$DOMAIN" -seed "$SEED" \
	-pool 512 -fault-admin >"$TMP/server.log" 2>&1 &
SRV_PID=$!

# The server prints "... on 127.0.0.1:<port>" once listening; scrape
# the ephemeral port from its log rather than racing for a fixed one.
ADDR=
for _ in $(seq 1 100); do
	ADDR="$(sed -n 's/.* on \(127\.0\.0\.1:[0-9][0-9]*\)$/\1/p' "$TMP/server.log" | head -n 1)"
	[ -n "$ADDR" ] && break
	if ! kill -0 "$SRV_PID" 2>/dev/null; then
		cat "$TMP/server.log" >&2
		echo "server-smoke: ssserver died during startup" >&2
		exit 1
	fi
	sleep 0.1
done
if [ -z "$ADDR" ]; then
	cat "$TMP/server.log" >&2
	echo "server-smoke: ssserver never reported a listen address" >&2
	exit 1
fi
echo "server-smoke: ssserver up on $ADDR"

echo "server-smoke: plain remote load"
"$TMP/ssload" -addr "$ADDR" -domain "$DOMAIN" -seed "$SEED" \
	-clients 4 -queries 24 -selectivity "$SEL" \
	-require-clean -json "$TMP/plain.json"

grep -q '"mode": *"remote"' "$TMP/plain.json" || {
	echo "server-smoke: plain run did not report remote mode" >&2
	exit 1
}
TPS="$(tr ',{}' '\n' <"$TMP/plain.json" | sed -n 's/.*"tuples_per_s": *\([0-9.eE+-]*\).*/\1/p' | head -n 1)"
awk -v t="${TPS:-0}" 'BEGIN { exit (t + 0 > 0) ? 0 : 1 }' || {
	echo "server-smoke: remote throughput is zero (tuples_per_s=$TPS)" >&2
	exit 1
}
echo "server-smoke: remote throughput $TPS tuples/s"

echo "server-smoke: prepared-statement remote load"
"$TMP/ssload" -addr "$ADDR" -domain "$DOMAIN" -seed "$SEED" \
	-clients 4 -queries 24 -selectivity "$SEL" -prepare \
	-require-clean -json "$TMP/prepared.json"

digest() {
	sed -n 's/.*"digest": *\([0-9][0-9]*\).*/\1/p' "$1" | head -n 1
}
D_PLAIN="$(digest "$TMP/plain.json")"
D_PREPARED="$(digest "$TMP/prepared.json")"
if [ -z "$D_PLAIN" ] || [ "$D_PLAIN" != "$D_PREPARED" ]; then
	echo "server-smoke: digests diverged: plain=$D_PLAIN prepared=$D_PREPARED" >&2
	exit 1
fi
echo "server-smoke: digest $D_PLAIN identical across plain and prepared"

echo "server-smoke: chaos remote load (typed faults over the wire)"
"$TMP/ssload" -addr "$ADDR" -domain "$DOMAIN" -seed "$SEED" \
	-clients 2 -queries 12 -selectivity "$SEL" -chaos \
	-require-clean -json "$TMP/chaos.json"

kill -TERM "$SRV_PID"
wait "$SRV_PID" || true
SRV_PID=
echo "server-smoke: server summary:"
grep '^ssserver: served\|^ssserver: .*stmts prepared' "$TMP/server.log" || cat "$TMP/server.log"
PREPARED="$(sed -n 's/^ssserver: \([0-9][0-9]*\) stmts prepared.*/\1/p' "$TMP/server.log" | head -n 1)"
if [ "${PREPARED:-0}" -lt 4 ]; then
	echo "server-smoke: server counted ${PREPARED:-no} prepared statements, want >= 4 (one per client)" >&2
	exit 1
fi
QUERIES="$(sed -n 's/^ssserver: served .*, \([0-9][0-9]*\) queries (.*/\1/p' "$TMP/server.log" | head -n 1)"
BATCHES="$(sed -n 's/^ssserver: served .* in \([0-9][0-9]*\) batches$/\1/p' "$TMP/server.log" | head -n 1)"
if [ -z "$QUERIES" ] || [ "${BATCHES:-0}" -le "$QUERIES" ]; then
	echo "server-smoke: server sent ${BATCHES:-no} batches for ${QUERIES:-no} queries, want more batches than queries" >&2
	exit 1
fi
echo "server-smoke: OK"
