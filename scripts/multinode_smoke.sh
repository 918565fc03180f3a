#!/usr/bin/env bash
# Multinode smoke: boot N race-instrumented ssserver shard nodes (each
# serving its BuildShardSlice of the shared generator's table) and
# drive them with a remote-sharded ssload (-shard-addrs), plain and
# prepared. Both runs must finish with zero failed queries, report
# shard_mode "remote" with a per-shard balance, and — the actual
# equivalence proof — both reproduce the exact result digest of an
# in-process run of the same workload, sharded and unsharded. The
# digest is an order-independent checksum over every result row, so a
# match means the scatter-gather over real processes returned exactly
# the rows the embedded engine does. Each query matches about 3 200
# rows, so a shard's result streams as several Batch frames, and each
# node's summary must count more batches than queries.
set -euo pipefail
cd "$(dirname "$0")/.."

GO=${GO:-go}
SHARDS=${SHARDS:-2}
TMP="$(mktemp -d)"
SRV_PIDS=()
cleanup() {
	for pid in "${SRV_PIDS[@]}"; do
		if kill -0 "$pid" 2>/dev/null; then
			kill "$pid" 2>/dev/null || true
			wait "$pid" 2>/dev/null || true
		fi
	done
	rm -rf "$TMP"
}
trap cleanup EXIT

echo "multinode-smoke: building race-instrumented binaries"
$GO build -race -o "$TMP/ssserver" ./cmd/ssserver
$GO build -race -o "$TMP/ssload" ./cmd/ssload

ROWS=40000 DOMAIN=20000 SEED=7

echo "multinode-smoke: booting $SHARDS shard nodes"
for i in $(seq 0 $((SHARDS - 1))); do
	"$TMP/ssserver" -addr 127.0.0.1:0 -rows "$ROWS" -domain "$DOMAIN" -seed "$SEED" \
		-pool 512 -fault-admin -shard-id "$i" -shard-count "$SHARDS" \
		>"$TMP/server$i.log" 2>&1 &
	SRV_PIDS+=($!)
done

# Each node prints "... on 127.0.0.1:<port>" once listening; scrape
# the ephemeral ports rather than racing for fixed ones.
ADDRS=
for i in $(seq 0 $((SHARDS - 1))); do
	ADDR=
	for _ in $(seq 1 100); do
		ADDR="$(sed -n 's/.* on \(127\.0\.0\.1:[0-9][0-9]*\)$/\1/p' "$TMP/server$i.log" | head -n 1)"
		[ -n "$ADDR" ] && break
		if ! kill -0 "${SRV_PIDS[$i]}" 2>/dev/null; then
			cat "$TMP/server$i.log" >&2
			echo "multinode-smoke: shard $i died during startup" >&2
			exit 1
		fi
		sleep 0.1
	done
	if [ -z "$ADDR" ]; then
		cat "$TMP/server$i.log" >&2
		echo "multinode-smoke: shard $i never reported a listen address" >&2
		exit 1
	fi
	ADDRS="${ADDRS:+$ADDRS,}$ADDR"
done
echo "multinode-smoke: shard nodes up on $ADDRS"

# 8% of the domain: about 3 200 rows a query, at least three Batch
# frames of up to 1 024 rows from the shard that holds the range.
LOAD_FLAGS=(-domain "$DOMAIN" -seed "$SEED" -clients 4 -queries 24 -selectivity 0.08)

echo "multinode-smoke: remote-sharded load"
"$TMP/ssload" -shard-addrs "$ADDRS" "${LOAD_FLAGS[@]}" \
	-require-clean -json "$TMP/remote.json"

grep -q '"shard_mode": *"remote"' "$TMP/remote.json" || {
	echo "multinode-smoke: run did not report shard_mode remote" >&2
	exit 1
}
grep -q '"shards": *\[' "$TMP/remote.json" || {
	echo "multinode-smoke: run did not report a per-shard balance" >&2
	exit 1
}

echo "multinode-smoke: remote-sharded prepared load"
"$TMP/ssload" -shard-addrs "$ADDRS" "${LOAD_FLAGS[@]}" -prepare \
	-require-clean -json "$TMP/prepared.json"

echo "multinode-smoke: in-process reference runs"
"$TMP/ssload" -rows "$ROWS" -shards "$SHARDS" "${LOAD_FLAGS[@]}" \
	-require-clean -json "$TMP/local_sharded.json" >/dev/null
"$TMP/ssload" -rows "$ROWS" "${LOAD_FLAGS[@]}" \
	-require-clean -json "$TMP/local.json" >/dev/null

digest() {
	sed -n 's/.*"digest": *\([0-9][0-9]*\).*/\1/p' "$1" | head -n 1
}
D_REMOTE="$(digest "$TMP/remote.json")"
D_PREPARED="$(digest "$TMP/prepared.json")"
D_SHARDED="$(digest "$TMP/local_sharded.json")"
D_LOCAL="$(digest "$TMP/local.json")"
if [ -z "$D_REMOTE" ] || [ "$D_REMOTE" != "$D_PREPARED" ] || [ "$D_REMOTE" != "$D_SHARDED" ] || [ "$D_REMOTE" != "$D_LOCAL" ]; then
	echo "multinode-smoke: digests diverged: remote=$D_REMOTE prepared=$D_PREPARED sharded=$D_SHARDED local=$D_LOCAL" >&2
	exit 1
fi
echo "multinode-smoke: digest $D_REMOTE identical across remote-sharded (plain and prepared), in-process sharded and unsharded"

for pid in "${SRV_PIDS[@]}"; do
	kill -TERM "$pid" 2>/dev/null || true
	wait "$pid" 2>/dev/null || true
done
SRV_PIDS=()
for i in $(seq 0 $((SHARDS - 1))); do
	echo "multinode-smoke: shard $i summary:"
	grep '^ssserver: served' "$TMP/server$i.log" || cat "$TMP/server$i.log"
	QUERIES="$(sed -n 's/^ssserver: served .*, \([0-9][0-9]*\) queries (.*/\1/p' "$TMP/server$i.log" | head -n 1)"
	BATCHES="$(sed -n 's/^ssserver: served .* in \([0-9][0-9]*\) batches$/\1/p' "$TMP/server$i.log" | head -n 1)"
	if [ -z "$QUERIES" ] || [ "${BATCHES:-0}" -le "$QUERIES" ]; then
		echo "multinode-smoke: shard $i sent ${BATCHES:-no} batches for ${QUERIES:-no} queries, want more batches than queries" >&2
		exit 1
	fi
done
echo "multinode-smoke: OK"
