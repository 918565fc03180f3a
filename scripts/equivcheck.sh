#!/bin/sh
# equivcheck.sh — the facade-compatibility gate: regenerates every
# experiment table of the reproduction harness (all simulated cost, so
# all deterministic) and diffs it byte-for-byte against the committed
# golden.
#
# If this diff fails, a change altered the engine's simulated I/O or
# CPU accounting (or result shapes). That is only acceptable when the
# paper-reproduction numbers are *supposed* to change; regenerate the
# golden deliberately with:
#
#   go run ./cmd/ssbench -exp all -format csv > testdata/ssbench_golden.csv
set -eu
cd "$(dirname "$0")/.."
out="$(mktemp)"
trap 'rm -f "$out"' EXIT
go run ./cmd/ssbench -exp all -format csv > "$out"
if ! diff -u testdata/ssbench_golden.csv "$out"; then
    echo "equivcheck: ssbench output drifted from testdata/ssbench_golden.csv" >&2
    exit 1
fi
echo "equivcheck: ssbench output byte-identical to the committed golden"
