#!/usr/bin/env bash
# Builds the benchmark binary from the checkout's sources and runs it.
#
#   bench/run.sh --workload NAME --seed N --seconds S --trace 0|1   one run (BENCHMARK.json's command)
#   bench/run.sh [--seed N] [--quick] [--trace 0]                   every workload -> bench/results/latest.json
#   bench/run.sh --compare a.json b.json
#
# Everything the build writes stays inside the checkout (.bench_build/).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/bench" .)
BENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || true)"
export BENCH_COMMIT
cd "$root"
case " $* " in
*" --workload "* | *" --compare "* | *" --spec "*) exec "$build/bench" "$@" ;;
*) exec "$build/bench" --all "$@" ;;
esac
