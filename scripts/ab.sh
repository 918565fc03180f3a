#!/usr/bin/env bash
# ab.sh — the paired perf instrument: the working tree (B) against a
# ref (A), each side built from its own sources by its own bench/run.sh,
# every BENCHMARK.json workload run alternately A B / B A so that both
# sides see the same machine phases.
#
#   scripts/ab.sh <ref> [pairs=5] [seconds=4]
#
# Writes BENCH_e2e.json at the repository root: machine record, both
# commits, and per workload x end-to-end metric both medians, both
# quartile distances (Q3-Q1) and the pairs B won. Nothing under bench/
# is touched; the ref's sources are a `git archive` extract under
# .bench_build/ab/ (no worktree, so the repository's git metadata is
# never written), removed on exit; the per-run result files stay in
# .bench_build/ab/runs/ until the next invocation.
set -euo pipefail
ref="${1:?usage: scripts/ab.sh <ref> [pairs=5] [seconds=4]}"
pairs="${2:-5}"
seconds="${3:-4}"
seed=42

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
a_commit="$(git rev-parse --short "$ref^{commit}")"
b_commit="$(git rev-parse --short HEAD)"
[ -z "$(git status --porcelain --untracked-files=no)" ] || b_commit="$b_commit+uncommitted"

a_root="$root/.bench_build/ab/$a_commit"
runs="$root/.bench_build/ab/runs"
cleanup() { rm -rf "$a_root"; }
trap cleanup EXIT
cleanup
rm -rf "$runs"
mkdir -p "$runs" "$a_root"
git archive "$a_commit" | tar -x -C "$a_root"

# One run of one side; run.sh rebuilds (from cache after the first time).
run() { # side-root workload out-file
	(cd "$1" && bash bench/run.sh --workload "$2" --seed "$seed" --seconds "$seconds" --trace 0 --out "$3" >/dev/null)
}

workloads="$(jq -r '.workloads[].name' BENCHMARK.json)"
for w in $workloads; do
	for i in $(seq 1 "$pairs"); do
		first=A second=B
		[ $((i % 2)) -eq 1 ] || first=B second=A
		for side in $first $second; do
			side_root="$root"
			[ "$side" = B ] || side_root="$a_root"
			echo "ab: $w pair $i/$pairs side $side" >&2
			run "$side_root" "$w" "$runs/$w.$i.$side.json"
		done
	done
done

cpu="$(awk -F': ' '/^model name/ {print $2; exit}' /proc/cpuinfo 2>/dev/null || true)"
jq -n \
	--arg a "$a_commit" --arg b "$b_commit" --arg ref "$ref" \
	--argjson pairs "$pairs" --argjson seconds "$seconds" --argjson seed "$seed" \
	--arg date "$(date -u +%Y-%m-%dT%H:%M:%SZ)" --arg os "$(uname -srm)" --arg cpu "$cpu" \
	--argjson cpus "$(nproc)" --arg go "$(go env GOVERSION)" \
	--slurpfile spec BENCHMARK.json \
	--slurpfile files <(jq -c '(input_filename | split("/") | last | split(".")) as $f
		| {workload, pair: ($f[1] | tonumber), side: $f[2], failed, metrics: (.metrics | map_values(.value))}' "$runs"/*.json) '
	def quantile(p): sort as $v | ((($v | length) - 1) * p) as $h | ($h | floor) as $lo
		| $v[$lo] + ($h - $lo) * (($v[$lo + 1] // $v[$lo]) - $v[$lo]);
	def summary: {median: quantile(0.5), iqr: (quantile(0.75) - quantile(0.25))};
	# The runs of one side of one workload, in pair order.
	def side($w; $s): $files | sort_by(.pair)[] | select(.workload == $w and .side == $s);
	{
		machine: {date: $date, os: $os, cpu: $cpu, cpus: $cpus, go: $go},
		a: {ref: $ref, commit: $a}, b: {commit: $b},
		pairs: $pairs, seconds: $seconds, seed: $seed,
		note: "a = the ref, b = the working tree; per metric: median and quartile distance (Q3-Q1) of each side over the pairs, and the pairs in which b was strictly better",
		workloads: [ $spec[0].workloads[].name as $w | {
			name: $w,
			failed: {a: ([side($w; "A") | .failed] | add), b: ([side($w; "B") | .failed] | add)},
			metrics: [ $spec[0].end_to_end[] | . as $m
				| [side($w; "A") | .metrics[$m.name]] as $av
				| [side($w; "B") | .metrics[$m.name]] as $bv
				| {
					name: $m.name, unit: $m.unit, better: $m.better,
					a: ($av | summary), b: ($bv | summary),
					pairs_won_by_b: ([range(0; $pairs) | select(if $m.better == "lower" then $bv[.] < $av[.] else $bv[.] > $av[.] end)] | length)
				} ]
		} ]
	}' >BENCH_e2e.json
echo "ab: wrote BENCH_e2e.json ($a_commit vs $b_commit, $pairs pairs x ${seconds}s)" >&2
