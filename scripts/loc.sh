#!/bin/sh
# loc.sh — the ruler simplicity PRs quote: non-blank, non-comment lines
# of non-test Go outside the benchmark module and its build cache.
# Lines moved into test files, deleted comments and reformatting do not
# move it.
cd "$(dirname "$0")/.." || exit 1
find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' -print0 |
	xargs -0 cat | grep -vcE '^\s*(//.*)?$'
