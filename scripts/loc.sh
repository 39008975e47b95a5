#!/usr/bin/env bash
# Prints the non-test Go lines (wc -l over *.go minus *_test.go) of every
# package directory and the total, excluding benchmark/ — the number
# ROADMAP item 3 ("one path per job") tracks. Counts tracked and
# untracked files alike, so it reads the working tree, not a commit.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
find . -name '*.go' ! -name '*_test.go' \
	! -path './benchmark/*' ! -path './.bench_build/*' -print0 |
	xargs -0 wc -l |
	awk '$2 != "total" {
		dir = $2; sub(/\/[^\/]*$/, "", dir); sub(/^\.\/?/, "", dir)
		if (dir == "") dir = "."
		lines[dir] += $1; total += $1
	}
	END {
		for (d in lines) printf "%7d  %s\n", lines[d], d | "sort -k2"
		close("sort -k2")
		printf "%7d  total\n", total
	}'
