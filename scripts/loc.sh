#!/usr/bin/env bash
# Prints the non-test Go lines (wc -l over *.go minus *_test.go) of every
# package directory and the total, excluding benchmark/ — the figure
# north star 2 ("one job, one mechanism") counts deletions in. Counts
# tracked and untracked files alike, so it reads the working tree, not a
# commit.
#
# Usage: scripts/loc.sh [REF]   (or: make loc BASE=REF)
#
# With a git ref it prints each package's count at that ref beside
# today's count and the delta.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# counts DIR prints "LINES PACKAGE" for every package directory of the
# tree rooted at DIR, then "LINES total".
counts() {
	(cd "$1" && find . -name '*.go' ! -name '*_test.go' \
		! -path './benchmark/*' ! -path './.bench_build/*' -print0 |
		xargs -0 -r wc -l |
		awk '$2 != "total" {
			dir = $2; sub(/\/[^\/]*$/, "", dir); sub(/^\.\/?/, "", dir)
			if (dir == "") dir = "."
			lines[dir] += $1; total += $1
		}
		END {
			for (d in lines) print lines[d], d
			print total + 0, "total"
		}')
}

if [ $# -eq 0 ]; then
	counts . | awk '$2 != "total" { printf "%7d  %s\n", $1, $2 | "sort -k2" }
		$2 == "total" { total = $1 }
		END { close("sort -k2"); printf "%7d  total\n", total }'
	exit 0
fi

base="$(mktemp -d)"
trap 'rm -rf "$base"' EXIT
git archive "$1" | tar -x -C "$base"
{
	counts "$base" | sed 's/^/base /'
	counts . | sed 's/^/now /'
} | awk -v ref="$1" '
	$1 == "base" { was[$3] = $2; seen[$3] = 1 }
	$1 == "now" { now[$3] = $2; seen[$3] = 1 }
	END {
		printf "%7s %7s %7s  %s\n", ref, "now", "delta", "package"
		for (d in seen) if (d != "total")
			printf "%7d %7d %+7d  %s\n", was[d], now[d], now[d] - was[d], d | "sort -k4"
		close("sort -k4")
		printf "%7d %7d %+7d  total\n", was["total"], now["total"], now["total"] - was["total"]
	}'
