#!/bin/sh
# Code-line count: non-test .go lines that are neither blank nor //-only,
# per package directory, with the totals the size claims in ROADMAP.md and
# CHANGES.md quote. Counts tracked and untracked-but-unignored files, so it
# reads the working tree, not the last commit.
set -eu
cd "$(dirname "$0")/.."

git ls-files --cached --others --exclude-standard -- '*.go' |
	grep -v '_test\.go$' |
	while read -r f; do
		[ -f "$f" ] && awk -v f="$f" '!/^[[:space:]]*($|\/\/)/ { n++ } END { print f, n + 0 }' "$f"
	done |
	awk '
	{
		file = $1; n = $2
		dir = file; if (!sub(/\/[^\/]*$/, "", dir)) dir = "."
		pkg[dir] += n; total += n
		if (file !~ /^benchmark\//) product += n
		if (file ~ /^internal\/dist\/(collectives|hier|vector)\.go$/) coll += n
	}
	END {
		for (d in pkg) printf "%7d  %s\n", pkg[d], d | "sort -k2"
		close("sort -k2")
		printf "%7d  internal/dist collectives.go + hier.go + vector.go\n", coll
		printf "%7d  product (outside benchmark/)\n", product
		printf "%7d  total\n", total
	}'
