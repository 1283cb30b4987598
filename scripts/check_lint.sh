#!/bin/sh
# check_lint.sh — the `make check-lint` gate: appfitlint must pass clean
# over the whole module, and then demonstrably FAIL on a seeded violation,
# so a silently broken analyzer (loading nothing, or reporting nothing)
# cannot masquerade as a green gate. The seeded violations are the
# analyzers' own testdata packages: they sit under testdata/ so ./...
# skips them, but an explicit path loads them like any other package.
set -eu

GO=${GO:-go}

# 1. The real gate: the module itself must be clean.
$GO run ./cmd/appfitlint ./...

# 2. Self-test: every analyzer must still fire on its seeded testdata.
#    `go run` exits 1 when findings are reported; any other status (0 =
#    analyzer went blind, 2 = load/usage error) fails the gate.
for a in maporder simdet lockedfield wraperr unusedexport; do
	status=0
	$GO run ./cmd/appfitlint -run "$a" "./internal/lint/$a/testdata/src/a" \
		>/dev/null 2>&1 || status=$?
	if [ "$status" -ne 1 ]; then
		echo "check_lint: $a did not fail on its seeded testdata (exit $status)" >&2
		exit 1
	fi
done

# 3. unusedexport must also stay silent where a caller, an exemption or a
#    waiver keeps an export: an over-eager analyzer fails here, not later
#    on real code. neg/... loads the second package that calls neg.
d=./internal/lint/unusedexport/testdata/src
if ! $GO run ./cmd/appfitlint -run unusedexport "$d/neg/..." "$d/waiver" >/dev/null 2>&1; then
	echo "check_lint: unusedexport fired on its negative or waiver testdata" >&2
	exit 1
fi

echo "check-lint: module clean; all 5 analyzers fire on seeded violations; unusedexport is silent on its negative and waiver testdata"
