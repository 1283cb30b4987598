// Package lint assembles the appfitlint analyzer suite — the compile-time
// sibling of the race detector in `make check` (DESIGN.md §14). Each
// analyzer enforces one hand-maintained contract the repo's correctness
// story rests on:
//
//   - maporder: map iteration order must never reach an output
//     (the PR 7 fault.Keyer and PR 8 dep-edge cache-key bugs);
//   - simdet: deterministic packages take time from internal/simtime and
//     randomness from internal/xrand, never the host;
//   - lockedfield: fields annotated `// guarded by <mu>` are only touched
//     under that mutex (the Profile.Entries lazy-cache pattern);
//   - wraperr: errors crossing internal/ package boundaries are sentinels
//     or %w-wraps, so errors.Is works over the facade and the wire;
//   - unusedexport: exported internal/ code has a non-test caller, so code
//     only tests reach is deleted rather than kept.
//
// cmd/appfitlint runs the suite over ./... as the `make check-lint` gate.
package lint

import (
	"appfit/internal/lint/analysis"
	"appfit/internal/lint/lockedfield"
	"appfit/internal/lint/maporder"
	"appfit/internal/lint/simdet"
	"appfit/internal/lint/unusedexport"
	"appfit/internal/lint/wraperr"
)

// Analyzers returns the full suite in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		lockedfield.Analyzer,
		maporder.Analyzer,
		simdet.Analyzer,
		unusedexport.Analyzer,
		wraperr.Analyzer,
	}
}
