// Package simdet forbids wall-clock reads and global pseudo-randomness
// inside the deterministic simulation packages. Those packages promise
// that a result is a pure function of the request — the sweep cache, the
// bitwise replay tests and the bench-compare vus/op gates all rest on it —
// so time must flow from internal/simtime's virtual clock and randomness
// from internal/xrand's seeded streams.
//
// A package is in scope when its import path sits under one of
// DefaultPackages, or when any of its files carries an
// `//appfit:deterministic` directive comment (how testdata and future
// packages opt in). In scope, any import of math/rand (v1 or v2) and any
// reference to a time.<clock> function (Now, Since, Until, Sleep, After,
// AfterFunc, Tick, NewTimer, NewTicker) is flagged. time.Time and
// time.Duration as data are fine — only reading the host clock is not.
// Deliberate wall-clock use (service-stage metrics) is waived with
// `//lint:simdet <reason>`.
package simdet

import (
	"go/ast"
	"go/types"
	"strings"

	"appfit/internal/lint/analysis"
)

// Analyzer is the simdet check.
var Analyzer = &analysis.Analyzer{
	Name: "simdet",
	Doc:  "forbids wall-clock and math/rand in deterministic simulation packages (use internal/simtime / internal/xrand)",
	Run:  run,
}

// DefaultPackages are the import-path roots whose results must be pure
// functions of their inputs. Sub-packages inherit the contract.
var DefaultPackages = []string{
	"appfit/internal/simnet",
	"appfit/internal/dist",
	"appfit/internal/sweep",
	"appfit/internal/cluster",
}

// Directive marks a package deterministic from inside one of its files.
const Directive = "//appfit:deterministic"

// clockFuncs are the time-package functions that read or wait on the host
// clock.
var clockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

func run(pass *analysis.Pass) error {
	if !deterministic(pass) {
		return nil
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			switch strings.Trim(imp.Path.Value, `"`) {
			case "math/rand", "math/rand/v2":
				pass.Reportf(imp.Pos(), "deterministic package imports %s: route randomness through internal/xrand's seeded streams", strings.Trim(imp.Path.Value, `"`))
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
			if !ok || pn.Imported().Path() != "time" {
				return true
			}
			if clockFuncs[sel.Sel.Name] {
				pass.Reportf(sel.Pos(), "deterministic package reads the wall clock via time.%s: route time through internal/simtime's virtual clock", sel.Sel.Name)
			}
			return true
		})
	}
	return nil
}

// deterministic reports whether the pass's package is under the simdet
// contract: a DefaultPackages root or an //appfit:deterministic directive.
func deterministic(pass *analysis.Pass) bool {
	path := pass.Pkg.Path()
	for _, root := range DefaultPackages {
		if path == root || strings.HasPrefix(path, root+"/") {
			return true
		}
	}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(c.Text, Directive) {
					return true
				}
			}
		}
	}
	return false
}
