// Package analysis defines the analyzer interface of the appfitlint suite.
// It deliberately mirrors golang.org/x/tools/go/analysis — Analyzer, Pass,
// Diagnostic — so each checker reads like a standard go/analysis analyzer
// and could be rebased onto the real framework by swapping one import. The
// container this repo builds in has no module proxy, so the suite runs on
// this stdlib-only twin instead: type information comes from
// `go list -export` build-cache archives (internal/lint/driver) rather
// than go/packages.
//
// Suppression is part of the contract, not of any one analyzer: a
// diagnostic is waived when the offending line — or the line directly
// above it — carries a `//lint:<analyzer>` comment. Waivers are the
// documented escape hatch for deliberate contract exceptions (DESIGN.md
// §14); they read as `//lint:simdet wall-clock service metric`, with
// everything after the analyzer name a human reason.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
)

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in output and in //lint:<name> waivers.
	Name string
	// Doc is the one-paragraph contract the analyzer enforces.
	Doc string
	// Run inspects the pass's package and reports findings via
	// pass.Reportf. The error return is for analyzer malfunction, never
	// for findings.
	Run func(pass *Pass) error
}

// Unit is one loaded, type-checked package: its non-test files, types and
// type information.
type Unit struct {
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
}

// Pass carries one package's syntax and types to one analyzer, mirroring
// analysis.Pass, plus every package loaded alongside it.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Unit
	// Module is every package of the run, this one included. Per-package
	// analyzers ignore it; unusedexport looks in it for callers.
	Module []Unit

	diags *[]Diagnostic
}

// Diagnostic is one finding, positioned and attributed to its analyzer.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// waiverRe extracts the analyzer name of a //lint:<name> waiver comment.
// The comment may carry a trailing free-form reason.
var waiverRe = regexp.MustCompile(`^//lint:([a-z]+)`)

// waivers maps file line → set of analyzer names waived on that line.
func waivers(fset *token.FileSet, file *ast.File) map[int]map[string]bool {
	w := map[int]map[string]bool{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			m := waiverRe.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			line := fset.Position(c.Pos()).Line
			if w[line] == nil {
				w[line] = map[string]bool{}
			}
			w[line][m[1]] = true
		}
	}
	return w
}

// Run executes analyzers over one type-checked package of module and
// returns the surviving diagnostics: findings on a line carrying (or directly under) a
// matching //lint:<name> waiver are dropped. Diagnostics come back sorted
// by position then analyzer, so output is deterministic however analyzers
// iterate.
func Run(fset *token.FileSet, u Unit, module []Unit, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Fset: fset, Unit: u, Module: module, diags: &diags}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, u.Pkg.Path(), err)
		}
	}

	// Build the waiver index per file once, then filter.
	waived := map[string]map[int]map[string]bool{}
	for _, f := range u.Files {
		pos := fset.Position(f.Pos())
		waived[pos.Filename] = waivers(fset, f)
	}
	kept := diags[:0]
	for _, d := range diags {
		byLine := waived[d.Pos.Filename]
		if byLine[d.Pos.Line][d.Analyzer] || byLine[d.Pos.Line-1][d.Analyzer] {
			continue
		}
		kept = append(kept, d)
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return kept, nil
}
