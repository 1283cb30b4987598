// Package linttest runs one analyzer over a testdata package and checks
// its diagnostics against `// want "regexp"` comments, mirroring
// golang.org/x/tools/go/analysis/analysistest: every offending line in
// testdata carries a want comment whose regexp must match the diagnostic
// message produced there; diagnostics without a want, and wants without a
// diagnostic, both fail the test. Because waiver filtering happens in the
// shared runner (internal/lint/analysis), a testdata line carrying a
// //lint:<name> waiver and no want comment is exactly how suppression is
// locked under test.
package linttest

import (
	"regexp"
	"strconv"
	"testing"

	"appfit/internal/lint/analysis"
	"appfit/internal/lint/driver"
)

// wantRe matches `// want "..."` or `// want `+"`...`"+“ comments. The
// payload is a Go-quoted regexp.
var wantRe = regexp.MustCompile("// want (\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`)")

type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// Run loads the packages dir names (a path relative to the test's working
// directory, e.g. "testdata/src/a", or a pattern such as
// "testdata/src/b/..."), applies a with those packages as the module, and
// reports every mismatch between diagnostics and want comments as test
// errors.
func Run(t *testing.T, dir string, a *analysis.Analyzer) { //lint:unusedexport a test-helper package: analyzer tests call it
	t.Helper()
	pkgs, err := driver.Load(".", "./"+dir)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	diags, err := driver.Run(pkgs, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, dir, err)
	}
	var wants []*want
	for _, pkg := range pkgs {
		wants = append(wants, harvestWants(t, pkg)...)
	}
	checkWants(t, wants, diags)
}

// harvestWants collects the package's want comments.
func harvestWants(t *testing.T, pkg *driver.Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pat, err := unquote(m[1])
				if err != nil {
					t.Fatalf("%s: bad want payload %s: %v", pkg.Fset.Position(c.Pos()), m[1], err)
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s: bad want regexp %q: %v", pkg.Fset.Position(c.Pos()), pat, err)
				}
				pos := pkg.Fset.Position(c.Pos())
				wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
			}
		}
	}
	return wants
}

// checkWants matches wants 1:1 against diags by (file, line).
func checkWants(t *testing.T, wants []*want, diags []analysis.Diagnostic) {
	t.Helper()
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
}

// unquote decodes the want payload: a double-quoted Go string or a raw
// backquoted one.
func unquote(s string) (string, error) {
	if len(s) >= 2 && s[0] == '`' {
		return s[1 : len(s)-1], nil
	}
	return strconv.Unquote(s)
}
