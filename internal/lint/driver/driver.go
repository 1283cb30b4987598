// Package driver loads Go packages with full type information for the
// appfitlint analyzers — the stdlib-only stand-in for go/packages. It
// shells out to `go list -export -deps -json`, which compiles every
// dependency into the build cache and reports the export-data archive per
// package; target packages are then parsed from source and type-checked
// with go/types, resolving every import (stdlib and intra-module alike)
// through those archives via go/importer's gc importer. No network, no
// third-party modules, bitwise the same type information the compiler
// used.
package driver

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"

	"appfit/internal/lint/analysis"
)

// ErrLoad is the sentinel wrapped by every package-loading failure, so
// drivers can distinguish "could not load" (exit 2) from "found
// violations" (exit 1).
var ErrLoad = errors.New("lint: load failed")

// Package is one loaded, type-checked target package.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	analysis.Unit
}

// listPkg is the subset of `go list -json` fields the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load lists patterns from dir (module-aware, exactly like the go tool)
// and returns every matched package parsed and type-checked. Test files
// are not loaded — the contracts the suite enforces bind shipped code;
// tests measure wall time and drive goroutines on purpose.
func Load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,DepOnly,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%w: go list %v: %v\n%s", ErrLoad, patterns, err, stderr.String())
	}

	exports := map[string]string{}
	var targets []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("%w: decoding go list output: %v", ErrLoad, err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("%w: %s: %s", ErrLoad, p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			targets = append(targets, p)
		}
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("%w: no packages match %v", ErrLoad, patterns)
	}

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)

	var pkgs []*Package
	for _, t := range targets {
		var files []*ast.File
		for _, name := range t.GoFiles {
			af, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrLoad, err)
			}
			files = append(files, af)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Implicits:  map[ast.Node]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Scopes:     map[ast.Node]*types.Scope{},
		}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(t.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("%w: type-checking %s: %v", ErrLoad, t.ImportPath, err)
		}
		pkgs = append(pkgs, &Package{
			ImportPath: t.ImportPath,
			Dir:        t.Dir,
			Fset:       fset,
			Unit:       analysis.Unit{Files: files, Pkg: tp, TypesInfo: info},
		})
	}
	return pkgs, nil
}

// Run applies analyzers to every loaded package, each seeing the others
// as its module: waivers filtered, sorted per package, packages in load
// order.
func Run(pkgs []*Package, analyzers []*analysis.Analyzer) ([]analysis.Diagnostic, error) {
	module := make([]analysis.Unit, len(pkgs))
	for i, p := range pkgs {
		module[i] = p.Unit
	}
	var all []analysis.Diagnostic
	for _, p := range pkgs {
		diags, err := analysis.Run(p.Fset, p.Unit, module, analyzers)
		if err != nil {
			return nil, err
		}
		all = append(all, diags...)
	}
	return all, nil
}
