// Package wraperr enforces the repo's named-error convention at package
// boundaries: an error returned by an exported function or method of an
// internal/ package must be a declared sentinel (`var ErrX = errors.New`),
// a named error type, a propagated error, or an fmt.Errorf that wraps one
// via %w. Ad-hoc `errors.New(...)` and `fmt.Errorf` without %w returned at
// a boundary break errors.Is/errors.As for every caller — including the
// HTTP wire, which maps admission and request errors back to sentinels
// client-side.
//
// The check is intra-procedural: it looks only at return statements of
// exported functions (and exported methods on exported types) and flags
// result expressions of error type that are textually errors.New(...) or
// fmt.Errorf with a %w-less constant format. Errors handed to unexported
// helpers, stored in structs, or built from non-constant formats pass
// through unflagged. A deliberate opaque error is waived with
// `//lint:wraperr <reason>`.
//
// Scope: packages under appfit/internal/, or any package whose files
// carry an `//appfit:wraperr` directive (how testdata opts in).
package wraperr

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"

	"appfit/internal/lint/analysis"
)

// Analyzer is the wraperr check.
var Analyzer = &analysis.Analyzer{
	Name: "wraperr",
	Doc:  "requires errors returned from exported internal/ functions to be sentinels, named types, or %w-wrapped",
	Run:  run,
}

// Directive opts a package into the boundary-error contract from a file
// comment.
const Directive = "//appfit:wraperr"

var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func run(pass *analysis.Pass) error {
	if !inScope(pass) {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !exportedBoundary(fn) {
				continue
			}
			checkReturns(pass, fn)
		}
	}
	return nil
}

// inScope reports whether the package is bound by the convention.
func inScope(pass *analysis.Pass) bool {
	path := pass.Pkg.Path()
	if strings.HasPrefix(path, "appfit/internal/") {
		return true
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

// exportedBoundary reports whether fn is callable across the package
// boundary: an exported function, or an exported method on an exported
// receiver type.
func exportedBoundary(fn *ast.FuncDecl) bool {
	if !fn.Name.IsExported() {
		return false
	}
	if fn.Recv == nil {
		return true
	}
	t := fn.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr: // generic receiver T[P]
			t = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return false
		}
	}
}

// checkReturns flags ad-hoc error constructions in fn's own return
// statements (returns inside func literals belong to the literal, not the
// boundary, and are skipped).
func checkReturns(pass *analysis.Pass, fn *ast.FuncDecl) {
	var stack []ast.Node
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		stack = append(stack, n)
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, anc := range stack[:len(stack)-1] {
			if _, ok := anc.(*ast.FuncLit); ok {
				return true
			}
		}
		for _, res := range ret.Results {
			checkResult(pass, fn, res)
		}
		return true
	})
}

// checkResult flags res when it is an error-typed ad-hoc construction.
func checkResult(pass *analysis.Pass, fn *ast.FuncDecl, res ast.Expr) {
	t := pass.TypesInfo.TypeOf(res)
	if t == nil || !types.Implements(t, errorType) {
		return
	}
	call, ok := res.(*ast.CallExpr)
	if !ok {
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok {
		return
	}
	switch {
	case pn.Imported().Path() == "errors" && sel.Sel.Name == "New":
		pass.Reportf(res.Pos(), "%s returns an ad-hoc errors.New across the package boundary: declare a sentinel (var ErrX = errors.New) so callers can errors.Is it, or waive with //lint:wraperr", fn.Name.Name)
	case pn.Imported().Path() == "fmt" && sel.Sel.Name == "Errorf":
		if format, ok := constFormat(pass, call); ok && !strings.Contains(format, "%w") {
			pass.Reportf(res.Pos(), "%s returns fmt.Errorf without %%w across the package boundary: wrap a sentinel with %%w so errors.Is keeps working, or waive with //lint:wraperr", fn.Name.Name)
		}
	}
}

// constFormat returns the constant format string of an fmt.Errorf call.
func constFormat(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	if len(call.Args) == 0 {
		return "", false
	}
	tv, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
