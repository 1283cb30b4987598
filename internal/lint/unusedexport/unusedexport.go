// Package unusedexport reports exported code that only tests reach: an
// exported package-level func, type, var or const, or an exported method
// of a named type, declared in a non-test file of a package under an
// internal/ directory, that no non-test file of the module references.
// The declaring package's own files count as callers, but a declaration's
// references to itself do not (a recursive call, a type's own receivers).
// Every loaded package is a caller, so benchmark/ and cmd/ keep what they
// use alive; test files, doctests included, are never loaded.
//
// Exempt without a waiver: a method that an interface declared in the
// module or its imports (or error) names, when the receiver type or its
// pointer implements that interface; and Is, As and Unwrap, which errors
// calls through anonymous interfaces. Struct fields are out of scope.
// Anything else kept on purpose carries `//lint:unusedexport <reason>`
// (DESIGN.md §14 lists the allowed reasons).
package unusedexport

import (
	"go/ast"
	"go/types"
	"strings"

	"appfit/internal/lint/analysis"
)

// Analyzer is the unusedexport check.
var Analyzer = &analysis.Analyzer{
	Name: "unusedexport",
	Doc:  "reports exported internal/ code that no non-test file of the module references",
	Run:  run,
}

// key names a declaration the same way in every package. The driver
// type-checks each package from source and its importers from export
// data, so one declaration is a different types.Object in each.
type key struct{ path, recv, name string }

func keyOf(obj types.Object) key {
	k := key{path: obj.Pkg().Path(), name: obj.Name()}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				k.recv = n.Obj().Name()
			}
		}
	}
	return k
}

// errorsMethod is what errors.Is, errors.As and errors.Unwrap call.
var errorsMethod = map[string]bool{"Is": true, "As": true, "Unwrap": true}

func run(pass *analysis.Pass) error {
	if !strings.Contains("/"+pass.Pkg.Path()+"/", "/internal/") {
		return nil
	}
	used := callers(pass)
	var ifaces map[string][]*types.Interface
	for id, obj := range pass.TypesInfo.Defs {
		if obj == nil || !id.IsExported() {
			continue
		}
		k := keyOf(obj)
		if used[k] {
			continue
		}
		name := obj.Pkg().Name() + "." + k.name
		if obj.Parent() != pass.Pkg.Scope() { // a method, or not top-level
			fn, ok := obj.(*types.Func)
			if !ok || k.recv == "" || errorsMethod[k.name] || types.IsInterface(fn.Type().(*types.Signature).Recv().Type()) {
				continue
			}
			if ifaces == nil {
				ifaces = interfaces(pass.Module)
			}
			if satisfies(fn, ifaces[k.name]) {
				continue
			}
			name = obj.Pkg().Name() + "." + k.recv + "." + k.name
		}
		pass.Reportf(id.Pos(), "exported %s is referenced by no non-test file: delete it, or waive with //lint:unusedexport <reason>", name)
	}
	return nil
}

// callers returns the keys of the pass package's declarations that some
// non-test file of the module references from outside the declaration
// itself.
func callers(pass *analysis.Pass) map[key]bool {
	path := pass.Pkg.Path()
	used := map[key]bool{}
	use := func(obj types.Object, self map[key]bool) {
		if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != path {
			return
		}
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		if k := keyOf(obj); !self[k] {
			used[k] = true
		}
	}
	for _, u := range pass.Module {
		if u.Pkg.Path() != path {
			for _, obj := range u.TypesInfo.Uses {
				use(obj, nil)
			}
			continue
		}
		for _, f := range u.Files {
			for _, decl := range f.Decls {
				self := owners(u.TypesInfo, decl)
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						use(u.TypesInfo.Uses[id], self)
					}
					return true
				})
			}
		}
	}
	return used
}

// owners returns the declarations whose own references decl holds: a
// func itself, or a method and its receiver type, or a type itself.
func owners(info *types.Info, decl ast.Decl) map[key]bool {
	self := map[key]bool{}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if obj := info.Defs[d.Name]; obj != nil {
			k := keyOf(obj)
			self[k] = true
			self[key{path: k.path, name: k.recv}] = true
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			if s, ok := spec.(*ast.TypeSpec); ok {
				self[keyOf(info.Defs[s.Name])] = true
			}
		}
	}
	return self
}

// interfaces indexes by method name every non-generic named interface
// declared in the module, function-local ones included, or in a package it
// imports, plus error.
func interfaces(module []analysis.Unit) map[string][]*types.Interface {
	byName := map[string][]*types.Interface{}
	add := func(obj types.Object) {
		tn, ok := obj.(*types.TypeName)
		if !ok {
			return
		}
		if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
			return
		}
		if it, ok := tn.Type().Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				byName[it.Method(i).Name()] = append(byName[it.Method(i).Name()], it)
			}
		}
	}
	add(types.Universe.Lookup("error"))
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			add(p.Scope().Lookup(name))
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, u := range module {
		for _, obj := range u.TypesInfo.Defs {
			if obj != nil {
				add(obj)
			}
		}
		seen[u.Pkg] = true
	}
	for _, u := range module {
		for _, imp := range u.Pkg.Imports() {
			visit(imp)
		}
	}
	return byName
}

// satisfies reports whether fn's receiver type, or a pointer to it,
// implements one of ifaces.
func satisfies(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	for _, it := range ifaces {
		if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
			return true
		}
	}
	return false
}
