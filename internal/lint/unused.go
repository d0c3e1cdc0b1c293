package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

func analyzeUnused() *Analyzer {
	return &Analyzer{
		Name: "unused",
		Doc: "flag an exported identifier declared in non-test code of a package below the module root that " +
			"no non-test file of the module references; delete it, move it into the tests that use it, or mark " +
			"it lint:allow unused with the reason it stays",
		Run: runUnused,
	}
}

// runUnused reports the exported package-level funcs, types, vars and
// consts, and the exported methods no interface asks for, of every non-main
// package other than the module root, when no non-test file references
// them. A reference is an entry of types.Info.Uses, counted over every
// analyzed unit, so cmd/ and the root package count as callers. The root
// package is the public API and a main package exports to nobody, so their
// own exports are never findings.
func runUnused(m *Module, report func(pos token.Pos, format string, args ...any)) {
	used := map[string]bool{}
	m.eachFile(func(p *Package, f *File) {
		if f.Test {
			return
		}
		walkFile(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if key, ok := objectKey(p.Info.Uses[id]); ok {
					used[key] = true
				}
			}
			return true
		})
	})
	asked := interfaceMethodNames(m)
	m.eachFile(func(p *Package, f *File) {
		if f.Test || p.Name == "main" || p.Path == m.Path {
			return
		}
		check := func(id *ast.Ident, kind string) {
			if !id.IsExported() {
				return
			}
			if key, ok := objectKey(p.Info.Defs[id]); ok && !used[key] {
				report(id.Pos(), "exported %s %s is referenced by no non-test file; delete it, move it into the tests that use it, or mark it lint:allow unused with the reason it stays",
					kind, key)
			}
		}
		for _, decl := range f.AST.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					check(d.Name, "func")
				} else if !asked[d.Name.Name] {
					check(d.Name, "method")
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						check(s.Name, "type")
					case *ast.ValueSpec:
						for _, name := range s.Names {
							check(name, d.Tok.String())
						}
					}
				}
			}
		}
	})
}

// objectKey names a func, method or package-level object the same way in
// every unit: a package with in-package tests is type-checked twice, and
// the two checks mint distinct objects for one declaration (see CallGraph).
// Fields and local objects have no key.
func objectKey(obj types.Object) (string, bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin().FullName(), true
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return "", false
	}
	return obj.Pkg().Path() + "." + obj.Name(), true
}

// interfaceMethodNames collects the method names of every interface the
// module can satisfy: each interface type written in its files, each
// package-level interface of the packages it imports (the standard
// library's included), and error. A method with one of these names may be
// called through the interface, where types.Info.Uses does not see it.
func interfaceMethodNames(m *Module) map[string]bool {
	names := map[string]bool{}
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				names[it.Method(i).Name()] = true
			}
		}
	}
	add(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var visit func(pkg *types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	m.eachFile(func(p *Package, f *File) {
		walkFile(f, func(n ast.Node) bool {
			if it, ok := n.(*ast.InterfaceType); ok {
				if t := p.Info.TypeOf(it); t != nil {
					add(t)
				}
			}
			return true
		})
	})
	for _, p := range m.Packages {
		visit(p.Types)
	}
	return names
}
