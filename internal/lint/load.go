package lint

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

// Module is the unit meshlint analyzes: the packages of one module as
// `go test` compiles them, parsed and type-checked, plus the lint
// directives found in comments.
//
// The loader is deliberately stdlib-only: the go command's own
// `go list -test -deps` says which files form which compilation unit, and
// go/parser + go/types (with the "source" go/importer for standard-library
// dependencies) check them. The whole point of the lint suite is to guard
// determinism invariants, so its own behaviour must not depend on tools
// outside the pinned toolchain.
type Module struct {
	Root     string // absolute directory containing go.mod
	Path     string // module path
	Fset     *token.FileSet
	Packages []*Package // sorted by import path; an external test unit follows its package

	// callGraph caches the cross-package static call graph shared by the
	// interprocedural analyzers (see Module.CallGraph).
	callGraph *CallGraph
}

// Package is one type-checked compilation unit as `go test` compiles it: a
// package with its in-package _test.go files (its test variant), or an
// external _test package.
type Package struct {
	Path  string // import path ("meshslice/internal/mesh"); external test units get a ".test" suffix
	Dir   string
	Name  string
	Files []*File
	Types *types.Package
	Info  *types.Info
}

// File is one parsed source file plus its lint directives.
type File struct {
	Name string // absolute path
	AST  *ast.File
	Test bool // *_test.go
	// allow maps a line number to the rules suppressed on that line by a
	// "lint:" comment directive (the directive's own line and the next).
	allow map[int][]string
	// hotpath maps a line number to true when a "lint:hotpath" directive
	// marks it (the directive's own line and the next): a function whose
	// declaration starts on a marked line is a hot-path root for the
	// hotpath-alloc analyzer.
	hotpath map[int]bool
}

// HotpathAt reports whether a lint:hotpath directive marks the given line.
func (f *File) HotpathAt(line int) bool { return f.hotpath[line] }

// Allows reports whether a directive in f suppresses rule at line.
func (f *File) Allows(rule string, line int) bool {
	for _, r := range f.allow[line] {
		if r == rule || r == "*" {
			return true
		}
	}
	return false
}

// LoadModule parses and type-checks every package of the module rooted at
// root, with its tests. Type errors abort the load: analyzers must only
// ever run over code the compiler accepts, otherwise their reports are
// noise.
func LoadModule(root string) (*Module, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	m, err := load(abs, "./...", fset, importer.ForCompiler(fset, "source", nil))
	if err != nil {
		return nil, err
	}
	if m.Root != abs {
		return nil, fmt.Errorf("lint: go list found no module rooted at %s", abs)
	}
	return m, nil
}

// PackageDirs returns the directories of the packages that patterns name
// in the module at root, as the go command resolves them: "./x" is that
// package alone, "./x/..." the tree under it, and a pattern naming no
// directory is an error.
func PackageDirs(root string, patterns []string) (map[string]bool, error) {
	listed, err := goList[listedPackage](root, append([]string{"-json=Dir"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	dirs := map[string]bool{}
	for _, lp := range listed {
		dirs[lp.Dir] = true
	}
	return dirs, nil
}

// listedPackage is what the loader reads of one `go list -json` unit.
type listedPackage struct {
	ImportPath string // "p", or "p [q.test]" when q's test recompiles p
	Dir        string
	Name       string
	ForTest    string // q, for the units q's test compiles afresh
	GoFiles    []string
	ImportMap  map[string]string // import in source -> ImportPath it resolves to
	Standard   bool
	DepOnly    bool // not named by the pattern, or recompiled for another package's test
	Module     *struct {
		Path, Dir string
		Main      bool
	}
}

const listFields = "-json=ImportPath,Dir,Name,ForTest,GoFiles,ImportMap,Standard,DepOnly,Module"

// goList runs `go list args...` in dir and decodes its JSON stream.
func goList[T any](dir string, args ...string) ([]T, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if exit := (*exec.ExitError)(nil); errors.As(err, &exit) {
		return nil, fmt.Errorf("lint: go list in %s: %s", dir, bytes.TrimSpace(exit.Stderr))
	}
	if err != nil {
		return nil, fmt.Errorf("lint: go list in %s: %w", dir, err)
	}
	var units []T
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var u T
		if err := dec.Decode(&u); err != nil {
			return nil, fmt.Errorf("lint: go list in %s: %w", dir, err)
		}
		units = append(units, u)
	}
	return units, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// load type-checks, in dependency order, the units `go list -test -deps
// pattern` reports in dir, and keeps the analyzed ones: each package the
// pattern names, replaced by its test variant when it has one, and each
// external _test package. The standard library is left to std and go
// test's generated mains are skipped; importers a test recompiles, and
// dependencies the pattern does not name, are checked only as
// dependencies. Each file is parsed once.
func load(dir, pattern string, fset *token.FileSet, std types.Importer) (*Module, error) {
	listed, err := goList[listedPackage](dir, listFields, "-test", "-deps", pattern)
	if err != nil {
		return nil, err
	}
	m := &Module{Fset: fset}
	parsed := map[string]*File{}
	checked := map[string]*types.Package{} // by go list ImportPath
	analyzed := map[string]int{}           // Package.Path -> index in m.Packages
	for _, lp := range listed {
		if lp.Standard || lp.Name == "main" && strings.HasSuffix(lp.ImportPath, ".test") {
			continue
		}
		if m.Root == "" && lp.Module != nil && lp.Module.Main {
			m.Path, m.Root = lp.Module.Path, lp.Module.Dir
		}
		path, _, _ := strings.Cut(lp.ImportPath, " ")
		if lp.ForTest != "" && strings.HasSuffix(lp.Name, "_test") {
			path = lp.ForTest + ".test"
		}
		files := make([]*File, len(lp.GoFiles))
		for i, name := range lp.GoFiles {
			full := filepath.Join(lp.Dir, name)
			if parsed[full] == nil {
				if parsed[full], err = parseFile(fset, full); err != nil {
					return nil, err
				}
			}
			files[i] = parsed[full]
		}
		pkg, err := typeCheck(path, lp, files, fset, importerFunc(func(ip string) (*types.Package, error) {
			if tp := checked[cmp.Or(lp.ImportMap[ip], ip)]; tp != nil {
				return tp, nil
			}
			return std.Import(ip)
		}))
		if err != nil {
			return nil, err
		}
		checked[lp.ImportPath] = pkg.Types
		switch i, seen := analyzed[path]; {
		case lp.DepOnly:
		case seen && lp.ForTest != "":
			m.Packages[i] = pkg // the test variant replaces its package
		case !seen:
			analyzed[path] = len(m.Packages)
			m.Packages = append(m.Packages, pkg)
		}
	}
	slices.SortFunc(m.Packages, func(a, b *Package) int {
		return cmp.Or(cmp.Compare(strings.TrimSuffix(a.Path, ".test"), strings.TrimSuffix(b.Path, ".test")),
			cmp.Compare(a.Path, b.Path))
	})
	return m, nil
}

func parseFile(fset *token.FileSet, name string) (*File, error) {
	astf, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	allow, hot := directives(fset, astf)
	return &File{Name: name, AST: astf, Test: strings.HasSuffix(name, "_test.go"), allow: allow, hotpath: hot}, nil
}

func typeCheck(path string, lp listedPackage, files []*File, fset *token.FileSet, imp types.Importer) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var firstErr error
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	asts := make([]*ast.File, len(files))
	for i, f := range files {
		asts[i] = f.AST
	}
	tpkg, err := conf.Check(path, fset, asts, info)
	if firstErr != nil {
		return nil, firstErr
	}
	if err != nil {
		return nil, err
	}
	return &Package{Path: path, Dir: lp.Dir, Name: lp.Name, Files: files, Types: tpkg, Info: info}, nil
}

// directives extracts "lint:" comment directives from a parsed file. A
// directive suppresses the named rules on its own line and the next, so
// both trailing and whole-line-above placements work:
//
//	panic("impossible") // lint:invariant guarded by Validate
//	// lint:allow float-eq sort tie-break must be exact
//	if a.t != b.t {
//
// Recognised forms: "lint:invariant [reason]" (suppresses panic-audit),
// "lint:float-exact [reason]" (suppresses float-eq),
// "lint:allow rule[,rule...] [reason]", and "lint:hotpath [reason]"
// (marks the function declared on this line or the next as a hot-path
// root for hotpath-alloc — an annotation, not a suppression).
func directives(fset *token.FileSet, f *ast.File) (map[int][]string, map[int]bool) {
	allow := map[int][]string{}
	hot := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, "lint:") {
				continue
			}
			fields := strings.Fields(strings.TrimPrefix(text, "lint:"))
			if len(fields) == 0 {
				continue
			}
			line := fset.Position(c.Pos()).Line
			var rules []string
			switch fields[0] {
			case "invariant":
				rules = []string{"panic-audit"}
			case "float-exact":
				rules = []string{"float-eq"}
			case "allow":
				if len(fields) > 1 {
					rules = strings.Split(fields[1], ",")
				}
			case "hotpath":
				hot[line] = true
				hot[line+1] = true
				continue
			}
			allow[line] = append(allow[line], rules...)
			allow[line+1] = append(allow[line+1], rules...)
		}
	}
	return allow, hot
}
