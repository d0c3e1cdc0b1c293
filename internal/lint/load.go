package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
)

// Module is the unit meshlint analyzes: every package under one go.mod,
// parsed and type-checked, plus the lint directives found in comments.
//
// The loader is deliberately stdlib-only (go/parser + go/types + the
// "source" go/importer for standard-library dependencies): the whole point
// of the lint suite is to guard determinism invariants, so its own
// behaviour must not depend on tools outside the pinned toolchain.
type Module struct {
	Root     string // absolute directory containing go.mod
	Path     string // module path from go.mod
	Fset     *token.FileSet
	Packages []*Package // sorted by import path; test units follow their base

	// callGraph caches the cross-package static call graph shared by the
	// interprocedural analyzers (see Module.CallGraph).
	callGraph *CallGraph
}

// Package is one type-checked compilation unit. A directory with in-package
// _test.go files yields a single unit containing both; an external _test
// package yields its own unit.
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

var moduleLineRE = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// LoadModule parses and type-checks every package under root (which must
// contain a go.mod). Type errors abort the load: analyzers must only ever
// run over code the compiler accepts, otherwise their reports are noise.
func LoadModule(root string) (*Module, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modData, err := os.ReadFile(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: %s is not a module root: %w", abs, err)
	}
	match := moduleLineRE.FindSubmatch(modData)
	if match == nil {
		return nil, fmt.Errorf("lint: no module line in %s/go.mod", abs)
	}
	ld := newLoader(abs, string(match[1]))
	if err := ld.discover(); err != nil {
		return nil, err
	}
	return ld.check()
}

// LoadPackage parses and type-checks the single directory dir as import
// path path, resolving only standard-library imports. The returned Module
// has path's parent as its module path, making the loaded package double as
// the API root for root-sensitive analyzers — exactly what the golden-file
// fixtures under testdata/ need. Every call shares one file set and one
// standard-library importer, so fixtures that import the same standard
// packages type-check them once.
func LoadPackage(dir, path string) (*Module, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	stdShared.Lock()
	defer stdShared.Unlock()
	if stdShared.fset == nil {
		stdShared.fset = token.NewFileSet()
		stdShared.std = importer.ForCompiler(stdShared.fset, "source", nil)
	}
	ld := newLoader(abs, path)
	ld.fset, ld.std = stdShared.fset, stdShared.std
	ld.dirs[path] = abs
	return ld.check()
}

// stdShared is what LoadPackage calls share; the importer is not safe for
// concurrent use, so a call holds the lock while it type-checks.
var stdShared struct {
	sync.Mutex
	fset *token.FileSet
	std  types.Importer
}

type loader struct {
	root    string
	modPath string
	fset    *token.FileSet
	dirs    map[string]string // import path -> directory
	parsed  map[string]*dirFiles
	checked map[string]*Package // base units by import path
	inCheck map[string]bool     // cycle guard
	std     types.Importer
	errs    []error
}

type dirFiles struct {
	base, inTest, extTest []*File // by package-name suffix
	name                  string  // base package name
}

func newLoader(root, modPath string) *loader {
	l := &loader{
		root:    root,
		modPath: modPath,
		fset:    token.NewFileSet(),
		dirs:    map[string]string{},
		parsed:  map[string]*dirFiles{},
		checked: map[string]*Package{},
		inCheck: map[string]bool{},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	return l
}

// discover maps every directory holding .go files to its import path.
func (l *loader) discover() error {
	return filepath.WalkDir(l.root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != l.root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		dir := filepath.Dir(p)
		rel, err := filepath.Rel(l.root, dir)
		if err != nil {
			return err
		}
		ip := l.modPath
		if rel != "." {
			ip = l.modPath + "/" + filepath.ToSlash(rel)
		}
		l.dirs[ip] = dir
		return nil
	})
}

// parseDir parses the .go files of ip's directory that go build compiles
// on this platform, memoized.
func (l *loader) parseDir(ip string) (*dirFiles, error) {
	if df, ok := l.parsed[ip]; ok {
		return df, nil
	}
	dir := l.dirs[ip]
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	df := &dirFiles{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		// Skip what go build skips: a _GOARCH or _GOOS suffix or a
		// //go:build line that excludes this platform.
		if ok, err := build.Default.MatchFile(dir, e.Name()); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		full := filepath.Join(dir, e.Name())
		astf, err := parser.ParseFile(l.fset, full, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		allow, hot := directives(l.fset, astf)
		f := &File{
			Name:    full,
			AST:     astf,
			Test:    strings.HasSuffix(e.Name(), "_test.go"),
			allow:   allow,
			hotpath: hot,
		}
		switch {
		case strings.HasSuffix(astf.Name.Name, "_test"):
			df.extTest = append(df.extTest, f)
		case f.Test:
			df.inTest = append(df.inTest, f)
		default:
			df.base = append(df.base, f)
			df.name = astf.Name.Name
		}
	}
	l.parsed[ip] = df
	return df, nil
}

// Import implements types.Importer: module-internal paths recurse into the
// loader (base unit only, mirroring how go test compiles dependencies
// without their test files); everything else is delegated to the
// standard-library source importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if path != l.modPath && !strings.HasPrefix(path, l.modPath+"/") {
		return l.std.Import(path)
	}
	pkg, err := l.base(path)
	if err != nil {
		return nil, err
	}
	return pkg.Types, nil
}

// base type-checks the import path's non-test files, memoized.
func (l *loader) base(ip string) (*Package, error) {
	if pkg, ok := l.checked[ip]; ok {
		return pkg, nil
	}
	if l.inCheck[ip] {
		return nil, fmt.Errorf("lint: import cycle through %s", ip)
	}
	if _, ok := l.dirs[ip]; !ok {
		return nil, fmt.Errorf("lint: no directory for import path %s", ip)
	}
	l.inCheck[ip] = true
	defer delete(l.inCheck, ip)
	df, err := l.parseDir(ip)
	if err != nil {
		return nil, err
	}
	pkg, err := l.typeCheck(ip, df.base)
	if err != nil {
		return nil, err
	}
	l.checked[ip] = pkg
	return pkg, nil
}

func (l *loader) typeCheck(ip string, files []*File) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var firstErr error
	conf := types.Config{
		Importer: l,
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
	tpkg, err := conf.Check(ip, l.fset, asts, info)
	if firstErr != nil {
		return nil, firstErr
	}
	if err != nil {
		return nil, err
	}
	name := ""
	if len(files) > 0 {
		name = files[0].AST.Name.Name
	}
	return &Package{Path: ip, Dir: l.dirs[ip], Name: name, Files: files, Types: tpkg, Info: info}, nil
}

// check assembles the final module: for every discovered directory, the
// analysis unit is base+in-package-test files type-checked together, plus a
// separate unit for any external _test package.
func (l *loader) check() (*Module, error) {
	paths := make([]string, 0, len(l.dirs))
	for ip := range l.dirs {
		paths = append(paths, ip)
	}
	sort.Strings(paths)

	m := &Module{Root: l.root, Path: l.modPath, Fset: l.fset}
	for _, ip := range paths {
		df, err := l.parseDir(ip)
		if err != nil {
			return nil, err
		}
		if len(df.base) > 0 {
			if _, err := l.base(ip); err != nil {
				return nil, err
			}
		}
		switch {
		case len(df.inTest) > 0:
			// Re-check base and in-package tests as one unit so analyzers
			// see test code with full type information; importers still get
			// the memoized test-free package.
			unit, err := l.typeCheck(ip, append(append([]*File{}, df.base...), df.inTest...))
			if err != nil {
				return nil, err
			}
			m.Packages = append(m.Packages, unit)
		case len(df.base) > 0:
			m.Packages = append(m.Packages, l.checked[ip])
		}
		if len(df.extTest) > 0 {
			unit, err := l.typeCheck(ip+".test", df.extTest)
			if err != nil {
				return nil, err
			}
			unit.Dir = l.dirs[ip]
			m.Packages = append(m.Packages, unit)
		}
	}
	return m, nil
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
