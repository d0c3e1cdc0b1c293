// Package lint is meshlint: a stdlib-only static-analysis suite enforcing
// the project invariants the compiler cannot check. The simulator stack
// (des, netsim, chipsim, costmodel, autotune, obs) must be bit-for-bit
// deterministic, and the functional mesh runtime must follow a strict
// goroutine discipline; each analyzer turns one such prose invariant from
// DESIGN.md into a machine-checked rule.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Diagnostic is one finding: a position, the rule that fired, and a
// message. String renders the canonical "file:line: [rule] message" form
// the CI grep contract relies on.
type Diagnostic struct {
	Pos  token.Position
	Rule string
	Msg  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Rule, d.Msg)
}

// Analyzer is one rule. Run receives the whole module so cross-package
// rules (panic-audit's reachability walk) and per-file rules share one
// interface, and reports findings through report.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(m *Module, report func(pos token.Pos, format string, args ...any))
}

// Analyzers returns the full rule suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		analyzeWallclock(),
		analyzeSeededRand(),
		analyzeFloatEq(),
		analyzeGoroutines(),
		analyzePanics(),
		analyzeBufOwnership(),
		analyzeHotpathAlloc(),
		analyzeMapOrder(),
		analyzeUnused(),
	}
}

// Run executes every analyzer over m and returns the surviving diagnostics
// sorted by position. Findings suppressed by an inline "lint:" directive or
// by an allowlist entry are dropped.
func Run(m *Module, analyzers []*Analyzer, allow *Allowlist) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		rule := a.Name
		a.Run(m, func(pos token.Pos, format string, args ...any) {
			p := m.Fset.Position(pos)
			if f := m.fileAt(p.Filename); f != nil && f.Allows(rule, p.Line) {
				return
			}
			if allow.Allows(rule, m.relPath(p.Filename), p.Line) {
				return
			}
			diags = append(diags, Diagnostic{Pos: p, Rule: rule, Msg: fmt.Sprintf(format, args...)})
		})
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
	return diags
}

// relPath converts an absolute file name to a module-root-relative,
// slash-separated path (the form allowlist entries and diagnostics use).
func (m *Module) relPath(filename string) string {
	if rel, err := filepath.Rel(m.Root, filename); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(filename)
}

func (m *Module) fileAt(filename string) *File {
	for _, pkg := range m.Packages {
		for _, f := range pkg.Files {
			if f.Name == filename {
				return f
			}
		}
	}
	return nil
}

// eachFile visits every file of every package, with its package.
func (m *Module) eachFile(fn func(p *Package, f *File)) {
	for _, pkg := range m.Packages {
		for _, f := range pkg.Files {
			fn(pkg, f)
		}
	}
}

// lastSegment returns the final element of an import path, with any ".test"
// unit suffix stripped, so rules can recognise a package by its name
// regardless of where the module mounts it.
func lastSegment(path string) string {
	path = strings.TrimSuffix(path, ".test")
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// Allowlist is the file-based suppression mechanism for adopting rules
// incrementally: one entry per line, "rule path[:line]", where path is a
// module-relative file or directory prefix. Blank lines and #-comments are
// skipped.
type Allowlist struct {
	entries []allowEntry
}

type allowEntry struct {
	rule string
	path string
	line int // 0 means any line
}

// LoadAllowlist parses the allowlist at path; a missing file yields an
// empty (permit-nothing-extra) allowlist so the flag can default to a
// conventional location.
func LoadAllowlist(path string) (*Allowlist, error) {
	al := &Allowlist{}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return al, nil
	}
	if err != nil {
		return nil, err
	}
	for i, raw := range strings.Split(string(data), "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("%s:%d: allowlist entry needs \"rule path[:line]\"", path, i+1)
		}
		e := allowEntry{rule: fields[0], path: fields[1]}
		if at := strings.LastIndex(e.path, ":"); at >= 0 {
			n, err := strconv.Atoi(e.path[at+1:])
			if err != nil {
				return nil, fmt.Errorf("%s:%d: bad line number in %q", path, i+1, fields[1])
			}
			e.line, e.path = n, e.path[:at]
		}
		al.entries = append(al.entries, e)
	}
	return al, nil
}

// Allows reports whether the allowlist suppresses rule at relPath:line.
func (al *Allowlist) Allows(rule, relPath string, line int) bool {
	if al == nil {
		return false
	}
	for _, e := range al.entries {
		if e.rule != rule && e.rule != "*" {
			continue
		}
		if e.path != relPath && !strings.HasPrefix(relPath, strings.TrimSuffix(e.path, "/")+"/") {
			continue
		}
		if e.line != 0 && e.line != line {
			continue
		}
		return true
	}
	return false
}

// walkFile traverses every node of f.AST.
func walkFile(f *File, fn func(n ast.Node) bool) {
	ast.Inspect(f.AST, fn)
}
