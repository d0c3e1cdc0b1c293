// Command meshlint is the project's static-analysis suite: it loads every
// package in the module with go/parser + go/types (standard library only,
// no external analysis framework) and enforces the determinism and
// concurrency invariants DESIGN.md documents in prose.
//
// Usage:
//
//	go run ./cmd/meshlint [flags] [packages]
//
// It always loads and analyzes the whole module. Package patterns keep
// only the findings (or, with -panics, the panic sites) in the named
// packages' directories, and the go command
// resolves them as it does go vet's: "./internal/obs" is that package
// alone, "./internal/obs/..." the tree under it, and a pattern naming no
// package is an error. With no pattern every finding is kept.
//
// Each finding prints as "file:line: [rule] message" — or, with -json, as
// a canonical JSON report sorted by file, line, rule, and message so two
// runs over the same tree are byte-identical — and any finding makes the
// command exit 1 (load or usage errors exit 2). Rules are suppressed
// either inline ("// lint:invariant reason", "// lint:float-exact reason",
// "// lint:allow rule reason") or through an allowlist file (-allowlist,
// default .meshlint-allow) with one "rule path[:line]" entry per line, so
// new rules can be adopted incrementally. "// lint:hotpath reason" above a
// function declaration marks it as a hot-path root for hotpath-alloc.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"meshslice/internal/lint"
)

func main() {
	var (
		dir       = flag.String("dir", ".", "module root to analyze")
		allowFile = flag.String("allowlist", ".meshlint-allow", "allowlist file (\"rule path[:line]\" per line; missing file = empty)")
		listRules = flag.Bool("rules", false, "print the rule suite and exit")
		panics    = flag.Bool("panics", false, "print the panic-site inventory and exit")
		jsonOut   = flag.Bool("json", false, "emit findings as a JSON report on stdout (deterministic: sorted by file, line, rule, message)")
	)
	flag.Parse()

	analyzers := lint.Analyzers()
	if *listRules {
		for _, a := range analyzers {
			fmt.Printf("%-21s %s\n", a.Name, a.Doc)
		}
		return
	}

	root, err := filepath.Abs(*dir)
	if err != nil {
		fatal(err)
	}
	var dirs map[string]bool
	if flag.NArg() > 0 {
		if dirs, err = lint.PackageDirs(root, flag.Args()); err != nil {
			fatal(err)
		}
	}
	m, err := lint.LoadModule(root)
	if err != nil {
		fatal(err)
	}

	if *panics {
		listed, reachable := 0, 0
		for _, s := range lint.PanicInventory(m) {
			if dirs != nil && !dirs[filepath.Dir(s.Pos.Filename)] {
				continue
			}
			listed++
			mark := " "
			if s.Reachable {
				mark = "R"
				reachable++
			}
			if s.Allowed {
				mark += " invariant"
			}
			fmt.Printf("%s:%d: %s %s\n", rel(root, s.Pos.Filename), s.Pos.Line, mark, s.Fn)
		}
		fmt.Printf("%d panic sites, %d reachable from the exported API\n", listed, reachable)
		return
	}

	allow, err := lint.LoadAllowlist(filepath.Join(root, *allowFile))
	if err != nil {
		fatal(err)
	}
	diags := lint.Run(m, analyzers, allow)
	if dirs != nil {
		diags = slices.DeleteFunc(diags, func(d lint.Diagnostic) bool { return !dirs[filepath.Dir(d.Pos.Filename)] })
	}
	if *jsonOut {
		if err := writeJSON(os.Stdout, root, analyzers, diags); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			fmt.Printf("%s:%d: [%s] %s\n", rel(root, d.Pos.Filename), d.Pos.Line, d.Rule, d.Msg)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "meshlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// jsonReport is the -json output schema (documented in README.md): the
// rule suite that ran and every surviving finding, already in lint.Run's
// canonical (file, line, rule, message) order, so two runs over the same
// tree produce byte-identical reports — CI diffs them to prove the
// analyzers themselves are deterministic.
type jsonReport struct {
	Rules    []string      `json:"rules"`
	Findings []jsonFinding `json:"findings"`
}

type jsonFinding struct {
	File string `json:"file"` // module-root-relative, slash-separated
	Line int    `json:"line"`
	Rule string `json:"rule"`
	Msg  string `json:"msg"`
}

func writeJSON(w *os.File, root string, analyzers []*lint.Analyzer, diags []lint.Diagnostic) error {
	report := jsonReport{Rules: []string{}, Findings: []jsonFinding{}}
	for _, a := range analyzers {
		report.Rules = append(report.Rules, a.Name)
	}
	for _, d := range diags {
		report.Findings = append(report.Findings, jsonFinding{
			File: rel(root, d.Pos.Filename),
			Line: d.Pos.Line,
			Rule: d.Rule,
			Msg:  d.Msg,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

func rel(root, filename string) string {
	if r, err := filepath.Rel(root, filename); err == nil && !strings.HasPrefix(r, "..") {
		return filepath.ToSlash(r)
	}
	return filename
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "meshlint:", err)
	os.Exit(2)
}
