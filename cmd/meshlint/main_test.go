package main

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var meshlintBin string

// TestMain builds the real binary once; the tests drive it.
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "meshlint-cli")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	meshlintBin = filepath.Join(dir, "meshlint")
	if out, err := exec.Command("go", "build", "-o", meshlintBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestPackagePatterns runs meshlint over a module holding a package a and
// a package a/sub, each with one float-eq finding and one panic site, and
// a command that uses their exports but for sub.Dead: package patterns mean
// what they mean to go vet, for findings and for the -panics inventory
// alike, and a pattern naming no directory is an error. The unused rule
// counts uses across the whole module whatever the pattern: ./a reports
// neither a.Eq nor a.P, which only the command uses, nor sub.Dead, which
// sits outside it.
func TestPackagePatterns(t *testing.T) {
	root := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":       "module tiny\n\ngo 1.22\n",
		"a/a.go":       "package a\n\nfunc Eq(x, y float64) bool { return x == y }\n\nfunc P() { panic(0) }\n",
		"a/sub/sub.go": "package sub\n\nfunc Eq(x, y float64) bool { return x == y }\n\nfunc P() { panic(0) }\n\nfunc Dead() {}\n",
		"cmd/tool/main.go": "package main\n\nimport (\n\t\"tiny/a\"\n\t\"tiny/a/sub\"\n)\n\n" +
			"var uses = []any{a.Eq, a.P, sub.Eq, sub.P}\n\nfunc Exported() {}\n\nfunc main() { println(len(uses)) }\n",
	} {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	both := []string{"a/a.go:3: [float-eq]", "a/sub/sub.go:3: [float-eq]", "a/sub/sub.go:7: [unused]"}
	cases := []struct {
		patterns []string
		exit     int
		files    []string // findings' leading "file:line: [rule]", or -panics' output lines
	}{
		{nil, 1, both},
		{[]string{"./..."}, 1, both},
		{[]string{"./a"}, 1, both[:1]},
		{[]string{"./a/..."}, 1, both},
		{[]string{"./a/sub"}, 1, both[1:]},
		{[]string{"./cmd/tool"}, 0, nil}, // a main package exports to nobody
		{[]string{"./nosuch"}, 2, nil},
		{[]string{"-panics", "./a"}, 0, []string{"a/a.go:5:   tiny/a.P", "1 panic sites, 0 reachable from the exported API"}},
	}
	for _, c := range cases {
		t.Run(cmp.Or(strings.Join(c.patterns, " "), "no pattern"), func(t *testing.T) {
			cmd := exec.Command(meshlintBin, append([]string{"-dir", root}, c.patterns...)...)
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			exit := 0
			var exitErr *exec.ExitError
			if err := cmd.Run(); errors.As(err, &exitErr) {
				exit = exitErr.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if exit != c.exit {
				t.Errorf("exit %d, want %d; stderr:\n%s", exit, c.exit, stderr.String())
			}
			inventory := slices.Contains(c.patterns, "-panics")
			var got []string
			for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
				if head, _, ok := strings.Cut(line, "] "); ok {
					got = append(got, head+"]")
				} else if inventory {
					got = append(got, line)
				}
			}
			if strings.Join(got, "\n") != strings.Join(c.files, "\n") {
				t.Errorf("findings %q, want %q", got, c.files)
			}
			if c.exit == 2 && strings.Count(strings.TrimSpace(stderr.String()), "\n") != 0 {
				t.Errorf("stderr is not one line:\n%s", stderr.String())
			}
		})
	}
}
