package lint

import (
	"fmt"
	"go/build"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestAnalyzersGolden runs the full rule suite over each testdata fixture
// and checks the findings against the fixtures' "// want \"regexp\""
// expectation comments, in both directions: every finding must be wanted,
// and every want must fire. A fixture is one package, loaded as its own
// module root, or a directory holding a go.mod, loaded as a module.
func TestAnalyzersGolden(t *testing.T) {
	fixtures := []string{
		"wallclock/netsim",
		"wallclock/clockfree",
		"seededrand/randuse",
		"floateq/floats",
		"goroutine/spmd",
		"panicroot",
		"bufown/arena",
		"hotpath/kernels",
		"maporder/emit",
		"maporder/ckptmanifest",
		"unused",
	}
	for _, fx := range fixtures {
		t.Run(fx, func(t *testing.T) {
			dir := filepath.Join("testdata", fx)
			load := LoadPackage
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				load = LoadModule
			}
			m, err := load(dir)
			if err != nil {
				t.Fatalf("load %s: %v", dir, err)
			}
			diags := Run(m, Analyzers(), nil)

			wants, err := collectWants(dir)
			if err != nil {
				t.Fatal(err)
			}
			matched := map[*want]bool{}
		diag:
			for _, d := range diags {
				key := fmt.Sprintf("%s:%d", m.relPath(d.Pos.Filename), d.Pos.Line)
				for _, w := range wants[key] {
					if !matched[w] && w.re.MatchString(d.Msg) {
						matched[w] = true
						continue diag
					}
				}
				t.Errorf("unexpected finding %s: [%s] %s", key, d.Rule, d.Msg)
			}
			for key, ws := range wants {
				for _, w := range ws {
					if !matched[w] {
						t.Errorf("%s: expected a finding matching %q, got none", key, w.re)
					}
				}
			}
		})
	}
}

// TestSuiteComposition pins the rule suite: CI's JSON-report contract and
// the DESIGN.md invariants table both enumerate these names in this order.
func TestSuiteComposition(t *testing.T) {
	want := []string{
		"no-wallclock", "seeded-rand", "float-eq", "goroutine-discipline",
		"panic-audit", "buf-ownership", "hotpath-alloc", "map-order", "unused",
	}
	got := Analyzers()
	if len(got) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("analyzer %d is %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q lacks doc or run function", a.Name)
		}
	}
}

type want struct{ re *regexp.Regexp }

var (
	wantLineRE   = regexp.MustCompile(`// want (.+)$`)
	wantStringRE = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)
)

// collectWants maps "file.go:line", the file's slash-separated path
// relative to dir, to the expectations on that line.
func collectWants(dir string) (map[string][]*want, error) {
	wants := map[string][]*want{}
	err := filepath.WalkDir(dir, func(path string, e os.DirEntry, err error) error {
		if err != nil || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantLineRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			key := fmt.Sprintf("%s:%d", filepath.ToSlash(rel), i+1)
			for _, q := range wantStringRE.FindAllString(m[1], -1) {
				pattern, err := strconv.Unquote(q)
				if err != nil {
					return fmt.Errorf("%s: bad want string %s: %v", key, q, err)
				}
				re, err := regexp.Compile(pattern)
				if err != nil {
					return fmt.Errorf("%s: bad want regexp %q: %v", key, pattern, err)
				}
				wants[key] = append(wants[key], &want{re: re})
			}
		}
		return nil
	})
	return wants, err
}

var (
	repoOnce   sync.Once
	repoModule *Module
	repoErr    error
)

// loadRepo type-checks this repository once for every test that analyses
// it (about 3 s each time).
func loadRepo(t *testing.T) *Module {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	repoOnce.Do(func() { repoModule, repoErr = LoadModule("../..") })
	if repoErr != nil {
		t.Fatalf("LoadModule: %v", repoErr)
	}
	return repoModule
}

// TestRepoIsClean is meshlint run over this repository itself: the module
// must stay free of findings, so CI can enforce the invariants with
// "go run ./cmd/meshlint ./..." and this test keeps that guarantee under
// plain "go test ./...".
func TestRepoIsClean(t *testing.T) {
	m := loadRepo(t)
	allow, err := LoadAllowlist(filepath.Join(m.Root, ".meshlint-allow"))
	if err != nil {
		t.Fatalf("LoadAllowlist: %v", err)
	}
	for _, d := range Run(m, Analyzers(), allow) {
		t.Errorf("%s", d)
	}
}

// TestPanicInventoryOnRepo sanity-checks the audit half of panic-audit:
// the repository has many deliberate invariant panics, every one of the
// reachable ones must carry its lint:invariant annotation.
func TestPanicInventoryOnRepo(t *testing.T) {
	m := loadRepo(t)
	inv := PanicInventory(m)
	if len(inv) == 0 {
		t.Fatal("panic inventory is empty; the walker is broken")
	}
	reachable := 0
	for _, s := range inv {
		if s.Reachable {
			reachable++
			if !s.Allowed {
				t.Errorf("%s:%d: reachable panic in %s lacks a lint:invariant annotation", s.Pos.Filename, s.Pos.Line, s.Fn)
			}
		}
	}
	if reachable == 0 {
		t.Error("no panic is reachable from the exported API; the reachability walk is broken")
	}
}

// TestLoaderHonoursBuildConstraints loads a package holding an
// architecture pair (arch_amd64.go and a //go:build !amd64 twin) and a
// //go:build ignore generator of another package. Parsing all four fails
// to type-check; the loader must take exactly the files go build compiles.
func TestLoaderHonoursBuildConstraints(t *testing.T) {
	dir := filepath.Join("testdata", "buildtags", "arch")
	m, err := LoadPackage(dir)
	if err != nil {
		t.Fatalf("LoadPackage(%s): %v", dir, err)
	}
	var got []string
	for _, p := range m.Packages {
		for _, f := range p.Files {
			got = append(got, filepath.Base(f.Name))
		}
	}
	slices.Sort(got)
	twin := "arch_other.go"
	if runtime.GOARCH == "amd64" {
		twin = "arch_amd64.go"
	}
	if want := []string{"arch.go", twin}; !slices.Equal(got, want) {
		t.Errorf("loaded %v, want %v", got, want)
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, bp.GoFiles) {
		t.Errorf("loaded %v, go build compiles %v", got, bp.GoFiles)
	}
}

// TestLoaderTakesGoTestUnits loads a fixture module whose external test
// calls a name from its package's export_test.go and imports a second
// package that imports the package under test. go test compiles the
// external test against the test variant and recompiles the importer
// against it too; the loader must do the same, and analyze the importer
// once, as itself.
func TestLoaderTakesGoTestUnits(t *testing.T) {
	m, err := LoadModule(filepath.Join("testdata", "exporthook"))
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	var got []string
	for _, p := range m.Packages {
		got = append(got, p.Path)
	}
	if want := []string{"exporthook/hook", "exporthook/hook.test", "exporthook/user"}; !slices.Equal(got, want) {
		t.Errorf("analyzed units %v, want %v", got, want)
	}
}

// TestEveryFileInOneUnit requires every .go file go list reports for this
// module to sit in exactly one analyzed unit, so no finding is reported
// twice: not by a package beside its test variant, nor by an importer that
// a test recompiles.
func TestEveryFileInOneUnit(t *testing.T) {
	m := loadRepo(t)
	listed, err := goList[struct {
		Dir                                string
		GoFiles, TestGoFiles, XTestGoFiles []string
	}](m.Root, "-json=Dir,GoFiles,TestGoFiles,XTestGoFiles", "./...")
	if err != nil {
		t.Fatal(err)
	}
	units := map[string]int{}
	for _, p := range m.Packages {
		for _, f := range p.Files {
			units[f.Name]++
		}
	}
	for _, lp := range listed {
		for _, name := range slices.Concat(lp.GoFiles, lp.TestGoFiles, lp.XTestGoFiles) {
			full := filepath.Join(lp.Dir, name)
			if units[full] != 1 {
				t.Errorf("%s is in %d analyzed units, want 1", full, units[full])
			}
			delete(units, full)
		}
	}
	for name := range units {
		t.Errorf("%s is analyzed but go list reports no package holding it", name)
	}
}

// TestLoadModuleWithoutModule points LoadModule at a directory outside
// any module: go list fails, and the error names the directory.
func TestLoadModuleWithoutModule(t *testing.T) {
	dir := t.TempDir()
	_, err := LoadModule(dir)
	if err == nil || !strings.Contains(err.Error(), dir) {
		t.Errorf("LoadModule(%s) error = %v, want one naming the directory", dir, err)
	}
}

func TestAllowlist(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "allow")
	content := "# comment\n\nfloat-eq internal/netsim/trace.go:123\npanic-audit internal/tensor\n* cmd/meshslice/main.go\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	al, err := LoadAllowlist(path)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		rule, rel string
		line      int
		want      bool
	}{
		{"float-eq", "internal/netsim/trace.go", 123, true},
		{"float-eq", "internal/netsim/trace.go", 124, false},
		{"panic-audit", "internal/tensor/matrix.go", 7, true},
		{"panic-audit", "internal/tensorx/matrix.go", 7, false},
		{"seeded-rand", "cmd/meshslice/main.go", 1, true},
		{"seeded-rand", "cmd/meshslice/plan.go", 1, false},
	}
	for _, c := range cases {
		if got := al.Allows(c.rule, c.rel, c.line); got != c.want {
			t.Errorf("Allows(%q, %q, %d) = %v, want %v", c.rule, c.rel, c.line, got, c.want)
		}
	}
	if missing, err := LoadAllowlist(filepath.Join(dir, "nope")); err != nil || len(missing.entries) != 0 {
		t.Errorf("missing allowlist: got %v entries, err %v; want empty, nil", missing, err)
	}
}

// LoadPackage parses and type-checks the one package in dir, with its
// tests, as LoadModule does a module. The returned Module has the
// package's import path as its module path, making the package double as
// the API root for root-sensitive analyzers — exactly what the golden-file
// fixtures under testdata/ need. Every call shares one file set and one
// standard-library importer, so fixtures that import the same standard
// packages type-check them once.
func LoadPackage(dir string) (*Module, error) {
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
	m, err := load(abs, ".", stdShared.fset, stdShared.std)
	if err != nil {
		return nil, err
	}
	m.Root, m.Path = abs, m.Packages[0].Path
	return m, nil
}

// stdShared is what LoadPackage calls share; the importer is not safe for
// concurrent use, so a call holds the lock while it type-checks.
var stdShared struct {
	sync.Mutex
	fset *token.FileSet
	std  types.Importer
}
