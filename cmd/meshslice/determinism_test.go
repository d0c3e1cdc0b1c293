package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"meshslice/internal/model"
)

// meshsliceBin is the real binary, built once: the tests below drive the
// CLI exactly as a user or CI would, exit codes and stderr included.
var meshsliceBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "meshslice-cli")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	meshsliceBin = filepath.Join(dir, "meshslice")
	if out, err := exec.Command("go", "build", "-o", meshsliceBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runCLI runs the binary with args (and GOMAXPROCS=procs when non-empty)
// and returns its stdout, stderr and exit code.
func runCLI(t *testing.T, procs string, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	cmd := exec.Command(meshsliceBin, args...)
	if procs != "" {
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+procs)
	}
	var outBuf, errBuf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &outBuf, &errBuf
	var exitErr *exec.ExitError
	if err := cmd.Run(); err != nil && !errors.As(err, &exitErr) {
		t.Fatalf("meshslice %s: %v", strings.Join(args, " "), err)
	}
	return outBuf.String(), errBuf.String(), cmd.ProcessState.ExitCode()
}

// readTree returns every file under root (or root itself when it is a
// file) keyed by its path relative to root.
func readTree(t *testing.T, root string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		files[rel], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestCanonicalOutputsDeterministic is the run-twice-and-compare gate for
// every subcommand that writes a canonical artifact: identical flags must
// give byte-identical output at the row's output flag (-o unless the row
// names another, such as a Perfetto trace's -chrome), for the rows that
// run the worker pool or the async comm workers also at GOMAXPROCS 1, 2
// and 8.
func TestCanonicalOutputsDeterministic(t *testing.T) {
	anyProcs := []string{"1", "2", "8"}
	for _, tc := range []struct {
		args  string
		out   string // the flag taking the output path; "" means -o
		procs []string
		exit  int // the expected exit status: 1 for a run that dies of an injected fault
	}{
		{args: "record", procs: anyProcs},
		{args: "record -pipelined -s 4", procs: anyProcs},
		{args: "record -algo wang -pipelined", procs: anyProcs},
		{args: "record -dataflow ls -pipelined -s 4", procs: anyProcs},
		{args: "stats -profile ../../profiles/tpuv4.json"},
		{args: "faults -chips 16 -scenario seeded -seed 7"},
		{args: "ckpt -rows 2 -cols 2 -steps 8 -every 2"},
		{args: "ckpt -rows 2 -cols 4 -steps 8 -every 2 -fail-at 5 -fail-chip 5 -reshard 2x2", procs: anyProcs},
		{args: "serve -chips 16 -requests 32", procs: anyProcs},
		{args: "serve -chips 32 -rows 4 -cols 8 -slices 3 -faults col-degrade -requests 32", procs: anyProcs},
		{args: "timeline -rows 4 -cols 4", out: "-chrome"},
		{args: "faults -chips 16 -scenario seeded -seed 7", out: "-chrome"},
		{args: "record -pipelined -s 4", out: "-chrome", procs: anyProcs},
		{args: "record -pipelined -s 4 -drop 0:1:1", procs: anyProcs, exit: 1},
	} {
		name, outFlag := tc.args, "-o"
		if tc.out != "" {
			name, outFlag = tc.args+" "+tc.out, tc.out
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			var want map[string][]byte
			// Two runs in the inherited environment, then one per GOMAXPROCS.
			for i, procs := range append([]string{"", ""}, tc.procs...) {
				out := filepath.Join(dir, fmt.Sprintf("out-%d", i))
				args := append(strings.Fields(tc.args), outFlag, out)
				if _, stderr, exit := runCLI(t, procs, args...); exit != tc.exit {
					t.Fatalf("run %d (GOMAXPROCS=%q) exited %d, want %d: %s", i, procs, exit, tc.exit, stderr)
				}
				got := readTree(t, out)
				if len(got) == 0 {
					t.Fatalf("run %d wrote nothing to %s", i, outFlag)
				}
				if want == nil {
					want = got
					continue
				}
				if len(got) != len(want) {
					t.Errorf("run %d (GOMAXPROCS=%q) wrote %d files, first run wrote %d", i, procs, len(got), len(want))
				}
				for name, b := range want {
					if !bytes.Equal(got[name], b) {
						t.Errorf("run %d (GOMAXPROCS=%q): %s differs from the first run", i, procs, filepath.Join(outFlag, name))
					}
				}
			}
		})
	}
}

// TestBadFlagsExitTwoWithoutPanic pins flag values that used to reach a
// lint:invariant panic in the library, or ran with a value the header did
// not print: each must die with exit status 2 and a one-line message, never
// a goroutine trace, and before it prints anything to stdout. Every float
// flag of every subcommand gets NaN, +Inf and −Inf (nonFiniteFloatRows),
// every int flag -1 (negativeIntRows); the hand-written rows add the rest.
func TestBadFlagsExitTwoWithoutPanic(t *testing.T) {
	for _, args := range slices.Concat(nonFiniteFloatRows(t), negativeIntRows(t), []string{
		"timeline -s 0",
		"timeline -s -3",
		"timeline -rows 0",
		"record -rows 0",
		"verify -rows 0",
		"stats -cols 0",
		"faults -factor 0",
		"faults -scenario stragglers -factor 0.5",
		"serve -faults col-degrade -factor 0",
		"serve -faults col-degrade -factor NaN",
		"serve -rate Inf",
		"serve -slo-token Inf",
		"serve -requests -5",
		"serve -requests 0",
		"serve -rate -3",
		"serve -rate 0",
		"serve -slo -1",
		"serve -slo 0",
		"serve -slo-token -0.5",
		"serve -slo-token 0",
		"serve -hbm-gb 0",
		"serve -hbm-gb -1",
		"serve -chips 0",
		"serve -chips -4",
		"serve -chips 16 -rows 4 -requests 8",
		"serve -chips 16 -cols 4 -requests 8",
		"serve -rows 4 -cols 4 -slices -2",
		"serve -rows 4 -cols 4 -max-batch -1",
		"serve -rows 4 -cols 4 -chunk -7",
		"sim -fabric -2",
		"sim -chips 16 -rows 3 -cols 3",
		"sim -chips 16 -rows 4",
		"serve -chips 16 -rows 3 -cols 3",
		"gemm -dataflow xs",
		"verify -dataflow xs",
		"record -dataflow xs",
		"record -pipelined -s 4 -fail 99:3",
		"record -pipelined -s 4 -fail -1:3",
		"record -pipelined -s 4 -fail 0:-1",
		"record -pipelined -s 4 -drop 0:99:1",
		"record -pipelined -s 4 -drop 0:0:1",
		"record -pipelined -s 4 -drop 0:1:-1",
		"ckpt -fail-at 5 -fail-chip 99",
		"ckpt -fail-at 5 -fail-chip -1",
		"ckpt -steps 10 -fail-at 99",
		"ckpt -steps 10 -fail-at 10",
		"ckpt -fail-at -2",
		"ckpt -steps 0",
		"ckpt -steps -3",
		"plan -hbm 0",
		"plan -hbm -1",
		"ckpt -rows 2 -cols 4 -fail-at 5 -fail-chip 5 -reshard 2x2x9",
		"ckpt -rows 2 -cols 4 -fail-at 5 -fail-chip 5 -reshard 2x2junk",
		// Sizes whose matrices or event rings would not fit in memory, or
		// whose element count overflows int.
		"record -cap 100000000000000000",
		"verify -m 100000000000000000",
		"record -m 100000000000000000",
		// -record's checks run before gemm prints its table.
		"gemm -m 4096 -n 4096 -k 4096 -chips 16 -record r.json",
		"gemm -m 4096 -n 4096 -k 4096 -chips 16 -record r.json -algo 1dtp",
	}) {
		t.Run(args, func(t *testing.T) {
			t.Parallel()
			stdout, stderr, exit := runCLI(t, "", strings.Fields(args)...)
			if exit != 2 {
				t.Errorf("exit %d, want 2", exit)
			}
			if stdout != "" {
				t.Errorf("printed before the flag error:\n%s", stdout)
			}
			// A Go panic also exits 2; the trace is what tells them apart.
			if strings.Contains(stderr, "goroutine ") || strings.Count(stderr, "\n") != 1 {
				t.Errorf("want a one-line error, got:\n%s", stderr)
			}
		})
	}
}

// nonFiniteFloatRows returns "sub -flag v" for every float flag of every
// subcommand and v in NaN, +Inf and −Inf.
func nonFiniteFloatRows(t *testing.T) []string {
	rows := flagRows(t, "float", nil, "NaN", "+Inf", "-Inf")
	if !slices.Contains(rows, "plan -hbm NaN") {
		t.Fatalf("the -h listings gave no row for plan -hbm: %q", rows)
	}
	return rows
}

// negativeIntRows returns "sub -flag -1" for every int flag of every
// subcommand but those a negative value means something to, listed here
// with that meaning.
func negativeIntRows(t *testing.T) []string {
	takesNegative := map[string]string{
		"-seed":         "every subcommand's seed is any int64",
		"ckpt -fail-at": "-1: no failure",
	}
	rows := flagRows(t, "int", takesNegative, "-1")
	if !slices.Contains(rows, "record -m -1") || slices.Contains(rows, "ckpt -fail-at -1") {
		t.Fatalf("the -h listings gave a wrong int row set: %q", rows)
	}
	return rows
}

// flagRows returns "sub -flag v" for every flag of type typ of every
// subcommand and every v. A new flag is swept without a row written by
// hand. A flag named in skip, as "-flag" for every subcommand or as
// "sub -flag", gets no rows.
func flagRows(t *testing.T, typ string, skip map[string]string, values ...string) []string {
	t.Helper()
	var rows []string
	for _, f := range cliFlags(t) {
		if f.typ != typ {
			continue
		}
		if _, ok := skip[f.name]; ok {
			continue
		}
		if _, ok := skip[f.sub+" "+f.name]; ok {
			continue
		}
		for _, v := range values {
			rows = append(rows, f.sub+" "+f.name+" "+v)
		}
	}
	return rows
}

// cliFlag is one flag of one subcommand as its -h listing prints it.
type cliFlag struct {
	sub, name string
	typ       string // "" for a bool flag
	def       string // the listing's "(default …)", "" for a zero default
}

// cliFlags reads every flag of every subcommand off the binary itself: the
// subcommands from its usage line, each one's flags from its -h listing,
// where a flag prints as "  -name typ" and its usage on the next line ends
// in "(default …)" unless the default is the type's zero value.
func cliFlags(t *testing.T) []cliFlag {
	t.Helper()
	_, usage, _ := runCLI(t, "")
	open, end := strings.Index(usage, "{"), strings.Index(usage, "}")
	if open < 0 || end < open {
		t.Fatalf("no {sub|…} list in the usage line: %q", usage)
	}
	var flags []cliFlag
	for _, sub := range strings.Split(usage[open+1:end], "|") {
		_, help, _ := runCLI(t, "", sub, "-h")
		lines := strings.Split(help, "\n")
		for i, line := range lines {
			f := strings.Fields(line)
			if !strings.HasPrefix(line, "  -") || len(f) > 2 || i+1 == len(lines) {
				continue
			}
			flag := cliFlag{sub: sub, name: f[0]}
			if len(f) == 2 {
				flag.typ = f[1]
			}
			if u := lines[i+1]; strings.HasSuffix(u, ")") {
				if at := strings.LastIndex(u, " (default "); at >= 0 {
					flag.def = u[at+1:]
				}
			}
			flags = append(flags, flag)
		}
	}
	return flags
}

// TestFlagSurface pins every subcommand's flags by name, type and default,
// the usage text aside: a flag group that changes a default, a type or a
// name fails it. On a deliberate change, check the printed listing and
// put its digest here.
func TestFlagSurface(t *testing.T) {
	const want = 0x4e3c998dccf717ce
	var listing strings.Builder
	for _, f := range cliFlags(t) {
		listing.WriteString(strings.Join(strings.Fields(f.sub+" "+f.name+" "+f.typ+" "+f.def), " ") + "\n")
	}
	h := fnv.New64a()
	h.Write([]byte(listing.String()))
	if got := h.Sum64(); got != want {
		t.Errorf("flag surface digest %#x, want %#x; listing:\n%s", got, uint64(want), listing.String())
	}
}

// TestBadModelFileNamesTheDecodeError: a -model file that exists but does
// not decode (here a valid config followed by garbage) exits 2 with the
// decoder's error on one line, not a goroutine trace or "unknown model".
func TestBadModelFileNamesTheDecodeError(t *testing.T) {
	var buf bytes.Buffer
	if err := model.Save(&buf, model.Builtins()[0]); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("garbage")
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	_, stderr, exit := runCLI(t, "", "plan", "-model", path)
	if exit != 2 {
		t.Errorf("exit %d, want 2", exit)
	}
	if strings.Contains(stderr, "goroutine ") || strings.Count(stderr, "\n") != 1 {
		t.Errorf("want a one-line error, got:\n%s", stderr)
	}
	if !strings.Contains(stderr, "decoding config") || strings.Contains(stderr, "unknown model") {
		t.Errorf("want the decode error, got: %s", stderr)
	}
}
