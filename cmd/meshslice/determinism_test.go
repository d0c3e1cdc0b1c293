package main

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
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
// and returns its stderr and exit code.
func runCLI(t *testing.T, procs string, args ...string) (stderr string, exit int) {
	t.Helper()
	cmd := exec.Command(meshsliceBin, args...)
	if procs != "" {
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+procs)
	}
	var errBuf bytes.Buffer
	cmd.Stderr = &errBuf
	var exitErr *exec.ExitError
	if err := cmd.Run(); err != nil && !errors.As(err, &exitErr) {
		t.Fatalf("meshslice %s: %v", strings.Join(args, " "), err)
	}
	return errBuf.String(), cmd.ProcessState.ExitCode()
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
	}{
		{args: "record", procs: anyProcs},
		{args: "record -pipelined -s 4", procs: anyProcs},
		{args: "record -algo wang -pipelined", procs: anyProcs},
		{args: "record -dataflow ls -pipelined -s 4", procs: anyProcs},
		{args: "stats -profile ../../profiles/tpuv4.json"},
		{args: "faults -chips 16 -scenario seeded -seed 7"},
		{args: "ckpt -rows 2 -cols 2 -steps 8 -every 2"},
		{args: "serve -chips 16 -requests 32", procs: anyProcs},
		{args: "serve -chips 32 -rows 4 -cols 8 -slices 3 -faults col-degrade -requests 32", procs: anyProcs},
		{args: "timeline -rows 4 -cols 4", out: "-chrome"},
		{args: "faults -chips 16 -scenario seeded -seed 7", out: "-chrome"},
		{args: "record -pipelined -s 4", out: "-chrome", procs: anyProcs},
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
				if stderr, exit := runCLI(t, procs, args...); exit != 0 {
					t.Fatalf("run %d (GOMAXPROCS=%q) exited %d: %s", i, procs, exit, stderr)
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
// lint:invariant panic in the library: each must die with exit status 2 and
// a one-line message, never a goroutine trace.
func TestBadFlagsExitTwoWithoutPanic(t *testing.T) {
	for _, args := range []string{
		"timeline -s 0",
		"timeline -s -3",
		"timeline -rows 0",
		"record -rows 0",
		"verify -rows 0",
		"stats -cols 0",
		"stats -s -1",
		"faults -factor 0",
		"faults -factor NaN",
		"faults -factor +Inf",
		"faults -scenario stragglers -factor 0.5",
		"serve -faults col-degrade -factor 0",
		"serve -faults col-degrade -factor NaN",
		"serve -rate NaN",
		"serve -rate Inf",
		"serve -rate -Inf",
		"serve -hbm-gb NaN",
		"serve -hbm-gb +Inf",
		"serve -slo NaN",
		"serve -slo -Inf",
		"serve -slo-token NaN",
		"serve -slo-token Inf",
		"serve -chips 16 -rows 4 -requests 8",
		"serve -chips 16 -cols 4 -requests 8",
		"serve -rows 4 -cols 4 -slices -2",
		"serve -rows 4 -cols 4 -max-batch -1",
		"serve -rows 4 -cols 4 -chunk -7",
		"sim -fabric NaN",
		"sim -fabric +Inf",
		"sim -fabric -2",
	} {
		t.Run(args, func(t *testing.T) {
			t.Parallel()
			stderr, exit := runCLI(t, "", strings.Fields(args)...)
			if exit != 2 {
				t.Errorf("exit %d, want 2", exit)
			}
			// A Go panic also exits 2; the trace is what tells them apart.
			if strings.Contains(stderr, "goroutine ") || strings.Count(stderr, "\n") != 1 {
				t.Errorf("want a one-line error, got:\n%s", stderr)
			}
		})
	}
}
