package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"runtime"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSchema keeps BENCHMARK.json and the harness's tables the same thing,
// and both inside the limits the benchmark contract sets.
func TestSchema(t *testing.T) {
	want, err := schemaJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the harness's tables; regenerate it with `go run ./benchmark -schema > BENCHMARK.json`")
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(got))
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEndDefs); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayerDefs); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q does not match %v", kind, n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name("workload", w.name)
		if len(w.why) == 0 || len(w.why) > 200 || bytes.ContainsRune([]byte(w.why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	hasSetup := false
	for _, d := range endToEndDefs {
		name("end-to-end", d.Name)
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || d.Name == "setup_s" && d.Unit == "s" && d.Better == lower
	}
	if !hasSetup {
		t.Error("end-to-end metrics lack setup_s (unit s, lower is better)")
	}
	for _, d := range allDefs() {
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q does not match %v", d.Name, d.Unit, unitRE)
		}
		if d.Better != lower && d.Better != higher {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
	for _, d := range perLayerDefs {
		name("per-layer", d.Name)
	}
}

// TestWorkloadsEmit runs one timed round of a workload and checks that it
// is correct and emits every end-to-end metric; the traced run of one cheap
// workload covers the per-layer side (runWorkload itself rejects a probe
// that stores a name BENCHMARK.json does not list). `go test ./...` runs the
// two cheap workloads only, to stay within a few seconds; BENCH_TEST_ALL=1
// runs all seven (every driver run checks them anyway).
func TestWorkloadsEmit(t *testing.T) {
	stdout = io.Discard
	defer func() { stdout = os.Stdout }()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(min(runtime.NumCPU(), 2)))
	cheap := map[string]bool{"sim_observed": true, "tune_train": true}
	for _, w := range workloads {
		if !cheap[w.name] && os.Getenv("BENCH_TEST_ALL") == "" {
			continue
		}
		res, err := runWorkload(w, options{seed: 1, rounds: 1, setups: 1, trace: "0"})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(endToEndDefs) {
			t.Errorf("%s: %d metrics in the result, want %d", w.name, len(res.Metrics), len(endToEndDefs))
		}
		for _, d := range endToEndDefs {
			v, ok := res.Metrics[d.Name]
			if !ok || v.Unit != d.Unit || !(v.Value > 0) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: %s = %+v (present %v), want a positive %s", w.name, d.Name, v, ok, d.Unit)
			}
		}
		if _, err := json.Marshal(res); err != nil {
			t.Errorf("%s: result does not encode: %v", w.name, err)
		}
	}
	if testing.Short() {
		return
	}
	w, _ := workloadByName("sim_observed")
	dir := t.TempDir()
	res, err := runWorkload(w, options{seed: 2, rounds: 2, setups: 1, trace: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || len(res.Metrics) != len(perLayerDefs) {
		t.Errorf("traced sim_observed: correct=%v, %d metrics, want %d", res.Correct, len(res.Metrics), len(perLayerDefs))
	}
	for _, name := range []string{"netsim.observed_ms", "netsim.trace_export_mb", "des.events", "obs.snapshot_kb", "bench.round_p50_ms"} {
		if !(res.Metrics[name].Value > 0) {
			t.Errorf("traced sim_observed: %s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
	var trace struct {
		Rounds int    `json:"rounds"`
		Spans  []span `json:"spans"`
	}
	data, err := os.ReadFile(dir + "/sim_observed.trace.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatal(err)
	}
	if trace.Rounds != 2 || len(trace.Spans) == 0 {
		t.Errorf("trace file holds %d rounds and %d spans", trace.Rounds, len(trace.Spans))
	}
}
