package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"

	"meshslice/internal/fault"
	"meshslice/internal/gemm"
	"meshslice/internal/mesh"
	"meshslice/internal/obs/recorder"
	"meshslice/internal/tensor"
)

// cmdRecord runs one distributed GeMM functionally with the flight
// recorder attached and exports the causal event log: canonical JSON (-o)
// and/or a Perfetto trace with per-chip spans and message-flow arrows
// (-chrome). With injected faults (-drop, -fail) the run dies with the
// typed error and the forensics dump prints instead — the post-mortem view
// of which chip was stuck where.
func cmdRecord(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	m := fs.Int("m", 64, "result rows M")
	n := fs.Int("n", 64, "result cols N")
	k := fs.Int("k", 64, "inner dimension K")
	rows := fs.Int("rows", 4, "mesh rows")
	cols := fs.Int("cols", 4, "mesh cols")
	algoName := fs.String("algo", "meshslice", "algorithm: meshslice, collective, summa, cannon, or wang")
	dataflow := fs.String("dataflow", "os", "dataflow: os, ls, or rs")
	s := fs.Int("s", 2, "MeshSlice slice count")
	block := fs.Int("block", 2, "MeshSlice block size")
	pipelined := fs.Bool("pipelined", false, "run the double-buffered overlapped schedule (MeshSlice, Wang); the trace then shows comm lanes under compute spans")
	seed := fs.Int64("seed", 1, "input seed")
	capacity := fs.Int("cap", 0, "per-chip event-ring capacity (0 = default)")
	out := fs.String("o", "", "write canonical recorder JSON here")
	chrome := fs.String("chrome", "", "write Perfetto/Chrome trace here")
	drop := fs.String("drop", "", "inject a lost message: from:to:nth (repeatable, comma-separated)")
	failChip := fs.String("fail", "", "inject a chip fail-stop: chip:afterSends")
	fs.Parse(args)
	requireInts(1, "a positive value", intFlag{"m", *m}, intFlag{"n", *n}, intFlag{"k", *k}, intFlag{"s", *s}, intFlag{"block", *block})
	requireInts(0, "a positive capacity, or 0 for the default", intFlag{"cap", *capacity})

	df, ok := dataflowByName(*dataflow)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown dataflow %q\n", *dataflow)
		os.Exit(2)
	}
	alg, ok := gemm.AlgorithmByName(*algoName)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown algorithm %q\n", *algoName)
		os.Exit(2)
	}
	if !alg.Supports(df) {
		fmt.Fprintf(os.Stderr, "%s does not implement the %v dataflow\n", alg.Name, df)
		os.Exit(2)
	}
	p := gemm.Problem{M: *m, N: *n, K: *k, Dataflow: df}
	tor := torusFromFlags(*rows, *cols)
	opts := gemm.AlgOptions{S: *s, Block: *block, Pipelined: *pipelined}
	if err := alg.Validate(p, tor, opts); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	mh := mesh.New(tor)
	rec := recorder.New(tor.Size(), *capacity)
	mh.SetRecorder(rec)
	var faults fault.MeshFaults
	for _, spec := range splitNonEmpty(*drop) {
		from, to, nth, err := parseTriple(spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad -drop %q: %v\n", spec, err)
			os.Exit(2)
		}
		faults.Drops = append(faults.Drops, fault.EdgeDrop{From: from, To: to, Nth: nth})
	}
	if *failChip != "" {
		chip, after, err := parsePair(*failChip)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad -fail %q: %v\n", *failChip, err)
			os.Exit(2)
		}
		faults.ChipFails = append(faults.ChipFails, fault.MeshChipFail{Chip: chip, AfterSends: after})
	}
	if err := faults.Validate(tor.Size()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if !faults.Empty() {
		mh.SetFaults(faults)
	}

	rng := rand.New(rand.NewSource(*seed))
	aR, aC, bR, bC := p.OperandShapes()
	a := tensor.Random(aR, aC, rng)
	b := tensor.Random(bR, bC, rng)
	as := tensor.Partition(a, tor.Rows, tor.Cols)
	bs := tensor.Partition(b, tor.Rows, tor.Cols)
	fn := alg.Build(df, opts)

	shards := make([]*tensor.Matrix, tor.Size())
	var mu sync.Mutex
	err := mh.RunE(func(c *mesh.Chip) {
		res := fn(c, as[c.Rank], bs[c.Rank])
		mu.Lock()
		shards[c.Rank] = res
		mu.Unlock()
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "run died: %v\n", err)
		switch e := err.(type) {
		case *mesh.RecvStallError:
			fmt.Fprint(os.Stderr, e.Dump)
		case *mesh.ChipFailedError:
			fmt.Fprint(os.Stderr, e.Dump)
		}
		writeExports(rec, *out, *chrome, alg.Name, df)
		os.Exit(1)
	}

	got := tensor.Assemble(shards, tor.Rows, tor.Cols)
	diff := got.MaxAbsDiff(p.Reference(a, b))
	status := "ok"
	if diff > 1e-9 {
		status = "FAILED"
	}
	snap := rec.Snapshot()
	events := uint64(0)
	for _, l := range snap.Logs {
		events += l.Recorded
	}
	ov := rec.Overlap()
	fmt.Printf("%s %v on %v: %s (max |Δ| %.2e), %d events across %d chips, overlap %d/%d async ops (%.2f)\n",
		alg.Name, df, tor, status, diff, events, tor.Size(), ov.Overlapped, ov.AsyncOps, ov.Fraction)
	writeExports(rec, *out, *chrome, alg.Name, df)
	if status != "ok" {
		os.Exit(1)
	}
}

// writeExports writes the canonical JSON and/or Perfetto trace.
func writeExports(rec *recorder.Recorder, jsonPath, chromePath, algo string, df gemm.Dataflow) {
	label := fmt.Sprintf("%s %v", algo, df)
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := rec.Snapshot().WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f.Close()
	}
	if chromePath != "" {
		f, err := os.Create(chromePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := recorder.WriteMeshChromeTrace(f, rec.Snapshot(), label); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f.Close()
	}
}

func dataflowByName(name string) (gemm.Dataflow, bool) {
	switch strings.ToLower(name) {
	case "os":
		return gemm.OS, true
	case "ls":
		return gemm.LS, true
	case "rs":
		return gemm.RS, true
	}
	return 0, false
}

func splitNonEmpty(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

func parseTriple(s string) (int, int, int, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("want from:to:nth")
	}
	vals := make([]int, 3)
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return 0, 0, 0, err
		}
		vals[i] = v
	}
	return vals[0], vals[1], vals[2], nil
}

func parsePair(s string) (int, int, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("want chip:afterSends")
	}
	a, err := strconv.Atoi(parts[0])
	if err != nil {
		return 0, 0, err
	}
	b, err := strconv.Atoi(parts[1])
	if err != nil {
		return 0, 0, err
	}
	return a, b, nil
}
