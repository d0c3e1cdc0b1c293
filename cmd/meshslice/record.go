package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"sync"

	"meshslice/internal/fault"
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
	c := newCLI("record")
	p, tor, seed := c.functional()
	algoName := c.String("algo", "meshslice", "algorithm: meshslice, collective, summa, cannon, or wang")
	pipelined := c.Bool("pipelined", false, "run the double-buffered overlapped schedule (MeshSlice, Wang); the trace then shows comm lanes under compute spans")
	capacity := c.atLeast("cap", 0, 0, "per-chip event-ring capacity (0 = default)")
	out := c.output("write canonical recorder JSON here", "write Perfetto/Chrome trace here")
	drop := c.String("drop", "", "inject a lost message: from:to:nth (repeatable, comma-separated)")
	failChip := c.String("fail", "", "inject a chip fail-stop: chip:afterSends")
	c.parse(args)

	alg, err := functionalAlgo(*algoName, p.Dataflow)
	die(2, err)
	p.opts.Pipelined = *pipelined
	die(2, alg.Validate(p.Problem, tor.Torus, p.opts))
	if *capacity > maxElements/tor.Size() {
		die(2, fmt.Errorf("bad -cap %d: %d chips' rings would hold over the %d events a run allocates", *capacity, tor.Size(), maxElements))
	}
	var faults fault.MeshFaults
	for _, spec := range strings.Split(*drop, ",") {
		if v, ok := ints(spec, ":", 3); ok {
			faults.Drops = append(faults.Drops, fault.EdgeDrop{From: v[0], To: v[1], Nth: v[2]})
		} else if *drop != "" {
			die(2, fmt.Errorf("bad -drop %q: want from:to:nth", spec))
		}
	}
	if *failChip != "" {
		v, ok := ints(*failChip, ":", 2)
		if !ok {
			die(2, fmt.Errorf("bad -fail %q: want chip:afterSends", *failChip))
		}
		faults.ChipFails = append(faults.ChipFails, fault.MeshChipFail{Chip: v[0], AfterSends: v[1]})
	}
	die(2, faults.Validate(tor.Size()))

	mh := mesh.New(tor.Torus)
	rec := recorder.New(tor.Size(), *capacity)
	mh.SetRecorder(rec)
	if !faults.Empty() {
		mh.SetFaults(faults)
	}
	rng := rand.New(rand.NewSource(*seed))
	aR, aC, bR, bC := p.OperandShapes()
	a := tensor.Random(aR, aC, rng)
	b := tensor.Random(bR, bC, rng)
	as := tensor.Partition(a, tor.Rows, tor.Cols)
	bs := tensor.Partition(b, tor.Rows, tor.Cols)
	fn := alg.Build(p.Dataflow, p.opts)

	shards := make([]*tensor.Matrix, tor.Size())
	var mu sync.Mutex
	err = mh.RunE(func(c *mesh.Chip) {
		res := fn(c, as[c.Rank], bs[c.Rank])
		mu.Lock()
		shards[c.Rank] = res
		mu.Unlock()
	})
	label := fmt.Sprintf("%s %v", alg.Name, p.Dataflow)
	failed := err != nil
	if failed {
		fmt.Fprintf(os.Stderr, "run died: %v\n", err)
		switch e := err.(type) {
		case *mesh.RecvStallError:
			fmt.Fprint(os.Stderr, e.Dump)
		case *mesh.ChipFailedError:
			fmt.Fprint(os.Stderr, e.Dump)
		}
	} else {
		diff := tensor.Assemble(shards, tor.Rows, tor.Cols).MaxAbsDiff(p.Reference(a, b))
		status := "ok"
		if failed = diff > 1e-9; failed {
			status = "FAILED"
		}
		events := uint64(0)
		for _, l := range rec.Snapshot().Logs {
			events += l.Recorded
		}
		ov := rec.Overlap()
		fmt.Printf("%s on %v: %s (max |Δ| %.2e), %d events across %d chips, overlap %d/%d async ops (%.2f)\n",
			label, tor.Torus, status, diff, events, tor.Size(), ov.Overlapped, ov.AsyncOps, ov.Fraction)
	}
	// A run that died exports what the recorder caught, for the post-mortem.
	if out.o != "" {
		writeFile(out.o, rec.Snapshot().WriteJSON)
	}
	if out.chrome != "" {
		writeFile(out.chrome, func(w io.Writer) error {
			return recorder.WriteMeshChromeTrace(w, rec.Snapshot(), label)
		})
	}
	if failed {
		os.Exit(1)
	}
}
