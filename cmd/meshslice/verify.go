package main

import (
	"flag"
	"fmt"
	"os"

	"meshslice/internal/gemm"
	"meshslice/internal/mesh"
	"meshslice/internal/obs/recorder"
)

// cmdVerify runs every distributed GeMM algorithm functionally — real data
// over the goroutine mesh — on a user-chosen problem and mesh, and checks
// each against the single-node reference multiplication.
func cmdVerify(args []string) {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	m := fs.Int("m", 64, "result rows M")
	n := fs.Int("n", 64, "result cols N")
	k := fs.Int("k", 64, "inner dimension K")
	rows := fs.Int("rows", 4, "mesh rows")
	cols := fs.Int("cols", 4, "mesh cols")
	s := fs.Int("s", 2, "MeshSlice slice count")
	block := fs.Int("block", 2, "MeshSlice block size")
	dataflow := fs.String("dataflow", "os", "dataflow: os, ls, or rs")
	seed := fs.Int64("seed", 1, "input seed")
	record := fs.String("record", "", "write the sweep's canonical flight-recorder JSON here")
	fs.Parse(args)
	requireInts(1, "a positive value", intFlag{"m", *m}, intFlag{"n", *n}, intFlag{"k", *k}, intFlag{"s", *s}, intFlag{"block", *block})

	df, ok := dataflowByName(*dataflow)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown dataflow %q\n", *dataflow)
		os.Exit(2)
	}
	p := gemm.Problem{M: *m, N: *n, K: *k, Dataflow: df}
	tor := torusFromFlags(*rows, *cols)
	opts := gemm.AlgOptions{S: *s, Block: *block}
	mh := mesh.New(tor)
	var rec *recorder.Recorder
	if *record != "" {
		rec = recorder.New(tor.Size(), 0)
		mh.SetRecorder(rec)
	}

	fmt.Printf("verifying M=%d N=%d K=%d (%v) on %v, S=%d B=%d\n\n", *m, *n, *k, df, tor, *s, *block)
	fmt.Printf("%-11s  %-8s  %s\n", "algorithm", "status", "max |Δ| vs reference")
	failed := false
	for _, r := range gemm.VerifyAlgorithmsOn(mh, p, opts, *seed, 1e-9) {
		switch {
		case r.Skipped != "":
			fmt.Printf("%-11s  %-8s  (%s)\n", r.Algorithm, "skipped", r.Skipped)
		case r.OK:
			fmt.Printf("%-11s  %-8s  %.2e\n", r.Algorithm, "ok", r.MaxDiff)
		default:
			failed = true
			fmt.Printf("%-11s  %-8s  %.2e\n", r.Algorithm, "FAILED", r.MaxDiff)
		}
	}
	if rec != nil {
		f, err := os.Create(*record)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := rec.Snapshot().WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("\nflight-recorder JSON → %s\n", *record)
	}
	if failed {
		os.Exit(1)
	}
}
