package main

import (
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
	c := newCLI("verify")
	p, tor, seed := c.functional()
	record := c.String("record", "", "write the sweep's canonical flight-recorder JSON here")
	c.parse(args)

	mh := mesh.New(tor.Torus)
	var rec *recorder.Recorder
	if *record != "" {
		rec = recorder.New(tor.Size(), 0)
		mh.SetRecorder(rec)
	}

	fmt.Printf("verifying M=%d N=%d K=%d (%v) on %v, S=%d B=%d\n\n", p.M, p.N, p.K, p.Dataflow, tor.Torus, p.opts.S, p.opts.Block)
	fmt.Printf("%-11s  %-8s  %s\n", "algorithm", "status", "max |Δ| vs reference")
	failed := false
	for _, r := range gemm.VerifyAlgorithmsOn(mh, p.Problem, p.opts, *seed, 1e-9) {
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
		writeFile(*record, rec.Snapshot().WriteJSON)
		fmt.Printf("\nflight-recorder JSON → %s\n", *record)
	}
	if failed {
		os.Exit(1)
	}
}
