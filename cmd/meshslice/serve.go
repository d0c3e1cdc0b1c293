package main

import (
	"fmt"

	"meshslice/internal/autotune"
	"meshslice/internal/fault"
	"meshslice/internal/hw"
	"meshslice/internal/serve"
)

// cmdServe simulates deterministic LLM inference serving: a seeded Poisson
// workload runs through the continuous-batching scheduler, and the mesh
// shape plus batching policy either come from the flags (-rows/-cols) or
// from the SLO-driven serving autotuner. With -faults the command compares
// the stale healthy-fabric deployment against a fault-aware retune and
// prints the recovered goodput.
func cmdServe(args []string) {
	c := newCLI("serve")
	mf := c.model("gpt3", false)
	fm := c.fixableMesh(16, "autotune the shape and policy")
	rate := c.positive("rate", 10, "mean request arrival rate (requests/s)")
	requests := c.atLeast("requests", 64, 1, "number of requests in the generated trace")
	seed := c.seed(42, "workload and fault scenario")
	sloTTFT := c.positive("slo", 1.0, "time-to-first-token SLO in seconds")
	sloTok := c.positive("slo-token", 0.05, "per-output-token SLO in seconds")
	hbmGB := c.positive("hbm-gb", 64, "per-chip HBM capacity in GiB")
	maxBatch := c.atLeast("max-batch", 0, 0, "fixed-shape decode batch cap (0 = default)")
	chunk := c.atLeast("chunk", 0, 0, "fixed-shape prefill chunk tokens (0 = default)")
	slices := c.atLeast("slices", 0, 0, "fixed-shape MeshSlice slice count (0 = default)")
	scenario := c.String("faults", "", "fault scenario: col-degrade, stragglers, seeded, or chip-fail (empty = healthy fabric)")
	// -factor is checked without -faults too: a bad value is a bad flag
	// whether or not a scenario reads it.
	factor := c.factor("factor", 6, 1, "degrade/slowdown factor for the fault scenario")
	out := c.output("write the canonical JSON serving report to this path", "")
	c.parse(args)

	cfg, chips := mf.Config, fm.chips
	chip := hw.TPUv4()
	slo := serve.SLO{TTFT: *sloTTFT, PerToken: *sloTok}
	hbm := *hbmGB * (1 << 30)
	wl := serve.WorkloadSpec{Seed: *seed, Rate: *rate, Requests: *requests}.Generate()
	var plan *fault.Plan
	var err error
	if *scenario != "" {
		plan, err = faultScenario(*scenario, chips, *seed, *factor)
		die(2, err)
	}

	fmt.Printf("model: %s   chips: %d   rate: %g req/s   requests: %d   seed: %d\n",
		cfg.Name, chips, *rate, *requests, *seed)
	fmt.Printf("SLO: TTFT %.3fs, per-token %.3fs\n\n", slo.TTFT, slo.PerToken)

	var rep *serve.Report
	switch {
	case fm.rows > 0:
		// Fixed deployment: run exactly the requested shape and policy.
		rep, err = serve.Run(serve.Config{
			Model: cfg, Chip: chip, Mesh: fm.Torus,
			Policy:       serve.Policy{MaxBatch: *maxBatch, ChunkTokens: *chunk, SliceCount: *slices},
			SLO:          slo,
			HBMBytes:     hbm,
			ClusterChips: chips,
			Faults:       plan,
		}, wl)
		die(1, err)
		printServeReport("fixed deployment", rep)

	case plan == nil:
		// Healthy fabric: tune shape × policy for goodput under the SLO.
		choice, err := autotune.TuneServing(cfg, chips, chip, slo, wl, autotune.ServingOptions{HBMBytes: hbm})
		die(1, err)
		rep = choice.Report
		printServeReport("tuned deployment", rep)

	default:
		// Degraded fabric: tune healthy, measure the stale choice under the
		// plan, retune fault-aware, and report the recovered goodput.
		res, err := autotune.TuneServingUnderFaults(cfg, chips, chip, slo, wl, plan, autotune.ServingOptions{HBMBytes: hbm})
		die(1, err)
		fmt.Printf("fault scenario: %s (factor %g)\n\n", *scenario, *factor)
		printServeReport("stale (healthy-tuned) under faults", res.StaleUnderFaults)
		fmt.Println()
		printServeReport("fault-aware retuned", res.Retuned.Report)
		fmt.Printf("\nretuning gain: %+.3f req/s goodput (stale %.3f -> retuned %.3f)\n",
			res.Gain(), res.StaleUnderFaults.Goodput, res.Retuned.Report.Goodput)
		rep = res.Retuned.Report
	}

	if out.o != "" {
		writeFile(out.o, rep.WriteJSON)
		fmt.Printf("\n(json report: %s)\n", out.o)
	}
}

// printServeReport renders one serving report as a short human summary; the
// canonical machine form is Report.WriteJSON.
func printServeReport(label string, r *serve.Report) {
	fmt.Printf("%s: %s on %dx%d  (S=%d, max-batch %d, chunk %d)\n",
		label, r.Model, r.Rows, r.Cols, r.SliceCount, r.MaxBatch, r.ChunkTokens)
	if !r.Feasible {
		fmt.Printf("  infeasible: %s\n", r.Reason)
		return
	}
	fmt.Printf("  completed %d/%d  (rejected %d, preemptions %d, steps %d)\n",
		r.Completed, r.Requests, r.Rejected, r.Preemptions, r.Steps)
	fmt.Printf("  TTFT      p50 %.3fs  p95 %.3fs  p99 %.3fs\n", r.TTFT.P50, r.TTFT.P95, r.TTFT.P99)
	fmt.Printf("  per-token p50 %.4fs  p95 %.4fs  p99 %.4fs\n", r.PerToken.P50, r.PerToken.P95, r.PerToken.P99)
	fmt.Printf("  e2e       p50 %.3fs  p99 %.3fs   makespan %.3fs\n", r.E2E.P50, r.E2E.P99, r.MakespanS)
	fmt.Printf("  goodput: %.3f req/s meeting SLO  (%d of %d completions)\n", r.Goodput, r.SLOMet, r.Completed)
}
