package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"meshslice/internal/autotune"
	"meshslice/internal/fault"
	"meshslice/internal/hw"
	"meshslice/internal/serve"
	"meshslice/internal/topology"
)

// cmdServe simulates deterministic LLM inference serving: a seeded Poisson
// workload runs through the continuous-batching scheduler, and the mesh
// shape plus batching policy either come from the flags (-rows/-cols) or
// from the SLO-driven serving autotuner. With -faults the command compares
// the stale healthy-fabric deployment against a fault-aware retune and
// prints the recovered goodput.
func cmdServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	modelName := fs.String("model", "gpt3", "LLM: gpt3, megatron, llama3-70b, or a JSON config path")
	chips := fs.Int("chips", 16, "cluster size: the shape search space, or -rows × -cols when both are set")
	rows := fs.Int("rows", 0, "fix the mesh rows (0 = autotune the shape and policy)")
	cols := fs.Int("cols", 0, "fix the mesh cols (0 = autotune the shape and policy)")
	rate := fs.Float64("rate", 10, "mean request arrival rate (requests/s)")
	requests := fs.Int("requests", 64, "number of requests in the generated trace")
	seed := fs.Int64("seed", 42, "workload seed (and fault-scenario seed)")
	sloTTFT := fs.Float64("slo", 1.0, "time-to-first-token SLO in seconds")
	sloTok := fs.Float64("slo-token", 0.05, "per-output-token SLO in seconds")
	hbmGB := fs.Float64("hbm-gb", 64, "per-chip HBM capacity in GiB")
	maxBatch := fs.Int("max-batch", 0, "fixed-shape decode batch cap (0 = default)")
	chunk := fs.Int("chunk", 0, "fixed-shape prefill chunk tokens (0 = default)")
	slices := fs.Int("slices", 0, "fixed-shape MeshSlice slice count (0 = default)")
	scenario := fs.String("faults", "", "fault scenario: col-degrade, stragglers, seeded, or chip-fail (empty = healthy fabric)")
	factor := fs.Float64("factor", 6, "degrade/slowdown factor for the fault scenario")
	out := fs.String("o", "", "write the canonical JSON serving report to this path")
	fs.Parse(args)
	for _, f := range []struct {
		name string
		v    float64
	}{{"rate", *rate}, {"hbm-gb", *hbmGB}, {"slo", *sloTTFT}, {"slo-token", *sloTok}} {
		// The library would quietly default a value <= 0, so the run
		// would not be the one the header prints.
		if !(f.v > 0) || math.IsInf(f.v, 0) {
			fmt.Fprintf(os.Stderr, "bad -%s %g: want a positive finite number\n", f.name, f.v)
			os.Exit(2)
		}
	}
	requireInts(1, "a positive count", intFlag{"requests", *requests}, intFlag{"chips", *chips})
	requireInts(0, "a positive count, or 0 for the default", intFlag{"slices", *slices}, intFlag{"max-batch", *maxBatch}, intFlag{"chunk", *chunk})
	requireInts(0, "a positive side, or 0 to autotune", intFlag{"rows", *rows}, intFlag{"cols", *cols})
	// -factor is checked without -faults too: a bad value is a bad flag
	// whether or not a scenario reads it.
	if err := checkFactor(*factor); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	requireMesh(*rows, *cols, *chips, "autotune")

	cfg := modelByName(*modelName)
	chip := hw.TPUv4()
	slo := serve.SLO{TTFT: *sloTTFT, PerToken: *sloTok}
	hbm := *hbmGB * (1 << 30)
	wl := serve.WorkloadSpec{Seed: *seed, Rate: *rate, Requests: *requests}.Generate()

	var plan *fault.Plan
	if *scenario != "" {
		p, err := faultScenario(*scenario, *chips, *seed, *factor)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		plan = p
	}

	fmt.Printf("model: %s   chips: %d   rate: %g req/s   requests: %d   seed: %d\n",
		cfg.Name, *chips, *rate, *requests, *seed)
	fmt.Printf("SLO: TTFT %.3fs, per-token %.3fs\n\n", slo.TTFT, slo.PerToken)

	var rep *serve.Report
	switch {
	case *rows > 0:
		// Fixed deployment: run exactly the requested shape and policy.
		r, err := serve.Run(serve.Config{
			Model: cfg, Chip: chip, Mesh: topology.Torus{Rows: *rows, Cols: *cols},
			Policy:       serve.Policy{MaxBatch: *maxBatch, ChunkTokens: *chunk, SliceCount: *slices},
			SLO:          slo,
			HBMBytes:     hbm,
			ClusterChips: *chips,
			Faults:       plan,
		}, wl)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		rep = r
		printServeReport("fixed deployment", rep)

	case plan == nil:
		// Healthy fabric: tune shape × policy for goodput under the SLO.
		choice, err := autotune.TuneServing(cfg, *chips, chip, slo, wl, autotune.ServingOptions{HBMBytes: hbm})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		rep = choice.Report
		printServeReport("tuned deployment", rep)

	default:
		// Degraded fabric: tune healthy, measure the stale choice under the
		// plan, retune fault-aware, and report the recovered goodput.
		res, err := autotune.TuneServingUnderFaults(cfg, *chips, chip, slo, wl, plan, autotune.ServingOptions{HBMBytes: hbm})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("fault scenario: %s (factor %g)\n\n", *scenario, *factor)
		printServeReport("stale (healthy-tuned) under faults", res.StaleUnderFaults)
		fmt.Println()
		printServeReport("fault-aware retuned", res.Retuned.Report)
		fmt.Printf("\nretuning gain: %+.3f req/s goodput (stale %.3f -> retuned %.3f)\n",
			res.Gain(), res.StaleUnderFaults.Goodput, res.Retuned.Report.Goodput)
		rep = res.Retuned.Report
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := rep.WriteJSON(f); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("\n(json report: %s)\n", *out)
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
