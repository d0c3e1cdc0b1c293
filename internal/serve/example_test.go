package serve_test

import (
	"fmt"

	"meshslice/internal/autotune"
	"meshslice/internal/costmodel"
	"meshslice/internal/gemm"
	"meshslice/internal/hw"
	"meshslice/internal/model"
	"meshslice/internal/serve"
	"meshslice/internal/tensor"
	"meshslice/internal/topology"
)

// Example_inference shows inference on a 2D mesh in two acts. Act one is
// the per-GeMM view: decode steps multiply a tiny batch×hidden activation
// against the full weight matrices, so arithmetic intensity collapses and
// the roofline — not the FLOPS throughput — governs compute time (paper
// §6), which is why the autotuner stops slicing aggressively for decode.
// Act two is the serving view: the same memory-bound steps, scheduled
// continuously over a seeded request trace, where mesh shape and batching
// policy turn into user-visible latency quantiles and goodput — the
// objective autotune.TuneServing ranks.
func Example_inference() {
	cfg := model.GPT3()
	chip := hw.TPUv4()
	shape := topology.NewTorus(8, 8)

	fmt.Printf("%s on a %v mesh — decode batch 64 vs training batch 32×2048\n\n", cfg.Name, shape)
	fmt.Printf("%-14s  %-24s  %-8s  %-10s  %s\n", "regime", "GeMM (M,N,K)", "best S", "est. time", "bound by")

	show := func(regime string, g model.GeMMShape) {
		prob := gemm.Problem{M: g.M, N: g.N, K: g.K, Dataflow: gemm.OS}
		pc, ok := autotune.TunePass(prob, shape, chip, 0)
		if !ok {
			fmt.Printf("%-14s  %s: cannot shard\n", regime, g.Name())
			return
		}
		// Classify: memory-bound if halving EffFLOPS would not change the
		// per-iteration compute estimate.
		fast := chip
		fast.EffFLOPS *= 2
		fast.PeakFLOPS *= 2
		altEst := costmodel.MeshSlice(prob, shape, fast, pc.S)
		bound := "compute"
		if tensor.AlmostEqual(altEst.ComputeTime, pc.Estimate.ComputeTime, 1e-12) {
			bound = "HBM (memory)"
		}
		fmt.Printf("%-14s  %-24s  S=%-6d  %-10s  %s\n",
			regime, fmt.Sprintf("%s (%d,%d,%d)", g.Layer, g.M, g.N, g.K),
			pc.S, fmt.Sprintf("%.3fms", pc.Estimate.Total()*1e3), bound)
	}

	for _, g := range cfg.InferenceGeMMs(64) {
		show("decode", g)
	}
	fmt.Println()
	tokens := 32 * cfg.SeqLen
	for _, g := range cfg.TrainingGeMMs(tokens) {
		if g.Pass == model.Forward {
			show("training", g)
		}
	}
	fmt.Println("\ndecode GeMMs hit the HBM roof: weights stream once per token, so the")
	fmt.Println("autotuner stops slicing aggressively — there is no compute to hide under.")

	// Act two: serve a seeded Poisson trace through the continuous-batching
	// scheduler on two 16-chip shapes and compare what the shape choice does
	// to the latency tail and goodput.
	slo := serve.SLO{TTFT: 1.0, PerToken: 0.05}
	wl := serve.WorkloadSpec{Seed: 7, Rate: 12, Requests: 32}.Generate()
	const hbm = 64 * 1 << 30

	fmt.Printf("\nserving the same model: %d requests at 12 req/s, SLO TTFT %.1fs / %.0fms per token\n\n",
		len(wl), slo.TTFT, slo.PerToken*1e3)
	fmt.Printf("%-8s  %-10s  %-10s  %-12s  %-12s  %s\n",
		"shape", "TTFT p50", "TTFT p99", "tok p50", "tok p99", "goodput")
	for _, mesh := range []topology.Torus{{Rows: 4, Cols: 4}, {Rows: 2, Cols: 8}} {
		rep, err := serve.Run(serve.Config{
			Model: cfg, Chip: chip, Mesh: mesh, SLO: slo, HBMBytes: hbm,
		}, wl)
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("%-8s  %-10s  %-10s  %-12s  %-12s  %.2f req/s (%d/%d in SLO)\n",
			fmt.Sprintf("%dx%d", mesh.Rows, mesh.Cols),
			fmt.Sprintf("%.3fs", rep.TTFT.P50), fmt.Sprintf("%.3fs", rep.TTFT.P99),
			fmt.Sprintf("%.1fms", rep.PerToken.P50*1e3), fmt.Sprintf("%.1fms", rep.PerToken.P99*1e3),
			rep.Goodput, rep.SLOMet, rep.Completed)
	}

	choice, err := autotune.TuneServing(cfg, 16, chip, slo, wl, autotune.ServingOptions{HBMBytes: hbm})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("\nTuneServing picks %dx%d (S=%d, max-batch %d, chunk %d): %.2f req/s goodput\n",
		choice.Shape.Rows, choice.Shape.Cols, choice.Policy.SliceCount,
		choice.Policy.MaxBatch, choice.Policy.ChunkTokens, choice.Report.Goodput)
	fmt.Println("the tuner trades the decode batch's per-step latency against prefill")
	fmt.Println("chunking: big chunks cut TTFT but stretch every co-scheduled decode step.")

	// Output:
	// GPT-3 on a 8x8 torus mesh — decode batch 64 vs training batch 32×2048
	//
	// regime          GeMM (M,N,K)              best S    est. time   bound by
	// decode          QKV (64,36864,12288)      S=2       2.062ms     HBM (memory)
	// decode          AttnOut (64,12288,12288)  S=1       0.709ms     HBM (memory)
	// decode          FF1 (64,49152,12288)      S=3       2.734ms     HBM (memory)
	// decode          FF2 (64,12288,49152)      S=3       2.734ms     HBM (memory)
	//
	// training        QKV (65536,36864,12288)   S=16      4.019ms     compute
	// training        AttnOut (65536,12288,12288)  S=8       3.810ms     compute
	// training        FF1 (65536,49152,12288)   S=24      5.111ms     compute
	// training        FF2 (65536,12288,49152)   S=16      14.666ms    compute
	//
	// decode GeMMs hit the HBM roof: weights stream once per token, so the
	// autotuner stops slicing aggressively — there is no compute to hide under.
	//
	// serving the same model: 32 requests at 12 req/s, SLO TTFT 1.0s / 50ms per token
	//
	// shape     TTFT p50    TTFT p99    tok p50       tok p99       goodput
	// 4x4       0.121s      0.384s      46.7ms        59.9ms        2.92 req/s (18/32 in SLO)
	// 2x8       0.171s      0.498s      52.3ms        82.8ms        2.02 req/s (13/32 in SLO)
	//
	// TuneServing picks 4x4 (S=1, max-batch 16, chunk 256): 3.32 req/s goodput
	// the tuner trades the decode batch's per-step latency against prefill
	// chunking: big chunks cut TTFT but stretch every co-scheduled decode step.
}
