package memory_test

import (
	"fmt"

	"meshslice/internal/memory"
	"meshslice/internal/model"
)

// Example is the arithmetic behind the paper's §2.2 argument for 2D tensor
// parallelism. Given a model and per-chip HBM capacity, it finds the
// minimum TP degree that fits, shows how the per-chip data-parallel
// gradient traffic shrinks as the TP degree grows, and reproduces the
// Llama-3 thought experiment (8-way 1D TP vs 128-way 2D TP).
func Example() {
	const hbmCapacity = 32 * float64(1<<30) // TPUv4: 32 GiB HBM
	gib := func(v float64) string { return fmt.Sprintf("%.2fGiB", v/(1<<30)) }

	for _, cfg := range []model.Config{model.GPT3(), model.MegatronNLG()} {
		fmt.Printf("=== %s (%.0fB params) ===\n", cfg.Name, float64(cfg.ParamCount())/1e9)
		base := memory.Params{
			PPDegree:         8,
			TokensPerReplica: 2 * cfg.SeqLen,
			BytesPerParam:    2,
			SliceCount:       8,
		}
		fmt.Printf("%-10s  %-12s  %-12s  %-12s  %-8s  %s\n",
			"TP degree", "weights+grad", "optimizer", "activations", "total", "fits 32GiB?")
		minTP := 0
		for tp := 4; tp <= 256; tp *= 2 {
			p := base
			p.TPDegree = tp
			f, err := memory.Estimate(cfg, p)
			if err != nil {
				fmt.Println(err)
				continue
			}
			fits := memory.FitsHBM(f, hbmCapacity)
			if fits && minTP == 0 {
				minTP = tp
			}
			fmt.Printf("%-10d  %-12s  %-12s  %-12s  %-8s  %v\n",
				tp,
				gib(f.Weights+f.Gradients), gib(f.OptimizerState),
				gib(f.Activations), gib(f.Total()), fits)
		}
		fmt.Printf("minimum TP degree at PP=8: %d-way", minTP)
		if minTP > 8 {
			fmt.Printf("  — beyond the 8-way cap of fully-connected 1D TP fabrics; 2D TP territory")
		}
		fmt.Println()

		// §2.2: replacing 8-way 1D TP with 128-way 2D TP shrinks the
		// per-chip DP gradient traffic 16x (each chip holds 1/128th of the
		// weights instead of 1/8th).
		dp8 := memory.DPTrafficPerChip(cfg, 8, 8, 4, 2)
		dp128 := memory.DPTrafficPerChip(cfg, 128, 8, 4, 2)
		fmt.Printf("per-chip DP gradient traffic: %-10s at 8-way TP → %-10s at 128-way 2D TP (%.0fx less)\n\n",
			gib(dp8), gib(dp128), dp8/dp128)
	}
	// Output:
	// === GPT-3 (174B params) ===
	// TP degree   weights+grad  optimizer     activations   total     fits 32GiB?
	// 4           20.25GiB      60.75GiB      2.53GiB       83.58GiB  false
	// 8           10.12GiB      30.38GiB      1.27GiB       41.81GiB  false
	// 16          5.06GiB       15.19GiB      0.63GiB       20.91GiB  true
	// 32          2.53GiB       7.59GiB       0.32GiB       10.46GiB  true
	// 64          1.27GiB       3.80GiB       0.16GiB       5.23GiB   true
	// 128         0.63GiB       1.90GiB       0.08GiB       2.62GiB   true
	// 256         0.32GiB       0.95GiB       0.04GiB       1.31GiB   true
	// minimum TP degree at PP=8: 16-way  — beyond the 8-way cap of fully-connected 1D TP fabrics; 2D TP territory
	// per-chip DP gradient traffic: 7.59GiB    at 8-way TP → 0.47GiB    at 128-way 2D TP (16x less)
	//
	// === Megatron-NLG (528B params) ===
	// TP degree   weights+grad  optimizer     activations   total     fits 32GiB?
	// 4           61.52GiB      184.57GiB     4.61GiB       250.79GiB  false
	// 8           30.76GiB      92.29GiB      2.31GiB       125.43GiB  false
	// 16          15.38GiB      46.14GiB      1.15GiB       62.72GiB  false
	// 32          7.69GiB       23.07GiB      0.58GiB       31.37GiB  true
	// 64          3.85GiB       11.54GiB      0.29GiB       15.69GiB  true
	// 128         1.92GiB       5.77GiB       0.14GiB       7.85GiB   true
	// 256         0.96GiB       2.88GiB       0.07GiB       3.93GiB   true
	// minimum TP degree at PP=8: 32-way  — beyond the 8-way cap of fully-connected 1D TP fabrics; 2D TP territory
	// per-chip DP gradient traffic: 23.07GiB   at 8-way TP → 1.44GiB    at 128-way 2D TP (16x less)
}
