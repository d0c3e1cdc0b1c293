package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"meshslice/internal/cluster"
	"meshslice/internal/hw"
)

// cmdPlan searches 3D parallelisation plans (DP × PP × TP) for a cluster
// and prints the best ones: the quantified version of the paper's §2.2
// argument for wide 2D tensor parallelism.
func cmdPlan(args []string) {
	fs := flag.NewFlagSet("plan", flag.ExitOnError)
	modelName := fs.String("model", "megatron", "LLM: gpt3 or megatron")
	chips := fs.Int("chips", 2048, "total cluster size")
	batch := fs.Int("batch", 512, "global batch (sequences)")
	max1D := fs.Int("max1dtp", 8, "1D TP degree cap (0 = uncapped)")
	top := fs.Int("top", 10, "plans to print")
	hbmGiB := fs.Float64("hbm", 32, "per-chip HBM capacity in GiB")
	fs.Parse(args)
	requireInts(1, "a positive count", intFlag{"chips", *chips}, intFlag{"batch", *batch}, intFlag{"top", *top})
	requireInts(0, "a positive degree, or 0 for no cap", intFlag{"max1dtp", *max1D})
	// cluster.Options reads a capacity <= 0 as its 32 GiB default, and NaN
	// fits no plan: either way the run would not be the one the header
	// prints.
	if !(*hbmGiB > 0) || math.IsInf(*hbmGiB, 0) {
		fmt.Fprintf(os.Stderr, "bad -hbm %g: want a positive finite number\n", *hbmGiB)
		os.Exit(2)
	}

	cfg := modelByName(*modelName)
	chip := hw.TPUv4()
	evs := cluster.Search(cfg, *chips, *batch, chip, *max1D, cluster.Options{
		HBMCapacity: *hbmGiB * float64(1<<30),
	})
	if len(evs) == 0 {
		fmt.Printf("no feasible plan for %s on %d chips with %.0f GiB HBM\n", cfg.Name, *chips, *hbmGiB)
		return
	}
	fmt.Printf("%s on %d chips, batch %d, HBM %.0f GiB, 1D TP capped at %d-way\n\n",
		cfg.Name, *chips, *batch, *hbmGiB, *max1D)
	fmt.Printf("%-34s  %-10s  %-9s  %-9s  %-9s  %s\n",
		"plan", "step", "bubble", "DP sync", "mem/chip", "util")
	for i, ev := range evs {
		if i >= *top {
			break
		}
		fmt.Printf("%-34s  %-10s  %-9s  %-9s  %-9s  %.1f%%\n",
			ev.Plan,
			fmt.Sprintf("%.0fms", ev.StepTime*1e3),
			fmt.Sprintf("%.0fms", ev.BubbleTime*1e3),
			fmt.Sprintf("%.1fms", ev.DPSyncTime*1e3),
			fmt.Sprintf("%.1fGiB", ev.Memory.Total()/(1<<30)),
			100*ev.Utilization(cfg, *batch, chip))
	}
}
