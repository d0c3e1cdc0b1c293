package main

import (
	"fmt"

	"meshslice/internal/cluster"
	"meshslice/internal/hw"
)

// cmdPlan searches 3D parallelisation plans (DP × PP × TP) for a cluster
// and prints the best ones: the quantified version of the paper's §2.2
// argument for wide 2D tensor parallelism.
func cmdPlan(args []string) {
	c := newCLI("plan")
	mf := c.model("megatron", false)
	cl := c.cluster(2048, "total cluster size")
	batch := c.atLeast("batch", 512, 1, "global batch (sequences)")
	max1D := c.atLeast("max1dtp", 8, 0, "1D TP degree cap (0 = uncapped)")
	top := c.atLeast("top", 10, 1, "plans to print")
	// cluster.Options reads a capacity <= 0 as its 32 GiB default, and NaN
	// fits no plan.
	hbmGiB := c.positive("hbm", 32, "per-chip HBM capacity in GiB")
	c.parse(args)

	cfg, chips := mf.Config, cl.chips
	chip := hw.TPUv4()
	evs := cluster.Search(cfg, chips, *batch, chip, *max1D, cluster.Options{
		HBMCapacity: *hbmGiB * float64(1<<30),
	})
	if len(evs) == 0 {
		fmt.Printf("no feasible plan for %s on %d chips with %.0f GiB HBM\n", cfg.Name, chips, *hbmGiB)
		return
	}
	fmt.Printf("%s on %d chips, batch %d, HBM %.0f GiB, 1D TP capped at %d-way\n\n",
		cfg.Name, chips, *batch, *hbmGiB, *max1D)
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
