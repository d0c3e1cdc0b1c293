package main

import (
	"fmt"
	"io"

	"meshslice/internal/calibrate"
	"meshslice/internal/hw"
)

// cmdCalibrate reproduces §4.5's calibration flow: benchmark ring
// collectives on small simulated clusters across shard sizes, fit the
// linear model, report the recovered parameters, and optionally write them
// out as a hardware profile.
func cmdCalibrate(args []string) {
	c := newCLI("calibrate")
	hwFile := c.String("hw", "", "ground-truth calibration profile to measure (default TPUv4)")
	out := c.output("write the fitted profile to this JSON file", "")
	c.parse(args)

	truth := hw.TPUv4()
	if *hwFile != "" {
		var err error
		truth, err = hw.LoadProfileFile(*hwFile)
		die(1, err)
	}

	// The paper's setup: 2- and 4-chip clusters, shards from 8 KB to 512 MB.
	rings := []int{2, 4}
	shards := []float64{8 << 10, 256 << 10, 8 << 20, 64 << 20, 512 << 20}
	samples := calibrate.Measure(truth, rings, shards)
	fmt.Printf("measured %d collective executions (%v-chip rings, 8KB–512MB shards)\n\n", len(samples), rings)

	fit, err := calibrate.Fit(samples)
	die(1, err)
	fmt.Printf("%-16s  %-14s  %-14s\n", "parameter", "ground truth", "fitted")
	fmt.Printf("%-16s  %-14s  %-14s\n", "bandwidth", fmt.Sprintf("%.2f GB/s", truth.LinkBandwidth/1e9), fmt.Sprintf("%.2f GB/s", fit.Bandwidth/1e9))
	fmt.Printf("%-16s  %-14s  %-14s\n", "t_sync", fmt.Sprintf("%.2f µs", truth.SyncLatency*1e6), fmt.Sprintf("%.2f µs", fit.SyncLatency*1e6))
	fmt.Printf("%-16s  %-14s  %-14s\n", "t_launch", fmt.Sprintf("%.2f µs", truth.LaunchOverhead*1e6), fmt.Sprintf("%.2f µs", fit.LaunchOverhead*1e6))
	fmt.Printf("max residual: %.3g\n", fit.MaxResidual)

	if out.o != "" {
		writeFile(out.o, func(w io.Writer) error { return hw.SaveProfile(w, fit.Apply(truth)) })
		fmt.Printf("fitted profile written to %s\n", out.o)
	}
}
