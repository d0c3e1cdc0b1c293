package main

import (
	"fmt"
	"math/rand"
	"os"

	"meshslice/internal/autotune"
	"meshslice/internal/gemm"
	"meshslice/internal/hw"
	"meshslice/internal/mesh"
	"meshslice/internal/netsim"
	"meshslice/internal/obs"
	"meshslice/internal/obs/recorder"
	"meshslice/internal/sched"
	"meshslice/internal/tensor"
	"meshslice/internal/topology"
)

// cmdStats simulates one GeMM under every builtin algorithm with full
// telemetry enabled and emits the deterministic JSON metrics snapshot:
// makespans, per-chip busy and bubble times, per-link traffic, op-duration
// histograms, critical-path attribution, kernel statistics, and the
// autotuner's slice-count search trajectory. Two runs with the same inputs
// produce byte-identical output.
func cmdStats(args []string) {
	c := newCLI("stats")
	profile := c.String("profile", "", "chip calibration JSON (default: built-in TPUv4)")
	p := c.problem(1<<16, 12288, 12288, false)
	p.slices(c, 0, "autotune it, publishing the search metrics")
	tor := c.mesh(4, 4)
	out := c.output("write the snapshot to this file (default: stdout)", "")
	c.parse(args)

	chip := hw.TPUv4()
	if *profile != "" {
		var err error
		chip, err = hw.LoadProfileFile(*profile)
		die(1, err)
	}
	reg := obs.NewRegistry()
	slices := p.opts.S
	if slices == 0 {
		choice, ok := autotune.InstrumentedTunePass(p.Problem, tor.Torus, chip, 0, reg)
		if !ok {
			die(1, fmt.Errorf("no feasible slice count for M=%d on %v", p.M, tor.Torus))
		}
		slices = choice.S
	}

	for _, prog := range programs(p.Problem, tor.Torus, chip, slices,
		sched.OneDTPProgram(p.M, p.N, p.K, tor.Size(), chip),
		sched.FSDPProgram(p.M, p.N, p.K, tor.Size(), chip)) {
		netsim.Simulate(prog, chip, netsim.Options{CriticalPath: true, Metrics: reg})
	}
	publishFunctionalOverlap(reg, tor.Torus)
	if out.o != "" {
		writeFile(out.o, reg.WriteJSON)
	} else {
		die(1, reg.WriteJSON(os.Stdout))
	}
}

// publishFunctionalOverlap runs one small GeMM on the functional mesh
// runtime twice — serial and pipelined MeshSlice — with the flight recorder
// attached, and publishes the recorder's structural comm/compute overlap
// tallies as gauges. The serial row pins the metric's zero (no async ops),
// the pipelined row shows the overlap the double-buffered schedule actually
// achieves on this mesh shape. The probe is sized from the torus so it
// validates on any mesh, and the recorder's merge-at-Wait design keeps the
// values deterministic, so the snapshot stays byte-identical across runs.
func publishFunctionalOverlap(reg *obs.Registry, tor topology.Torus) {
	q := tor.Rows * tor.Cols
	probe := gemm.Problem{M: 8 * q, N: 8 * q, K: 16 * q, Dataflow: gemm.OS}
	aR, aC, bR, bC := probe.OperandShapes()
	rng := rand.New(rand.NewSource(1))
	a := tensor.Random(aR, aC, rng)
	b := tensor.Random(bR, bC, rng)
	as := tensor.Partition(a, tor.Rows, tor.Cols)
	bs := tensor.Partition(b, tor.Rows, tor.Cols)

	for _, mode := range []string{"serial", "pipelined"} {
		cfg := gemm.MeshSliceConfig{S: 4, Block: 1, Pipelined: mode == "pipelined"}
		if err := cfg.Validate(probe, tor); err != nil {
			die(1, fmt.Errorf("overlap probe infeasible on %v: %v", tor, err))
		}
		mh := mesh.New(tor)
		rec := recorder.New(tor.Size(), 0)
		mh.SetRecorder(rec)
		gemm.Run(mh, gemm.MeshSlice(gemm.OS, cfg), as, bs)
		ov := rec.Overlap()
		l := obs.L("mode", mode)
		reg.Gauge("functional_overlap_fraction", l).Set(ov.Fraction)
		reg.Gauge("functional_overlap_async_ops", l).Set(float64(ov.AsyncOps))
		reg.Gauge("functional_overlap_overlapped", l).Set(float64(ov.Overlapped))
	}
}
