package main

import (
	"flag"
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
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	profile := fs.String("profile", "", "chip calibration JSON (default: built-in TPUv4)")
	m := fs.Int("m", 1<<16, "result rows M")
	n := fs.Int("n", 12288, "result cols N")
	k := fs.Int("k", 12288, "inner dimension K")
	rows := fs.Int("rows", 4, "mesh rows")
	cols := fs.Int("cols", 4, "mesh cols")
	s := fs.Int("s", 0, "MeshSlice slice count (0 = autotune it, publishing the search metrics)")
	out := fs.String("o", "", "write the snapshot to this file (default: stdout)")
	fs.Parse(args)

	chip := hw.TPUv4()
	if *profile != "" {
		var err error
		chip, err = hw.LoadProfileFile(*profile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	tor := torusFromFlags(*rows, *cols)
	requireInts(1, "a positive value", intFlag{"m", *m}, intFlag{"n", *n}, intFlag{"k", *k})
	requireInts(0, "a positive count, or 0 to autotune", intFlag{"s", *s})
	prob := gemm.Problem{M: *m, N: *n, K: *k, Dataflow: gemm.OS}
	reg := obs.NewRegistry()

	slices := *s
	if slices == 0 {
		choice, ok := autotune.InstrumentedTunePass(prob, tor, chip, 0, reg)
		if !ok {
			fmt.Fprintf(os.Stderr, "no feasible slice count for M=%d on %v\n", *m, tor)
			os.Exit(1)
		}
		slices = choice.S
	}

	progs := []*sched.Program{
		sched.MeshSliceProgram(prob, tor, chip, slices),
		sched.CollectiveProgram(prob, tor, chip),
		sched.WangProgram(prob, tor, chip, slices),
		sched.SUMMAProgram(prob, tor, chip, 0),
		sched.OneDTPProgram(*m, *n, *k, tor.Size(), chip),
		sched.FSDPProgram(*m, *n, *k, tor.Size(), chip),
	}
	if tor.IsSquare() {
		progs = append(progs, sched.CannonProgram(prob, tor, chip))
	}
	for _, p := range progs {
		netsim.Simulate(p, chip, netsim.Options{CriticalPath: true, Metrics: reg})
	}
	publishFunctionalOverlap(reg, tor)

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := reg.WriteJSON(w); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
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
			fmt.Fprintf(os.Stderr, "overlap probe infeasible on %v: %v\n", tor, err)
			os.Exit(1)
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
