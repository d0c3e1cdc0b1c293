// Command meshslice runs the paper's experiments one at a time from the
// command line; each subcommand lists its flags with -h.
//
//	tune       the LLM autotuner's mesh shape, dataflows and slice counts
//	sim        one transformer block's FC GeMMs under an algorithm
//	gemm       one simulated GeMM under one or all algorithms (-record replays it)
//	timeline   per-algorithm ASCII timelines (Fig. 4) and Perfetto traces
//	stats      the deterministic JSON telemetry snapshot of one GeMM
//	plan       DP × PP × TP plans for a cluster (§2.2)
//	calibrate  the collective cost model fitted to measured rings (§4.5)
//	verify     every algorithm run functionally against the reference
//	faults     the stale healthy-fabric tuning vs a fault-aware retune
//	record     one functional GeMM under the flight recorder, with forensics
//	ckpt       sharded snapshots, a chip failure, reshard and bit-exact resume
//	serve      LLM inference serving, fixed or SLO-tuned, healthy or faulty
package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"

	"meshslice/internal/autotune"
	"meshslice/internal/gemm"
	"meshslice/internal/hw"
	"meshslice/internal/mesh"
	"meshslice/internal/model"
	"meshslice/internal/obs/recorder"
	"meshslice/internal/tensor"
	"meshslice/internal/topology"
	"meshslice/internal/train"
)

// subcommands in the order the usage line lists them.
var subcommands = []struct {
	name string
	run  func(args []string)
}{
	{"tune", cmdTune}, {"sim", cmdSim}, {"gemm", cmdGeMM}, {"timeline", cmdTimeline},
	{"stats", cmdStats}, {"plan", cmdPlan}, {"calibrate", cmdCalibrate}, {"verify", cmdVerify},
	{"faults", cmdFaults}, {"record", cmdRecord}, {"ckpt", cmdCkpt}, {"serve", cmdServe},
}

func main() {
	var names []string
	for _, sub := range subcommands {
		if len(os.Args) > 1 && os.Args[1] == sub.name {
			sub.run(os.Args[2:])
			return
		}
		names = append(names, sub.name)
	}
	die(2, fmt.Errorf("usage: meshslice {%s} [flags]  (run a subcommand with -h for its flags)", strings.Join(names, "|")))
}

func cmdTune(args []string) {
	c := newCLI("tune")
	mf := c.model("gpt3", true)
	cl := c.cluster(256, "cluster size")
	noOpt := c.Bool("no-dataflow-opt", false, "skip phase 1 (use Y-stn everywhere)")
	c.parse(args)

	tk := mf.tokensFor(cl.chips)
	choice, err := autotune.Tune(mf.Config, tk, cl.chips, hw.TPUv4(), autotune.Options{OptimizeDataflow: !*noOpt})
	die(1, err)
	fmt.Printf("model: %s   chips: %d   tokens: %d\n", mf.Name, cl.chips, tk)
	fmt.Printf("chosen mesh shape: %v\n", choice.Shape)
	fmt.Printf("estimated FC time per block: %.3fms\n\n", choice.BlockTime*1e3)
	fmt.Printf("%-8s  %-6s  %-22s  %s\n", "layer", "stn", "pass", "S / est time")
	for _, lc := range choice.Layers {
		for pass, pc := range lc.Passes {
			fmt.Printf("%-8s  %-6v  %-22s  S=%-3d %.3fms\n",
				lc.Plan.Layer.Name, lc.Plan.Stationary,
				fmt.Sprintf("%v %v", model.Pass(pass), pc.Problem.Dataflow),
				pc.S, pc.Estimate.Total()*1e3)
		}
	}
}

func cmdSim(args []string) {
	c := newCLI("sim")
	mf := c.model("gpt3", false)
	fm := c.fixableMesh(256, "search")
	algos := c.algos("meshslice", train.Algos)
	noOverlap := c.Bool("no-overlap", false, "forbid comm/compute overlap (real-TPU mode)")
	stepLevel := c.Bool("steplevel", false, "simulate collectives one ring step at a time")
	fabric := c.factor("fabric", 0, 0, "logical-mesh fabric contention factor (0/1 = physical mesh)")
	bidir := c.Bool("bidir", false, "drive both ICI directions for AG/RdS collectives")
	tiled := c.Bool("tiled", false, "use the tiled chip compute model")
	c.parse(args)

	tk := mf.tokensFor(fm.chips)
	opts := train.Options{OptimizeDataflow: true}
	opts.Sim.NoOverlap = *noOverlap
	opts.Sim.StepLevel = *stepLevel
	opts.Sim.FabricContention = *fabric
	opts.Sim.BidirectionalRings = *bidir
	opts.Sim.TiledCompute = *tiled
	if fm.rows > 0 {
		opts.Shapes = []topology.Torus{fm.Torus}
	}
	chip := hw.TPUv4()
	fmt.Printf("model: %s   chips: %d   tokens: %d\n\n", mf.Name, fm.chips, tk)
	fmt.Printf("%-11s  %-10s  %-10s  %-8s  %s\n", "algorithm", "shape", "block time", "util", "comm launch/transfer/sync (ms)")
	for _, algo := range *algos {
		r, err := train.EvaluateFC(mf.Config, tk, fm.chips, chip, algo, opts)
		if err != nil {
			fmt.Printf("%-11s  %v\n", algo, err)
			continue
		}
		fmt.Printf("%-11s  %-10v  %-10s  %-8s  %.3f / %.3f / %.3f\n",
			algo, r.Shape, fmt.Sprintf("%.3fms", r.Time*1e3),
			fmt.Sprintf("%.1f%%", 100*r.Utilization(chip)),
			r.Comm.Launch*1e3, r.Comm.Transfer*1e3, r.Comm.Sync*1e3)
	}
}

func cmdGeMM(args []string) {
	c := newCLI("gemm")
	p := c.problem(1<<17, 12288, 12288, true)
	cl := c.cluster(256, "cluster size")
	algos := c.algos("all", train.TwoDAlgos)
	record := c.String("record", "", "also replay one algorithm functionally (near-square mesh, use modest M/N/K) and write its flight-recorder JSON here; requires a specific -algo")
	// The replay's checks run here too, so a bad -record exits before the
	// table prints.
	var replay gemm.Algorithm
	var tor topology.Torus
	c.check(func() (err error) {
		if *record == "" {
			return nil
		}
		if len(*algos) != 1 {
			return errors.New("-record needs a specific -algo (the functional replay runs one algorithm)")
		}
		if replay, err = functionalAlgo((*algos)[0].String(), p.Dataflow); err != nil {
			return err
		}
		rows := int(math.Sqrt(float64(cl.chips)))
		for cl.chips%rows != 0 {
			rows--
		}
		tor = topology.NewTorus(rows, cl.chips/rows)
		if err := p.fits(); err != nil {
			return err
		}
		return replay.Validate(p.Problem, tor, gemm.AlgOptions{})
	})
	c.parse(args)

	chip := hw.TPUv4()
	fmt.Printf("GeMM M=%d N=%d K=%d (%v) on %d chips\n\n", p.M, p.N, p.K, p.Dataflow, cl.chips)
	fmt.Printf("%-11s  %-10s  %-10s  %s\n", "algorithm", "shape", "time", "util")
	for _, algo := range *algos {
		r, err := train.EvaluateGeMM(p.Problem, cl.chips, chip, algo, train.Options{})
		if err != nil {
			fmt.Printf("%-11s  %v\n", algo, err)
			continue
		}
		fmt.Printf("%-11s  %-10v  %-10s  %.1f%%\n",
			algo, r.Shape, fmt.Sprintf("%.3fms", r.Time*1e3), 100*r.Utilization(chip))
	}
	if *record == "" {
		return
	}
	// Replay the GeMM functionally on a near-square factorisation of the
	// chip count with the flight recorder attached.
	mh := mesh.New(tor)
	rec := recorder.New(tor.Size(), 0)
	mh.SetRecorder(rec)
	rng := rand.New(rand.NewSource(1))
	aR, aC, bR, bC := p.OperandShapes()
	a := tensor.Random(aR, aC, rng)
	b := tensor.Random(bR, bC, rng)
	gemm.MultiplyOn(mh, replay.Build(p.Dataflow, gemm.AlgOptions{}), a, b)
	writeFile(*record, rec.Snapshot().WriteJSON)
	fmt.Printf("\nfunctional replay on %v recorded → %s\n", tor, *record)
}
