// Command meshslice runs individual simulations and the LLM autotuner from
// the command line.
//
// Subcommands:
//
//	meshslice tune  -model gpt3 -chips 256 [-tokens N] [-no-dataflow-opt]
//	    Run the LLM autotuner and print the chosen mesh shape, per-layer
//	    dataflows and slice counts, and estimated block time.
//
//	meshslice sim   -model gpt3 -chips 256 -algo meshslice [-rows R -cols C]
//	    Simulate one transformer block's FC GeMMs under an algorithm and
//	    print the makespan, utilisation, and communication breakdown.
//
//	meshslice gemm  -m M -n N -k K -chips P -algo all [-dataflow os]
//	    Simulate a single distributed GeMM under one or all algorithms.
//
//	meshslice stats -m M -n N -k K -rows R -cols C [-profile chip.json] [-o out.json]
//	    Simulate one GeMM under every builtin algorithm with telemetry on
//	    and emit the deterministic JSON metrics snapshot (makespans,
//	    per-chip busy/bubble time, critical-path attribution, histograms).
//
//	meshslice timeline -m M -n N -k K -rows R -cols C [-chrome DIR]
//	    Render per-algorithm ASCII timelines; -chrome also exports
//	    whole-cluster Perfetto/Chrome traces (one process per chip).
//
//	meshslice faults -model gpt3 -chips 64 -scenario col-degrade [-o out.json] [-chrome trace.json]
//	    Build a deterministic fault plan (degraded links, stragglers, or a
//	    seeded mix), simulate the stale healthy-fabric tuning choice under
//	    it, rerun the autotuner fault-aware, and compare the two.
//
//	meshslice record -m M -n N -k K -rows R -cols C -algo meshslice [-o events.json] [-chrome trace.json]
//	    Run one distributed GeMM functionally with the flight recorder
//	    attached and export the Lamport-clocked causal event log: canonical
//	    JSON (byte-identical run-to-run) and/or a Perfetto trace with
//	    per-chip collective spans and message-flow arrows. -drop/-fail
//	    inject faults and print the forensics dump of the dying run.
//
//	meshslice ckpt -rows 2 -cols 4 -steps 10 -every 2 [-fail-at 5 -fail-chip 5] [-reshard 2x2] [-o DIR]
//	    Train the minitrain MLP with deterministic sharded snapshots,
//	    optionally fail-stop a chip mid-run, reshard the last complete
//	    snapshot onto a new mesh shape, resume there, and verify the final
//	    weights are bit-identical to an uninterrupted run.
//
//	meshslice serve -model gpt3 -chips 16 [-rows R -cols C] [-rate 10] [-slo 1.0] [-seed 42] [-faults chip-fail] [-o out.json]
//	    Simulate deterministic LLM inference serving: a seeded Poisson
//	    workload through the continuous-batching scheduler, with the mesh
//	    shape and batching policy fixed by flags or chosen by the SLO-driven
//	    serving autotuner; -faults additionally compares the stale
//	    healthy-fabric deployment against a fault-aware retune.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
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

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "tune":
		cmdTune(os.Args[2:])
	case "sim":
		cmdSim(os.Args[2:])
	case "gemm":
		cmdGeMM(os.Args[2:])
	case "timeline":
		cmdTimeline(os.Args[2:])
	case "stats":
		cmdStats(os.Args[2:])
	case "plan":
		cmdPlan(os.Args[2:])
	case "calibrate":
		cmdCalibrate(os.Args[2:])
	case "verify":
		cmdVerify(os.Args[2:])
	case "faults":
		cmdFaults(os.Args[2:])
	case "record":
		cmdRecord(os.Args[2:])
	case "serve":
		cmdServe(os.Args[2:])
	case "ckpt":
		cmdCkpt(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: meshslice {tune|sim|gemm|timeline|stats|plan|calibrate|verify|faults|record|ckpt|serve} [flags]  (run a subcommand with -h for its flags)")
	os.Exit(2)
}

// modelByName resolves a built-in model alias or, failing that, loads the
// argument as a JSON model-config path. A file that exists but does not
// decode or validate is reported with its error, not as an unknown model.
func modelByName(name string) model.Config {
	if c, ok := model.ByName(name); ok {
		return c
	}
	c, err := model.LoadFile(name)
	if err == nil {
		return c
	}
	if !errors.Is(err, fs.ErrNotExist) {
		fmt.Fprintf(os.Stderr, "model %q: %v\n", name, err)
		os.Exit(2)
	}
	known := []string{}
	for _, c := range model.Builtins() {
		known = append(known, c.Name)
	}
	fmt.Fprintf(os.Stderr, "unknown model %q (built-ins: %s; or pass a JSON config path)\n",
		name, strings.Join(known, ", "))
	os.Exit(2)
	panic("unreachable")
}

// torusFromFlags builds the -rows x -cols mesh, rejecting a non-positive
// side as a flag error before topology.NewTorus would panic on it.
func torusFromFlags(rows, cols int) topology.Torus {
	if rows < 1 || cols < 1 {
		fmt.Fprintf(os.Stderr, "bad mesh %dx%d: want -rows >= 1 and -cols >= 1\n", rows, cols)
		os.Exit(2)
	}
	return topology.NewTorus(rows, cols)
}

// intFlag is an int flag's name and value.
type intFlag struct {
	name string
	v    int
}

// requireInts exits 2 with a one-line error naming the first flag below
// min, as torusFromFlags does for a mesh side: the library would otherwise
// panic on the value, misread it, or quietly default it. want says what
// the flags take.
func requireInts(min int, want string, flags ...intFlag) {
	for _, f := range flags {
		if f.v < min {
			fmt.Fprintf(os.Stderr, "bad -%s %d: want %s\n", f.name, f.v, want)
			os.Exit(2)
		}
	}
}

// requireMesh exits 2 with a one-line error unless -rows and -cols are
// both unset (0: the subcommand then does what unset says) or both set to
// a mesh of exactly -chips chips.
func requireMesh(rows, cols, chips int, unset string) {
	switch {
	case (rows > 0) != (cols > 0):
		fmt.Fprintf(os.Stderr, "bad -rows %d -cols %d: set both to fix the mesh, or neither to %s\n", rows, cols, unset)
	case rows > 0 && rows*cols != chips:
		fmt.Fprintf(os.Stderr, "bad -rows %d -cols %d: a %dx%d mesh is %d chips, not -chips %d\n", rows, cols, rows, cols, rows*cols, chips)
	default:
		return
	}
	os.Exit(2)
}

func algoByName(name string) (train.Algo, bool) {
	for _, a := range train.Algos {
		if strings.EqualFold(a.String(), name) {
			return a, true
		}
	}
	return 0, false
}

func cmdTune(args []string) {
	fs := flag.NewFlagSet("tune", flag.ExitOnError)
	modelName := fs.String("model", "gpt3", "LLM: gpt3 or megatron")
	chips := fs.Int("chips", 256, "cluster size")
	tokens := fs.Int("tokens", 0, "tokens per step (default: weak-scaling batch = chips/2)")
	noOpt := fs.Bool("no-dataflow-opt", false, "skip phase 1 (use Y-stn everywhere)")
	fs.Parse(args)
	requireInts(1, "a positive count", intFlag{"chips", *chips})
	requireInts(0, "a positive count, or 0 for the weak-scaling batch", intFlag{"tokens", *tokens})

	cfg := modelByName(*modelName)
	tk := *tokens
	if tk == 0 {
		tk = cfg.WeakScalingTokens(*chips)
	}
	choice, err := autotune.Tune(cfg, tk, *chips, hw.TPUv4(), autotune.Options{OptimizeDataflow: !*noOpt})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("model: %s   chips: %d   tokens: %d\n", cfg.Name, *chips, tk)
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
	fs := flag.NewFlagSet("sim", flag.ExitOnError)
	modelName := fs.String("model", "gpt3", "LLM: gpt3 or megatron")
	chips := fs.Int("chips", 256, "cluster size")
	algoName := fs.String("algo", "meshslice", "algorithm (or 'all')")
	rows := fs.Int("rows", 0, "fix the mesh rows (0 = search)")
	cols := fs.Int("cols", 0, "fix the mesh cols (0 = search)")
	noOverlap := fs.Bool("no-overlap", false, "forbid comm/compute overlap (real-TPU mode)")
	stepLevel := fs.Bool("steplevel", false, "simulate collectives one ring step at a time")
	fabric := fs.Float64("fabric", 0, "logical-mesh fabric contention factor (0/1 = physical mesh)")
	bidir := fs.Bool("bidir", false, "drive both ICI directions for AG/RdS collectives")
	tiled := fs.Bool("tiled", false, "use the tiled chip compute model")
	fs.Parse(args)
	requireInts(1, "a positive count", intFlag{"chips", *chips})
	requireInts(0, "a positive side, or 0 to search", intFlag{"rows", *rows}, intFlag{"cols", *cols})
	requireMesh(*rows, *cols, *chips, "search")
	if math.IsNaN(*fabric) || math.IsInf(*fabric, 0) || *fabric < 0 {
		fmt.Fprintf(os.Stderr, "bad -fabric %g: want a finite factor >= 0 (0 or 1 = physical mesh)\n", *fabric)
		os.Exit(2)
	}

	cfg := modelByName(*modelName)
	tk := cfg.WeakScalingTokens(*chips)
	opts := train.Options{OptimizeDataflow: true}
	opts.Sim.NoOverlap = *noOverlap
	opts.Sim.StepLevel = *stepLevel
	opts.Sim.FabricContention = *fabric
	opts.Sim.BidirectionalRings = *bidir
	opts.Sim.TiledCompute = *tiled
	if *rows > 0 {
		opts.Shapes = []topology.Torus{topology.NewTorus(*rows, *cols)}
	}
	chip := hw.TPUv4()

	algos := train.Algos
	if *algoName != "all" {
		a, ok := algoByName(*algoName)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown algorithm %q\n", *algoName)
			os.Exit(2)
		}
		algos = []train.Algo{a}
	}
	fmt.Printf("model: %s   chips: %d   tokens: %d\n\n", cfg.Name, *chips, tk)
	fmt.Printf("%-11s  %-10s  %-10s  %-8s  %s\n", "algorithm", "shape", "block time", "util", "comm launch/transfer/sync (ms)")
	for _, algo := range algos {
		r, err := train.EvaluateFC(cfg, tk, *chips, chip, algo, opts)
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
	fs := flag.NewFlagSet("gemm", flag.ExitOnError)
	m := fs.Int("m", 1<<17, "result rows M")
	n := fs.Int("n", 12288, "result cols N")
	k := fs.Int("k", 12288, "inner dimension K")
	chips := fs.Int("chips", 256, "cluster size")
	algoName := fs.String("algo", "all", "algorithm (or 'all')")
	dataflow := fs.String("dataflow", "os", "dataflow: os, ls, or rs")
	record := fs.String("record", "", "also replay one algorithm functionally (near-square mesh, use modest M/N/K) and write its flight-recorder JSON here; requires a specific -algo")
	fs.Parse(args)
	requireInts(1, "a positive value", intFlag{"m", *m}, intFlag{"n", *n}, intFlag{"k", *k}, intFlag{"chips", *chips})

	df, ok := dataflowByName(*dataflow)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown dataflow %q\n", *dataflow)
		os.Exit(2)
	}
	prob := gemm.Problem{M: *m, N: *n, K: *k, Dataflow: df}
	chip := hw.TPUv4()

	algos := train.TwoDAlgos
	if *algoName != "all" {
		a, ok := algoByName(*algoName)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown algorithm %q\n", *algoName)
			os.Exit(2)
		}
		algos = []train.Algo{a}
	}
	fmt.Printf("GeMM M=%d N=%d K=%d (%v) on %d chips\n\n", *m, *n, *k, df, *chips)
	fmt.Printf("%-11s  %-10s  %-10s  %s\n", "algorithm", "shape", "time", "util")
	for _, algo := range algos {
		r, err := train.EvaluateGeMM(prob, *chips, chip, algo, train.Options{})
		if err != nil {
			fmt.Printf("%-11s  %v\n", algo, err)
			continue
		}
		fmt.Printf("%-11s  %-10v  %-10s  %.1f%%\n",
			algo, r.Shape, fmt.Sprintf("%.3fms", r.Time*1e3), 100*r.Utilization(chip))
	}
	if *record != "" {
		if *algoName == "all" {
			fmt.Fprintln(os.Stderr, "-record needs a specific -algo (the functional replay runs one algorithm)")
			os.Exit(2)
		}
		recordGeMM(prob, *chips, *algoName, *record)
	}
}

// recordGeMM replays the GeMM functionally on a near-square factorisation
// of the chip count with the flight recorder attached, and writes the
// canonical event-log JSON.
func recordGeMM(p gemm.Problem, chips int, algoName, out string) {
	rows := 1
	for d := 1; d*d <= chips; d++ {
		if chips%d == 0 {
			rows = d
		}
	}
	tor := topology.NewTorus(rows, chips/rows)
	alg, ok := gemm.AlgorithmByName(algoName)
	if !ok {
		fmt.Fprintf(os.Stderr, "no functional implementation of %q to record\n", algoName)
		os.Exit(2)
	}
	if !alg.Supports(p.Dataflow) {
		fmt.Fprintf(os.Stderr, "%s does not implement the %v dataflow\n", alg.Name, p.Dataflow)
		os.Exit(2)
	}
	opts := gemm.AlgOptions{}
	if err := alg.Validate(p, tor, opts); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	mh := mesh.New(tor)
	rec := recorder.New(tor.Size(), 0)
	mh.SetRecorder(rec)
	rng := rand.New(rand.NewSource(1))
	aR, aC, bR, bC := p.OperandShapes()
	a := tensor.Random(aR, aC, rng)
	b := tensor.Random(bR, bC, rng)
	gemm.MultiplyOn(mh, alg.Build(p.Dataflow, opts), a, b)
	f, err := os.Create(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := rec.Snapshot().WriteJSON(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	f.Close()
	fmt.Printf("\nfunctional replay on %v recorded → %s\n", tor, out)
}
