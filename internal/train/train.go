// Package train composes the pieces into the paper's evaluation harness:
// it simulates the FC layers of a transformer block under every distributed
// GeMM algorithm (each on its own optimal mesh shape, §4.2), computes FLOP
// utilisation, and combines FC and non-FC time into end-to-end training
// step estimates (§4.4).
package train

import (
	"fmt"
	"math"

	"meshslice/internal/autotune"
	"meshslice/internal/gemm"
	"meshslice/internal/hw"
	"meshslice/internal/model"
	"meshslice/internal/netsim"
	"meshslice/internal/sched"
	"meshslice/internal/topology"
)

// Algo identifies a distributed GeMM algorithm under evaluation.
type Algo int

const (
	MeshSliceAlgo Algo = iota
	CollectiveAlgo
	WangAlgo
	SUMMAAlgo
	CannonAlgo
	OneDTPAlgo
	FSDPAlgo
)

// Algos lists every algorithm in the paper's comparison order.
var Algos = []Algo{MeshSliceAlgo, CannonAlgo, SUMMAAlgo, CollectiveAlgo, WangAlgo, OneDTPAlgo, FSDPAlgo}

// TwoDAlgos lists the 2D algorithms only (Fig. 11's comparison).
var TwoDAlgos = []Algo{MeshSliceAlgo, CannonAlgo, SUMMAAlgo, CollectiveAlgo, WangAlgo}

func (a Algo) String() string {
	switch a {
	case MeshSliceAlgo:
		return "MeshSlice"
	case CollectiveAlgo:
		return "Collective"
	case WangAlgo:
		return "Wang"
	case SUMMAAlgo:
		return "SUMMA"
	case CannonAlgo:
		return "Cannon"
	case OneDTPAlgo:
		return "1DTP"
	case FSDPAlgo:
		return "FSDP"
	default:
		return fmt.Sprintf("Algo(%d)", int(a))
	}
}

// FCResult is the simulated outcome of all FC-layer training GeMMs of one
// transformer block under one algorithm.
type FCResult struct {
	Algo  Algo
	Shape topology.Torus
	// Time is the simulated execution time of one block's twelve training
	// GeMMs (four FC layers × three passes).
	Time float64
	// ComputeTime is chip 0's total compute-engine busy time.
	ComputeTime float64
	// Comm is chip 0's nominal communication-time breakdown (Fig. 10).
	Comm netsim.Breakdown
	// CommBusy is chip 0's actual link busy time (nominal stretched by
	// contention and skew — the "measured" quantity of Fig. 15).
	CommBusy float64
	// ExposedComm is the communication time not hidden by computation.
	ExposedComm float64
	// FLOPs is the total (global) floating-point work of the block.
	FLOPs float64
	// Chips is the cluster size used.
	Chips int
}

// Utilization returns achieved throughput over the cluster's peak
// (272 TFLOPS per TPUv4 chip in the paper).
func (r FCResult) Utilization(chip hw.Chip) float64 {
	if r.Time <= 0 {
		return 0
	}
	return r.FLOPs / (r.Time * float64(r.Chips) * chip.PeakFLOPS)
}

// Options configures an evaluation.
type Options struct {
	// Sim passes through to the cluster simulator (no-overlap mode etc.).
	Sim netsim.Options
	// OptimizeDataflow applies autotuner phase 1 (default plans are Y-stn
	// everywhere when false).
	OptimizeDataflow bool
	// Shapes restricts the candidate mesh shapes (nil = all 2D shapes, or
	// all square shapes for Cannon).
	Shapes []topology.Torus
	// FixedS overrides the autotuned slice count for MeshSlice (0 = tune).
	FixedS int
}

// EvaluateFC simulates one transformer block's FC-layer GeMMs for the
// algorithm, choosing the best mesh shape by total simulated time (the
// paper compares every algorithm on its own optimal shape, §4.2).
func EvaluateFC(cfg model.Config, tokens, chips int, chip hw.Chip, algo Algo, opts Options) (FCResult, error) {
	if algo == OneDTPAlgo || algo == FSDPAlgo {
		return evaluate1D(cfg, tokens, chips, chip, algo, opts)
	}
	shapes := opts.Shapes
	if shapes == nil {
		shapes = topology.MeshShapes2D(chips)
	}
	if algo == CannonAlgo {
		shapes = squareOnly(shapes)
		if len(shapes) == 0 {
			return FCResult{}, fmt.Errorf("train: Cannon needs a square mesh; %d chips have none in the candidate set", chips)
		}
	}
	best := FCResult{Time: math.Inf(1)}
	found := false
	for _, shape := range shapes {
		r, ok := evaluateOnShape(cfg, tokens, chips, chip, algo, shape, opts)
		if ok && r.Time < best.Time {
			best = r
			found = true
		}
	}
	if !found {
		return FCResult{}, fmt.Errorf("train: %v cannot shard %s (%d tokens) on %d chips", algo, cfg.Name, tokens, chips)
	}
	return best, nil
}

// evaluateOnShape simulates the twelve training GeMMs on one shape; ok is
// false if any of them cannot run there.
func evaluateOnShape(cfg model.Config, tokens, chips int, chip hw.Chip, algo Algo, shape topology.Torus, opts Options) (FCResult, bool) {
	plans := autotune.PlanModel(cfg, tokens, opts.OptimizeDataflow)
	res := FCResult{Algo: algo, Shape: shape, Chips: chips}
	for _, plan := range plans {
		for _, prob := range plan.Passes {
			prog, ok := buildProgram(algo, prob, shape, chip, opts)
			if !ok {
				return FCResult{}, false
			}
			sim := netsim.Simulate(prog, chip, opts.Sim)
			res.Time += sim.Makespan
			res.ComputeTime += sim.ComputeBusy
			res.Comm.Launch += sim.Comm.Launch
			res.Comm.Sync += sim.Comm.Sync
			res.Comm.Transfer += sim.Comm.Transfer
			res.CommBusy += sim.CommBusy
			res.ExposedComm += sim.ExposedComm
			res.FLOPs += 2 * float64(prob.M) * float64(prob.N) * float64(prob.K)
		}
	}
	return res, true
}

// buildProgram constructs the algorithm's schedule for one GeMM problem.
// Cannon computes OS only, so LS/RS problems are re-expressed as the
// equivalent plain multiplication (the data produced is identical; the
// dataflow merely renames which matrix is stationary).
func buildProgram(algo Algo, prob gemm.Problem, shape topology.Torus, chip hw.Chip, opts Options) (*sched.Program, bool) {
	if _, ok := prob.Shardable(shape); !ok {
		return nil, false
	}
	switch algo {
	case MeshSliceAlgo:
		// A tuned S runs as priced; a forced S is checked by the tuner's
		// rule and falls back to the collective case when it does not
		// divide.
		s := opts.FixedS
		if s <= 0 {
			pc, ok := autotune.TunePass(prob, shape, chip, 0)
			if !ok {
				return nil, false
			}
			s = pc.S
		} else if g, _ := prob.MaxSliceCount(shape, chip.SliceBlock); g%s != 0 {
			s = 1
		}
		return sched.MeshSliceProgram(prob, shape, chip, s), true
	case CollectiveAlgo:
		return sched.CollectiveProgram(prob, shape, chip), true
	case WangAlgo:
		return sched.WangProgram(prob, shape, chip, tunedUnroll(prob, shape, chip, opts)), true
	case SUMMAAlgo:
		// SUMMA panels need owners: round up to a common multiple.
		iters := gemm.SUMMAPanels(shape, tunedUnroll(prob, shape, chip, opts))
		return sched.SUMMAProgram(prob, shape, chip, iters), true
	case CannonAlgo:
		os := gemm.Problem{M: prob.M, N: prob.N, K: prob.K, Dataflow: gemm.OS}
		if _, ok := os.Shardable(shape); !ok || !shape.IsSquare() {
			return nil, false
		}
		return sched.CannonProgram(os, shape, chip), true
	default:
		return nil, false
	}
}

// tunedUnroll matches the baselines' iteration counts to MeshSlice's tuned
// slice count (the paper's loop unrolling, §4.2).
func tunedUnroll(prob gemm.Problem, shape topology.Torus, chip hw.Chip, opts Options) int {
	if opts.FixedS > 0 {
		return opts.FixedS
	}
	if pc, ok := autotune.TunePass(prob, shape, chip, 0); ok {
		return pc.S
	}
	return 0
}

func evaluate1D(cfg model.Config, tokens, chips int, chip hw.Chip, algo Algo, opts Options) (FCResult, error) {
	res := FCResult{Algo: algo, Shape: topology.NewTorus(1, chips), Chips: chips}
	for _, fc := range cfg.FCLayers() {
		for _, g := range gemm.YStn.Passes(tokens, fc.InDim, fc.OutDim) {
			if g.M%chips != 0 || g.N%chips != 0 || g.K%chips != 0 {
				return FCResult{}, fmt.Errorf("train: %v cannot shard %dx%dx%d over %d chips", algo, g.M, g.N, g.K, chips)
			}
			var prog *sched.Program
			if algo == OneDTPAlgo {
				prog = sched.OneDTPProgram(g.M, g.N, g.K, chips, chip)
			} else {
				prog = sched.FSDPProgram(g.M, g.N, g.K, chips, chip)
			}
			sim := netsim.Simulate(prog, chip, opts.Sim)
			res.Time += sim.Makespan
			res.ComputeTime += sim.ComputeBusy
			res.Comm.Launch += sim.Comm.Launch
			res.Comm.Sync += sim.Comm.Sync
			res.Comm.Transfer += sim.Comm.Transfer
			res.CommBusy += sim.CommBusy
			res.ExposedComm += sim.ExposedComm
			res.FLOPs += 2 * float64(g.M) * float64(g.N) * float64(g.K)
		}
	}
	return res, nil
}

func squareOnly(shapes []topology.Torus) []topology.Torus {
	var out []topology.Torus
	for _, s := range shapes {
		if s.IsSquare() {
			out = append(out, s)
		}
	}
	return out
}

// StepResult is an end-to-end training step estimate.
type StepResult struct {
	// FCTime is the simulated FC time of the whole model (all blocks).
	FCTime float64
	// NonFCTime is the roofline estimate for everything else.
	NonFCTime float64
	// Total is their sum (pipeline/data parallel overheads excluded, as
	// in the paper's per-step comparison).
	Total float64
}

// EstimateStep combines a block-level FC result into a full-model step time
// (paper §4.4: FC times from the simulator, other layers benchmarked
// separately, summed).
func EstimateStep(cfg model.Config, tokens, chips int, chip hw.Chip, fc FCResult) StepResult {
	fcTotal := fc.Time * float64(cfg.Layers)
	non := cfg.NonFCTime(tokens, chips, chip)
	return StepResult{FCTime: fcTotal, NonFCTime: non, Total: fcTotal + non}
}
