package autotune

import (
	"fmt"

	"meshslice/internal/fault"
	"meshslice/internal/hw"
	"meshslice/internal/model"
	"meshslice/internal/obs"
	"meshslice/internal/serve"
	"meshslice/internal/topology"
)

// SLO-driven serving autotuning: where Tune minimises one training block's
// execution time, TuneServing maximises goodput — SLO-meeting requests per
// second — over a deterministic simulated workload. The searched space is
// mesh shape × continuous-batching policy (max batch, prefill chunk, slice
// count): shape moves the balance between per-step latency (more chips
// amortise weight streaming for memory-bound decode) and KV-cache headroom
// (bigger meshes shard the cache thinner per chip but pool more HBM);
// batching policy trades TTFT (big prefill chunks finish prompts sooner)
// against decode stalls (those chunks stretch every co-scheduled decode
// step).

// ServingOptions configures the serving search.
type ServingOptions struct {
	// Shapes overrides the candidate mesh shapes; nil enumerates every 2D
	// factorisation of the chip count.
	Shapes []topology.Torus
	// MaxBatches, ChunkTokens and SliceCounts are the policy grid
	// (defaults {16, 32, 64}, {256, 512} and {1, 4}).
	MaxBatches  []int
	ChunkTokens []int
	SliceCounts []int
	// HBMBytes is the per-chip HBM capacity (0 means serve's 32 GiB
	// default).
	HBMBytes float64
	// Workers bounds the goroutines simulating candidates concurrently
	// (0 means GOMAXPROCS). Candidates are simulated independently and
	// folded in index order, so the choice is byte-identical for any
	// worker count.
	Workers int
	// Metrics, when set, receives the search telemetry:
	//
	//	serving_candidates    counter — candidate configurations simulated
	//	serving_feasible      counter — candidates that could run at all
	//	serving_best_goodput  series  — best-so-far over candidate index
	Metrics *obs.Registry
}

func (o ServingOptions) withDefaults(chips int) ServingOptions {
	if o.Shapes == nil {
		o.Shapes = topology.MeshShapes2D(chips)
	}
	if len(o.MaxBatches) == 0 {
		o.MaxBatches = []int{16, 32, 64}
	}
	if len(o.ChunkTokens) == 0 {
		o.ChunkTokens = []int{256, 512}
	}
	if len(o.SliceCounts) == 0 {
		o.SliceCounts = []int{1, 4}
	}
	return o
}

// ServingChoice is one tuned serving deployment: the mesh shape and policy
// plus the full simulated report backing its goodput score.
type ServingChoice struct {
	Shape  topology.Torus
	Policy serve.Policy
	Report *serve.Report
}

// servingCandidate is one point of the shape × policy grid.
type servingCandidate struct {
	shape  topology.Torus
	policy serve.Policy
}

func servingGrid(opts ServingOptions) []servingCandidate {
	var cands []servingCandidate
	for _, shape := range opts.Shapes {
		for _, mb := range opts.MaxBatches {
			for _, ct := range opts.ChunkTokens {
				for _, s := range opts.SliceCounts {
					cands = append(cands, servingCandidate{
						shape:  shape,
						policy: serve.Policy{MaxBatch: mb, ChunkTokens: ct, SliceCount: s},
					})
				}
			}
		}
	}
	return cands
}

// TuneServing sweeps mesh shapes × batching policies over the workload and
// returns the configuration with the highest goodput under the SLO. The
// sweep reuses the deterministic worker-pool machinery of Tune: candidates
// simulate concurrently, and the argmax folds over index order (strict >,
// first-indexed winner), so the result is identical for any worker count.
func TuneServing(cfg model.Config, chips int, chip hw.Chip, slo serve.SLO, workload []serve.Request, opts ServingOptions) (ServingChoice, error) {
	return tuneServing(cfg, chips, chip, slo, workload, nil, opts)
}

func tuneServing(cfg model.Config, chips int, chip hw.Chip, slo serve.SLO, workload []serve.Request, plan *fault.Plan, opts ServingOptions) (ServingChoice, error) {
	if err := cfg.Validate(); err != nil {
		return ServingChoice{}, err
	}
	if chips <= 0 {
		return ServingChoice{}, fmt.Errorf("autotune: chips=%d", chips)
	}
	if len(workload) == 0 {
		return ServingChoice{}, fmt.Errorf("autotune: empty serving workload")
	}
	if err := serve.ValidateTrace(workload); err != nil {
		return ServingChoice{}, err
	}
	opts = opts.withDefaults(chips)
	cands := servingGrid(opts)
	if len(cands) == 0 {
		return ServingChoice{}, fmt.Errorf("autotune: no candidate serving configurations for %d chips", chips)
	}

	// One price cache serves the whole sweep: candidates sharing a mesh
	// size share decode prices, and those sharing a shape and slice count
	// share FC-stack prices.
	prices, err := serve.NewPrices(cfg, chip, chips, plan)
	if err != nil {
		return ServingChoice{}, err
	}
	reports := make([]*serve.Report, len(cands))
	forEachShape(len(cands), opts.Workers, func(i int) {
		rep, err := serve.Run(serve.Config{
			Model:        cfg,
			Chip:         chip,
			Mesh:         cands[i].shape,
			Policy:       cands[i].policy,
			SLO:          slo,
			HBMBytes:     opts.HBMBytes,
			ClusterChips: chips,
			Faults:       plan,
			Prices:       prices,
		}, workload)
		if err == nil {
			reports[i] = rep
		}
	})

	var candidates, feasible *obs.Counter
	var trajectory *obs.Series
	if opts.Metrics != nil {
		candidates = opts.Metrics.Counter("serving_candidates")
		feasible = opts.Metrics.Counter("serving_feasible")
		trajectory = opts.Metrics.Series("serving_best_goodput")
	}
	best := ServingChoice{}
	found := false
	for i, rep := range reports {
		if opts.Metrics != nil {
			candidates.Inc()
			if rep != nil && rep.Feasible {
				feasible.Inc()
			}
		}
		if rep != nil && rep.Feasible && (!found || rep.Goodput > best.Report.Goodput) {
			best = ServingChoice{Shape: cands[i].shape, Policy: cands[i].policy, Report: rep}
			found = true
		}
		if trajectory != nil && found {
			trajectory.Append(float64(i), best.Report.Goodput)
		}
	}
	if !found {
		return ServingChoice{}, fmt.Errorf("autotune: no feasible serving configuration for %s on %d chips", cfg.Name, chips)
	}
	return best, nil
}

// ServingFaultChoice is TuneServingUnderFaults' result: the stale
// healthy-fabric winner, its goodput when naively kept on the degraded
// fabric, and the fault-aware retuned configuration.
type ServingFaultChoice struct {
	// Stale is the healthy-fabric TuneServing winner.
	Stale ServingChoice
	// StaleUnderFaults re-runs the stale configuration under the fault
	// plan — the goodput an operator who never retunes actually gets
	// (zero when chip failures make the stale mesh infeasible).
	StaleUnderFaults *serve.Report
	// Retuned is the fault-aware winner. Its candidate set includes the
	// stale configuration, so Retuned's goodput under the plan is ≥ the
	// stale goodput by construction.
	Retuned ServingChoice
}

// Gain returns the goodput improvement of retuning over serving the stale
// configuration on the degraded fabric (≥ 0 by construction).
func (c ServingFaultChoice) Gain() float64 {
	return c.Retuned.Report.Goodput - c.StaleUnderFaults.Goodput
}

// survivorShapes enumerates the candidate meshes of a cluster where only
// `survivors` of the chips still run: every Rows×Cols with both dimensions
// ≥ 2 and Rows·Cols ≤ survivors. Unlike MeshShapes2D this is not limited
// to exact factorisations of the original chip count — after failures the
// tuner must be free to, say, drop from 4×4 to 3×3 on 9 survivors, idling
// none or some of the rest.
func survivorShapes(survivors int) []topology.Torus {
	var shapes []topology.Torus
	for r := 2; r*2 <= survivors; r++ {
		for c := 2; r*c <= survivors; c++ {
			shapes = append(shapes, topology.Torus{Rows: r, Cols: c})
		}
	}
	return shapes
}

// TuneServingUnderFaults is the serving analogue of TuneUnderFaults: tune
// on the healthy fabric, measure that stale choice under the fault plan,
// then retune with the plan applied — over every mesh that fits the
// surviving chips plus the stale shape itself — and return both, so
// callers can report the goodput recovered by retuning. With chip
// failures the stale mesh may not be placeable at all (goodput zero) while
// a smaller mesh keeps meeting the SLO; with directional degrades the
// retuner can rotate or shrink the mesh to keep sick links off the
// critical rings.
func TuneServingUnderFaults(cfg model.Config, chips int, chip hw.Chip, slo serve.SLO, workload []serve.Request, plan *fault.Plan, opts ServingOptions) (ServingFaultChoice, error) {
	if err := plan.Validate(chips); err != nil {
		return ServingFaultChoice{}, err
	}
	stale, err := TuneServing(cfg, chips, chip, slo, workload, opts)
	if err != nil {
		return ServingFaultChoice{}, err
	}
	staleUnder, err := serve.Run(serve.Config{
		Model:        cfg,
		Chip:         chip,
		Mesh:         stale.Shape,
		Policy:       stale.Policy,
		SLO:          slo,
		HBMBytes:     opts.HBMBytes,
		ClusterChips: chips,
		Faults:       plan,
	}, workload)
	if err != nil {
		return ServingFaultChoice{}, err
	}

	// Count the survivors and rebuild the candidate shape set around them.
	failed := map[int]bool{}
	if plan != nil {
		for _, cf := range plan.ChipFails {
			failed[cf.Chip] = true
		}
	}
	survivors := chips - len(failed)
	retuneOpts := opts
	retuneOpts.Shapes = append(survivorShapes(survivors), stale.Shape)
	retuned, err := tuneServing(cfg, chips, chip, slo, workload, plan, retuneOpts)
	if err != nil {
		return ServingFaultChoice{}, err
	}
	return ServingFaultChoice{Stale: stale, StaleUnderFaults: staleUnder, Retuned: retuned}, nil
}
