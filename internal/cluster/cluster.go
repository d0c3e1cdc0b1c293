// Package cluster composes the three parallelism types of large-scale LLM
// training — data, pipeline, and tensor parallelism (paper §2.1) — into 3D
// cluster plans, and evaluates them: per-microbatch tensor-parallel time
// from the cost models, pipeline bubbles from the GPipe
// schedule, data-parallel gradient synchronisation from the ring AllReduce
// model, and per-chip memory from package memory. It quantifies the §2.2
// argument: replacing 8-way 1D TP with wide 2D TP both fits bigger models
// and shrinks the DP traffic, at a communication cost 2D GeMM keeps low.
package cluster

import (
	"fmt"
	"sort"

	"meshslice/internal/autotune"
	"meshslice/internal/hw"
	"meshslice/internal/memory"
	"meshslice/internal/model"
	"meshslice/internal/topology"
	"meshslice/internal/train"
)

// Plan is one 3D parallelisation of a training cluster.
type Plan struct {
	// DP is the data-parallel replica count.
	DP int
	// PP is the pipeline-stage count.
	PP int
	// TPShape is the tensor-parallel mesh (1×n means 1D TP).
	TPShape topology.Torus
	// Microbatches is the number of pipeline microbatches per step.
	Microbatches int
}

// Chips returns the total accelerator count DP·PP·TP.
func (p Plan) Chips() int { return p.DP * p.PP * p.TPShape.Size() }

// TP returns the tensor-parallel degree.
func (p Plan) TP() int { return p.TPShape.Size() }

// Is1D reports whether the TP mesh degenerates to a ring.
func (p Plan) Is1D() bool { return p.TPShape.Rows == 1 || p.TPShape.Cols == 1 }

func (p Plan) String() string {
	return fmt.Sprintf("DP=%d PP=%d TP=%dx%d (mb=%d)", p.DP, p.PP, p.TPShape.Rows, p.TPShape.Cols, p.Microbatches)
}

// Validate checks structural sanity against the model and batch.
func (p Plan) Validate(cfg model.Config, globalBatch int) error {
	switch {
	case p.DP <= 0 || p.PP <= 0 || p.Microbatches <= 0:
		return fmt.Errorf("cluster: degenerate plan %v", p)
	case cfg.Layers%p.PP != 0:
		return fmt.Errorf("cluster: %d layers do not split into %d stages", cfg.Layers, p.PP)
	case globalBatch%p.DP != 0:
		return fmt.Errorf("cluster: batch %d does not split into %d replicas", globalBatch, p.DP)
	case (globalBatch/p.DP)%p.Microbatches != 0:
		return fmt.Errorf("cluster: replica batch %d does not split into %d microbatches", globalBatch/p.DP, p.Microbatches)
	}
	return nil
}

// Evaluation is the cost breakdown of one plan.
type Evaluation struct {
	Plan Plan
	// StepTime is the estimated end-to-end training-step time.
	StepTime float64
	// TPTime is the tensor-parallel (FC + non-FC) time of all layers for
	// one full batch pass, excluding pipeline bubbles.
	TPTime float64
	// BubbleTime is the pipeline fill/drain overhead (GPipe:
	// (PP-1)/(mb+PP-1) of the pipelined work).
	BubbleTime float64
	// DPSyncTime is the exposed part of the gradient AllReduce.
	DPSyncTime float64
	// Memory is the per-chip footprint.
	Memory memory.Footprint
	// FitsHBM reports whether Memory fits the configured capacity.
	FitsHBM bool
}

// Utilization returns model FLOPs over cluster peak for the step.
func (e Evaluation) Utilization(cfg model.Config, globalBatch int, chip hw.Chip) float64 {
	if e.StepTime <= 0 {
		return 0
	}
	tokens := globalBatch * cfg.SeqLen
	flops := cfg.TotalFCFLOPs(tokens) // all three training passes included
	return flops / (e.StepTime * float64(e.Plan.Chips()) * chip.PeakFLOPS)
}

// Options configures an evaluation.
type Options struct {
	// HBMCapacity is the per-chip memory in bytes (default 32 GiB).
	HBMCapacity float64
	// DPExposedFraction is the share of the gradient AllReduce that
	// training cannot hide behind the backward pass (default 0.25 —
	// most of it overlaps, per §2.1).
	DPExposedFraction float64
}

func (o Options) withDefaults() Options {
	if o.HBMCapacity <= 0 {
		o.HBMCapacity = 32 * float64(1<<30)
	}
	if o.DPExposedFraction <= 0 {
		o.DPExposedFraction = 0.25
	}
	return o
}

// Evaluate estimates the step time of one plan.
func Evaluate(cfg model.Config, plan Plan, globalBatch int, chip hw.Chip, opts Options) (Evaluation, error) {
	if err := plan.Validate(cfg, globalBatch); err != nil {
		return Evaluation{}, err
	}
	opts = opts.withDefaults()
	microTokens := globalBatch / plan.DP / plan.Microbatches * cfg.SeqLen

	// Tensor-parallel time per transformer block per microbatch.
	blockTime, err := tpBlockTime(cfg, microTokens, plan, chip)
	if err != nil {
		return Evaluation{}, err
	}
	nonFC := cfg.NonFCTime(microTokens, plan.TP(), chip) / float64(cfg.Layers) // per block
	perBlock := blockTime + nonFC

	// One microbatch through one stage; GPipe fills and drains PP-1 extra
	// stage slots. Each stage boundary forwards the microbatch's
	// activations (and their gradients on the way back) chip-to-chip.
	stageTime := perBlock * float64(cfg.Layers) / float64(plan.PP)
	if plan.PP > 1 {
		boundaryBytes := float64(microTokens) * float64(cfg.Hidden) /
			float64(plan.TP()) * chip.BytesPerElement
		stageTime += 2 * (chip.LaunchOverhead + boundaryBytes/chip.LinkBandwidth)
	}
	work := stageTime * float64(plan.Microbatches)
	pipeline := stageTime * float64(plan.Microbatches+plan.PP-1)
	bubble := pipeline - work

	// Gradient AllReduce across DP replicas of this chip's weight shard.
	dpBytes := memory.DPTrafficPerChip(cfg, plan.TP(), plan.PP, plan.DP, chip.BytesPerElement)
	dpTime := 0.0
	if plan.DP > 1 {
		dpTime = chip.LaunchOverhead + dpBytes/chip.LinkBandwidth +
			2*float64(plan.DP-1)*chip.SyncLatency
	}
	dpExposed := dpTime * opts.DPExposedFraction

	// Per-chip memory.
	foot, err := memory.Estimate(cfg, memory.Params{
		TPDegree:         plan.TP(),
		PPDegree:         plan.PP,
		TokensPerReplica: microTokens, // checkpointed per microbatch
		BytesPerParam:    chip.BytesPerElement,
		SliceCount:       8,
	})
	if err != nil {
		return Evaluation{}, err
	}

	return Evaluation{
		Plan:       plan,
		StepTime:   pipeline + dpExposed,
		TPTime:     work,
		BubbleTime: bubble,
		DPSyncTime: dpExposed,
		Memory:     foot,
		FitsHBM:    memory.FitsHBM(foot, opts.HBMCapacity),
	}, nil
}

// tpBlockTime estimates one transformer block's FC time per microbatch on
// the plan's TP mesh via the cost models.
func tpBlockTime(cfg model.Config, tokens int, plan Plan, chip hw.Chip) (float64, error) {
	if plan.TP() == 1 {
		// No tensor parallelism: pure local compute.
		return chip.GeMMTime(cfg.TotalFCFLOPs(tokens) / float64(cfg.Layers)), nil
	}
	if plan.Is1D() {
		r, err := train.EvaluateFC(cfg, tokens, plan.TP(), chip, train.OneDTPAlgo, train.Options{})
		if err != nil {
			return 0, err
		}
		return r.Time, nil
	}
	choice, err := autotune.Tune(cfg, tokens, plan.TP(), chip, autotune.Options{
		OptimizeDataflow: true,
		Shapes:           []topology.Torus{plan.TPShape},
	})
	if err != nil {
		return 0, err
	}
	return choice.BlockTime, nil
}

// Search enumerates plans for a cluster of totalChips training globalBatch
// sequences and returns the feasible ones ordered by estimated step time
// (fastest first). Infeasible plans (memory, divisibility, unshardable TP)
// are skipped. max1DTP caps the 1D TP degree (8 on NVSwitch-class fabrics,
// §2.1); 2D TP plans are not capped.
func Search(cfg model.Config, totalChips, globalBatch int, chip hw.Chip, max1DTP int, opts Options) []Evaluation {
	opts = opts.withDefaults()
	var out []Evaluation
	for dp := 1; dp <= totalChips; dp *= 2 {
		if totalChips%dp != 0 || globalBatch%dp != 0 {
			continue
		}
		for pp := 1; pp <= totalChips/dp; pp *= 2 {
			rest := totalChips / dp / pp
			if rest < 1 || cfg.Layers%pp != 0 {
				continue
			}
			shapes := topology.MeshShapes2D(rest)
			if rest <= max1DTP || max1DTP == 0 {
				shapes = append(shapes, topology.NewTorus(1, rest))
			}
			for _, shape := range shapes {
				mb := defaultMicrobatches(globalBatch/dp, pp)
				if mb == 0 {
					continue
				}
				plan := Plan{DP: dp, PP: pp, TPShape: shape, Microbatches: mb}
				ev, err := Evaluate(cfg, plan, globalBatch, chip, opts)
				if err != nil || !ev.FitsHBM {
					continue
				}
				out = append(out, ev)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].StepTime < out[j].StepTime })
	return out
}

// defaultMicrobatches picks the largest power-of-two microbatch count that
// divides the replica batch and keeps the bubble fraction below ~20%
// (mb ≥ 4·(PP-1)), preferring more microbatches when possible.
func defaultMicrobatches(replicaBatch, pp int) int {
	target := 4 * (pp - 1)
	if target < 1 {
		target = 1
	}
	best := 0
	for mb := 1; mb <= replicaBatch; mb *= 2 {
		if replicaBatch%mb == 0 {
			best = mb
			if mb >= target {
				break
			}
		}
	}
	return best
}
