package autotune

import (
	"math"

	"meshslice/internal/gemm"
	"meshslice/internal/hw"
	"meshslice/internal/model"
	"meshslice/internal/topology"
)

// The paper's phase 1 uses a per-layer heuristic because the exact search
// over per-layer dataflow choices is exponential (§3.2.1). This file
// implements the exhaustive search as an ablation baseline: every
// combination of stationary choices across the FC layers is evaluated with
// the phase-2 cost models, so tests can measure how close the heuristic
// lands to the true optimum.

// ExhaustiveDataflow searches all 3^L stationary-matrix assignments for the
// model's FC layers on a fixed mesh shape, tuning each pass's slice count,
// and returns the best choice. It is exponential in the layer count (L=4
// for transformers, so 81 combinations) and exists to validate the
// heuristic, not to replace it.
// lint:allow unused ROADMAP item 14 runs its choice through the trainer
func ExhaustiveDataflow(cfg model.Config, tokens int, shape topology.Torus, chip hw.Chip, maxS int) (Choice, bool) {
	fcs := cfg.FCLayers()
	options := [...]gemm.Stationary{gemm.YStn, gemm.XStn, gemm.WStn}
	// One distinct-problem table over all 3L plans (plan 3·layer + option)
	// and one search slab shared by every assignment, so each problem is
	// searched once however many assignments use it.
	all := make([]LayerPlan, 0, len(options)*len(fcs))
	for _, fc := range fcs {
		for _, s := range options {
			all = append(all, PlanFor(fc, tokens, s))
		}
	}
	t := newPassTable(all)
	out := make([]passScore, len(t.probs))
	plans, pick := make([]LayerPlan, len(fcs)), passTable{probs: t.probs, rows: make([][3]int, len(fcs))}
	best := Choice{Shape: shape, BlockTime: math.Inf(1)}
	found := false
	var recurse func(i int)
	recurse = func(i int) {
		if i == len(fcs) {
			if r := pick.score(shape, chip, maxS, out); r.ok && r.block < best.BlockTime {
				best, found = pick.choice(plans, shape, chip, r), true
			}
			return
		}
		for k := len(options) * i; k < len(options)*(i+1); k++ {
			plans[i], pick.rows[i] = all[k], t.rows[k]
			recurse(i + 1)
		}
	}
	recurse(0)
	return best, found
}
