// Package autotune implements the MeshSlice LLM autotuner (paper §3.2).
// Phase 1 chooses a 2D GeMM dataflow per FC layer — the one keeping the
// largest matrix stationary — which fixes the sharding of every tensor
// (Table 1). Phase 2 co-optimises the cluster's mesh shape and each
// layer's slice count S with the analytical cost models of package
// costmodel, via the exhaustive search the paper describes.
package autotune

import (
	"meshslice/internal/gemm"
	"meshslice/internal/model"
)

// LayerPlan is the phase-1 output for one FC layer: the chosen stationary
// matrix and the three training GeMM problems it induces (Table 1 row).
// The problems' M×N output and K inner dimensions already reflect the
// dataflow, so phase 2 and the schedulers consume them directly.
type LayerPlan struct {
	Layer      model.FCLayer
	Stationary gemm.Stationary
	// Passes holds the forward, backward-data, and backward-weight
	// problems, indexed by model.Pass.
	Passes [3]gemm.Problem
	// TransposedInput records whether the plan consumes the layer input
	// in transposed orientation (the W-stn row), which the paper's
	// heuristic avoids when it would force inter-layer transposes.
	TransposedInput bool
}

// PlanFor returns the Table 1 row for the given stationary choice applied
// to Y = XW with X of tokens×in, W of in×out, Y of tokens×out
// (gemm.Stationary.Passes).
func PlanFor(fc model.FCLayer, tokens int, s gemm.Stationary) LayerPlan {
	return LayerPlan{
		Layer:           fc,
		Stationary:      s,
		Passes:          s.Passes(tokens, fc.InDim, fc.OutDim),
		TransposedInput: s == gemm.WStn,
	}
}

// ChooseDataflow is phase 1 for one layer: keep the largest of X, W, Y
// stationary (§3.2.1), defaulting to the non-transposed choice on ties and
// avoiding the W-stn row (which transposes the layer input) unless the
// weight strictly dominates both activations — in LLM training the token
// dimension dwarfs the feature dimensions, so activations win and the
// heuristic eliminates inter-layer transposes.
func ChooseDataflow(fc model.FCLayer, tokens int) LayerPlan {
	xSize := int64(tokens) * int64(fc.InDim)
	ySize := int64(tokens) * int64(fc.OutDim)
	wSize := int64(fc.InDim) * int64(fc.OutDim)
	switch {
	case wSize > xSize && wSize > ySize:
		return PlanFor(fc, tokens, gemm.WStn)
	case xSize > ySize:
		return PlanFor(fc, tokens, gemm.XStn)
	default:
		return PlanFor(fc, tokens, gemm.YStn)
	}
}

// DefaultDataflow returns the unoptimised baseline of Table 2: Y-stn for
// every layer (the row that transposes none of the matrices).
func DefaultDataflow(fc model.FCLayer, tokens int) LayerPlan {
	return PlanFor(fc, tokens, gemm.YStn)
}

// PlanModel runs phase 1 over all FC layers of the model.
func PlanModel(cfg model.Config, tokens int, optimize bool) []LayerPlan {
	fcs := cfg.FCLayers()
	out := make([]LayerPlan, len(fcs))
	for i, fc := range fcs {
		if optimize {
			out[i] = ChooseDataflow(fc, tokens)
		} else {
			out[i] = DefaultDataflow(fc, tokens)
		}
	}
	return out
}
