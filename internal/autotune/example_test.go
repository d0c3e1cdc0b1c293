package autotune_test

import (
	"fmt"

	"meshslice/internal/autotune"
	"meshslice/internal/model"
)

// ExamplePlanModel is phase 1 of the MeshSlice LLM autotuner on
// Megatron-NLG for a 256-chip cluster: each FC layer keeps its largest
// matrix stationary, and Table 1 gives the dataflow of each training pass.
// FF2 is the one layer whose input X (tokens × FF hidden) is its largest
// matrix, so it keeps X stationary and its forward pass is LS.
func ExamplePlanModel() {
	cfg := model.MegatronNLG()
	tokens := cfg.WeakScalingTokens(256)

	fmt.Println("phase 1 — dataflows (largest matrix stationary):")
	for _, plan := range autotune.PlanModel(cfg, tokens, true) {
		fmt.Printf("  %-8s (%d→%d): %v  fwd=%v bwd-data=%v bwd-weight=%v\n",
			plan.Layer.Name, plan.Layer.InDim, plan.Layer.OutDim, plan.Stationary,
			plan.Passes[model.Forward].Dataflow,
			plan.Passes[model.BackwardData].Dataflow,
			plan.Passes[model.BackwardWeight].Dataflow)
	}
	// Output:
	// phase 1 — dataflows (largest matrix stationary):
	//   QKV      (20480→61440): Y-stn  fwd=OS bwd-data=LS bwd-weight=RS
	//   AttnOut  (20480→20480): Y-stn  fwd=OS bwd-data=LS bwd-weight=RS
	//   FF1      (20480→81920): Y-stn  fwd=OS bwd-data=LS bwd-weight=RS
	//   FF2      (81920→20480): X-stn  fwd=LS bwd-data=OS bwd-weight=RS
}
