package autotune

import (
	"meshslice/internal/hw"
	"testing"

	"meshslice/internal/model"
	"meshslice/internal/topology"
)

func TestExhaustiveDataflowNeverWorseThanHeuristic(t *testing.T) {
	// The exhaustive search explores a superset of the heuristic's
	// choices, so it can never be slower.
	cfg := model.GPT3()
	for _, chips := range []int{64, 256} {
		tokens := cfg.WeakScalingTokens(chips)
		for _, shape := range topology.MeshShapes2D(chips) {
			h, e, ok := HeuristicGap(cfg, tokens, shape, testHW)
			if !ok {
				continue
			}
			if e > h*(1+1e-12) {
				t.Errorf("shape %v: exhaustive %v slower than heuristic %v", shape, e, h)
			}
		}
	}
}

func TestHeuristicNearExhaustiveOptimum(t *testing.T) {
	// The paper's justification for the heuristic: it lands close to the
	// exponential search. Allow a 10% envelope on the tuned shape.
	cfg := model.GPT3()
	const chips = 256
	tokens := cfg.WeakScalingTokens(chips)
	choice, err := Tune(cfg, tokens, chips, testHW, Options{OptimizeDataflow: true})
	if err != nil {
		t.Fatal(err)
	}
	h, e, ok := HeuristicGap(cfg, tokens, choice.Shape, testHW)
	if !ok {
		t.Fatalf("HeuristicGap failed on tuned shape %v", choice.Shape)
	}
	if h > e*1.10 {
		t.Errorf("heuristic %v more than 10%% above exhaustive optimum %v on %v", h, e, choice.Shape)
	}
}

func TestExhaustiveDataflowReportsFailure(t *testing.T) {
	// A shape that cannot shard the model must report ok=false.
	cfg := model.Config{Name: "odd", Layers: 1, Hidden: 30, Heads: 3, FFHidden: 120, SeqLen: 16}
	if _, ok := ExhaustiveDataflow(cfg, 48, topology.NewTorus(7, 11), testHW, 0); ok {
		t.Errorf("unshardable model accepted")
	}
}

// HeuristicGap evaluates the paper's heuristic against the exhaustive
// search on one shape and returns (heuristicTime, exhaustiveTime). Both are
// cost-model block times; ok is false when the model cannot shard at all.
func HeuristicGap(cfg model.Config, tokens int, shape topology.Torus, chip hw.Chip) (heuristic, exhaustive float64, ok bool) {
	t := newPassTable(PlanModel(cfg, tokens, true))
	h := t.score(shape, chip, 0, make([]passScore, len(t.probs)))
	e, eOK := ExhaustiveDataflow(cfg, tokens, shape, chip, 0)
	if !h.ok || !eOK {
		return 0, 0, false
	}
	return h.block, e.BlockTime, true
}
