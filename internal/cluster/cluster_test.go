package cluster

import (
	"math"
	"testing"

	"meshslice/internal/autotune"
	"meshslice/internal/hw"
	"meshslice/internal/model"
	"meshslice/internal/topology"
	"meshslice/internal/train"
)

var testHW = hw.TPUv4()

func validPlan() Plan {
	return Plan{DP: 4, PP: 8, TPShape: topology.NewTorus(8, 8), Microbatches: 32}
}

func TestPlanBasics(t *testing.T) {
	p := validPlan()
	if p.Chips() != 4*8*64 {
		t.Errorf("Chips = %d", p.Chips())
	}
	if p.TP() != 64 || p.Is1D() {
		t.Errorf("TP accessor wrong: %d %v", p.TP(), p.Is1D())
	}
	if !(Plan{DP: 1, PP: 1, TPShape: topology.NewTorus(1, 8), Microbatches: 1}).Is1D() {
		t.Errorf("1×8 should be 1D")
	}
	if p.String() == "" {
		t.Errorf("empty String")
	}
}

func TestPlanValidate(t *testing.T) {
	cfg := model.GPT3() // 96 layers
	if err := validPlan().Validate(cfg, 128); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
	bad := []Plan{
		{DP: 0, PP: 8, TPShape: topology.NewTorus(8, 8), Microbatches: 8},
		{DP: 4, PP: 5, TPShape: topology.NewTorus(8, 8), Microbatches: 8},  // 96 % 5 != 0
		{DP: 3, PP: 8, TPShape: topology.NewTorus(8, 8), Microbatches: 8},  // 128 % 3 != 0
		{DP: 4, PP: 8, TPShape: topology.NewTorus(8, 8), Microbatches: 24}, // 32 % 24 != 0
	}
	for i, p := range bad {
		if err := p.Validate(cfg, 128); err == nil {
			t.Errorf("bad plan %d accepted: %v", i, p)
		}
	}
}

func TestEvaluateComponents(t *testing.T) {
	cfg := model.GPT3()
	plan := Plan{DP: 2, PP: 4, TPShape: topology.NewTorus(4, 4), Microbatches: 16}
	ev, err := Evaluate(cfg, plan, 64, testHW, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ev.StepTime <= 0 || ev.TPTime <= 0 || ev.BubbleTime <= 0 || ev.DPSyncTime <= 0 {
		t.Errorf("degenerate evaluation %+v", ev)
	}
	if ev.StepTime < ev.TPTime {
		t.Errorf("step time %v below pure work %v", ev.StepTime, ev.TPTime)
	}
	if ev.Memory.Total() <= 0 {
		t.Errorf("no memory estimate")
	}
	if u := ev.Utilization(cfg, 64, testHW); u <= 0 || u > 1 {
		t.Errorf("utilization %v", u)
	}
}

func TestEvaluateNoDPHasNoSyncCost(t *testing.T) {
	cfg := model.GPT3()
	plan := Plan{DP: 1, PP: 4, TPShape: topology.NewTorus(4, 4), Microbatches: 16}
	ev, err := Evaluate(cfg, plan, 16, testHW, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ev.DPSyncTime != 0 {
		t.Errorf("DP=1 pays sync %v", ev.DPSyncTime)
	}
}

func TestEvaluateNoPPHasNoBubble(t *testing.T) {
	cfg := model.GPT3()
	plan := Plan{DP: 2, PP: 1, TPShape: topology.NewTorus(4, 4), Microbatches: 1}
	ev, err := Evaluate(cfg, plan, 32, testHW, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ev.BubbleTime != 0 {
		t.Errorf("PP=1 pays bubble %v", ev.BubbleTime)
	}
}

func TestMoreMicrobatchesShrinkBubble(t *testing.T) {
	cfg := model.GPT3()
	mk := func(mb int) Evaluation {
		plan := Plan{DP: 1, PP: 4, TPShape: topology.NewTorus(4, 4), Microbatches: mb}
		ev, err := Evaluate(cfg, plan, 32, testHW, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return ev
	}
	few := mk(4)
	many := mk(32)
	if many.BubbleTime >= few.BubbleTime {
		t.Errorf("mb=32 bubble %v should beat mb=4 bubble %v", many.BubbleTime, few.BubbleTime)
	}
}

// TestBubbleFraction: Evaluate's bubble is the GPipe share
// (PP-1)/(mb+PP-1) of the pipelined work.
func TestBubbleFraction(t *testing.T) {
	plan := Plan{DP: 1, PP: 4, TPShape: topology.NewTorus(4, 4), Microbatches: 12}
	ev, err := Evaluate(model.GPT3(), plan, 48, testHW, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := ev.BubbleTime / (ev.TPTime + ev.BubbleTime); math.Abs(got-3.0/15.0) > 1e-12 {
		t.Errorf("bubble share at PP=4, mb=12 = %v, want 3/15", got)
	}
}

// TestSimulatedEvaluationAgreesWithModel holds the cost-model block time
// that Evaluate prices a 4×4 TP mesh with (autotune.Tune) to within 2× of
// the simulator's (train.EvaluateFC) for the same mesh and tokens.
func TestSimulatedEvaluationAgreesWithModel(t *testing.T) {
	cfg := model.GPT3()
	shapes := []topology.Torus{topology.NewTorus(4, 4)}
	tokens := 8 * cfg.SeqLen
	modelled, err := autotune.Tune(cfg, tokens, 16, testHW, autotune.Options{OptimizeDataflow: true, Shapes: shapes})
	if err != nil {
		t.Fatal(err)
	}
	simulated, err := train.EvaluateFC(cfg, tokens, 16, testHW, train.MeshSliceAlgo, train.Options{OptimizeDataflow: true, Shapes: shapes})
	if err != nil {
		t.Fatal(err)
	}
	ratio := simulated.Time / modelled.BlockTime
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("simulated %v vs modelled %v diverge (%.2fx)", simulated.Time, modelled.BlockTime, ratio)
	}
}

func TestSearchFindsFeasiblePlansAndPrefers2DTP(t *testing.T) {
	cfg := model.MegatronNLG()
	const chips, batch = 2048, 512
	evs := Search(cfg, chips, batch, testHW, 8, Options{})
	if len(evs) == 0 {
		t.Fatalf("no feasible plan for Megatron on %d chips", chips)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].StepTime < evs[i-1].StepTime {
			t.Errorf("results not sorted at %d", i)
		}
	}
	best := evs[0]
	if best.Plan.Chips() != chips {
		t.Errorf("best plan %v uses %d chips", best.Plan, best.Plan.Chips())
	}
	if !best.FitsHBM {
		t.Errorf("best plan does not fit memory")
	}
	// §2.2's conclusion: with 1D TP capped at 8-way, the winning plan for
	// a 530B model uses 2D tensor parallelism.
	if best.Plan.Is1D() {
		t.Errorf("best plan %v is 1D TP; expected 2D TP to win at this scale", best.Plan)
	}
}

func TestSearchRespectsMemoryCapacity(t *testing.T) {
	cfg := model.MegatronNLG()
	evs := Search(cfg, 64, 64, testHW, 8, Options{HBMCapacity: 1 << 30}) // 1 GiB: nothing fits
	if len(evs) != 0 {
		t.Errorf("1 GiB capacity admitted %d plans", len(evs))
	}
}

func TestDefaultMicrobatches(t *testing.T) {
	if got := defaultMicrobatches(64, 4); got != 16 {
		t.Errorf("defaultMicrobatches(64,4) = %d, want 16", got)
	}
	if got := defaultMicrobatches(64, 1); got != 1 {
		t.Errorf("defaultMicrobatches(64,1) = %d, want 1", got)
	}
	if got := defaultMicrobatches(6, 4); got != 2 {
		t.Errorf("defaultMicrobatches(6,4) = %d, want 2 (largest dividing power of two)", got)
	}
}
