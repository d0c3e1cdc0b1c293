package memory

import (
	"testing"

	"meshslice/internal/model"
)

const hbm32GiB = 32 * (1 << 30)

func baseParams() Params {
	return Params{
		TPDegree:         64,
		PPDegree:         8,
		TokensPerReplica: 2048,
		BytesPerParam:    2,
		SliceCount:       8,
	}
}

func TestEstimateComponentsPositive(t *testing.T) {
	f, err := Estimate(model.GPT3(), baseParams())
	if err != nil {
		t.Fatal(err)
	}
	if f.Weights <= 0 || f.Gradients <= 0 || f.OptimizerState <= 0 ||
		f.Activations <= 0 || f.CommBuffers <= 0 {
		t.Errorf("degenerate footprint %+v", f)
	}
	if f.Total() <= f.Weights {
		t.Errorf("Total must exceed any component")
	}
}

func TestWeightsShardWithTPAndPP(t *testing.T) {
	p := baseParams()
	f1, _ := Estimate(model.GPT3(), p)
	p.TPDegree *= 2
	f2, _ := Estimate(model.GPT3(), p)
	if f2.Weights*2 != f1.Weights {
		t.Errorf("doubling TP should halve weight shard: %v vs %v", f1.Weights, f2.Weights)
	}
	p = baseParams()
	p.PPDegree *= 2
	f3, _ := Estimate(model.GPT3(), p)
	if f3.Weights*2 != f1.Weights {
		t.Errorf("doubling PP should halve weight shard: %v vs %v", f1.Weights, f3.Weights)
	}
}

func TestOptimizerStateDominatesWeights(t *testing.T) {
	// Mixed precision: 12 fp32 bytes of state per 2-byte parameter.
	f, _ := Estimate(model.GPT3(), baseParams())
	if f.OptimizerState != 6*f.Weights {
		t.Errorf("optimizer state %v, want 6x weights %v", f.OptimizerState, f.Weights)
	}
}

func TestCommBuffersShrinkWithS(t *testing.T) {
	p := baseParams()
	p.SliceCount = 1
	f1, _ := Estimate(model.GPT3(), p)
	p.SliceCount = 8
	f8, _ := Estimate(model.GPT3(), p)
	if f8.CommBuffers*8 != f1.CommBuffers {
		t.Errorf("S=8 buffers %v, want 1/8 of S=1 %v", f8.CommBuffers, f1.CommBuffers)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	mutations := []func(*Params){
		func(p *Params) { p.TPDegree = 0 },
		func(p *Params) { p.PPDegree = 0 },
		func(p *Params) { p.TokensPerReplica = 0 },
		func(p *Params) { p.BytesPerParam = 0 },
		func(p *Params) { p.SliceCount = 0 },
	}
	for i, m := range mutations {
		p := baseParams()
		m(&p)
		if _, err := Estimate(model.GPT3(), p); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	bad := model.GPT3()
	bad.Layers = 0
	if _, err := Estimate(bad, baseParams()); err == nil {
		t.Errorf("invalid model accepted")
	}
}

func TestGPT3NeedsMoreThanOneChip(t *testing.T) {
	// 175B parameters at 14 bytes/param of state ≈ 2.4 TB: nowhere near
	// one 32 GiB chip even before activations.
	p := baseParams()
	p.TPDegree, p.PPDegree = 1, 1
	f, _ := Estimate(model.GPT3(), p)
	if FitsHBM(f, hbm32GiB) {
		t.Errorf("GPT-3 on one chip reported as fitting (%.1f GiB)", f.Total()/(1<<30))
	}
}

func TestMinTPDegreeMonotonic(t *testing.T) {
	// Megatron-NLG (530B) needs a higher TP degree than GPT-3 (175B) at
	// the same PP degree and capacity.
	p := baseParams()
	p.PPDegree = 8
	gpt := MinTPDegree(model.GPT3(), p, hbm32GiB, 1024)
	meg := MinTPDegree(model.MegatronNLG(), p, hbm32GiB, 1024)
	if gpt == 0 || meg == 0 {
		t.Fatalf("MinTPDegree found no fit: gpt=%d meg=%d", gpt, meg)
	}
	if meg < gpt {
		t.Errorf("Megatron min TP %d < GPT-3 min TP %d", meg, gpt)
	}
	// The paper's point: these degrees exceed the 8-way cap of 1D TP on
	// NVSwitch-class fabrics at small PP degrees.
	p.PPDegree = 2
	if tp := MinTPDegree(model.MegatronNLG(), p, hbm32GiB, 1024); tp <= 8 {
		t.Errorf("Megatron at PP=2 fits in %d-way TP; expected >8 (2D TP territory)", tp)
	}
}

func TestMinTPDegreeNoFit(t *testing.T) {
	if tp := MinTPDegree(model.MegatronNLG(), baseParams(), 1<<20, 4); tp != 0 {
		t.Errorf("1 MiB capacity reported fitting at TP=%d", tp)
	}
}

func TestDPTrafficShrinksWithTP(t *testing.T) {
	cfg := model.GPT3()
	t8 := DPTrafficPerChip(cfg, 8, 8, 4, 2)
	t128 := DPTrafficPerChip(cfg, 128, 8, 4, 2)
	if t128*16 != t8 {
		// §2.2: 128-way TP instead of 8-way makes per-chip DP traffic
		// 16x smaller.
		t.Errorf("DP traffic at TP=128 (%v) should be 16x below TP=8 (%v)", t128, t8)
	}
	if DPTrafficPerChip(cfg, 8, 8, 1, 2) != 0 {
		t.Errorf("DP=1 should have no gradient traffic")
	}
}

func TestSqrtInt(t *testing.T) {
	cases := map[int]int{1: 1, 3: 1, 4: 2, 8: 2, 9: 3, 256: 16, 255: 15}
	for n, want := range cases {
		if got := sqrtInt(n); got != want {
			t.Errorf("sqrtInt(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestRecomputeModesShrinkActivations(t *testing.T) {
	base := baseParams()
	none, _ := Estimate(model.GPT3(), base)
	base.Recompute = SelectiveRecompute
	sel, _ := Estimate(model.GPT3(), base)
	base.Recompute = FullRecompute
	full, _ := Estimate(model.GPT3(), base)
	if !(full.Activations < sel.Activations && sel.Activations < none.Activations) {
		t.Errorf("activation ordering wrong: %v / %v / %v",
			none.Activations, sel.Activations, full.Activations)
	}
	// Ratios follow the tensors-per-block accounting: 9 : 5 : 1.
	if r := none.Activations / full.Activations; r != 9 {
		t.Errorf("none/full ratio = %v, want 9", r)
	}
	if r := none.Activations / sel.Activations; r != 9.0/5.0 {
		t.Errorf("none/selective ratio = %v, want 1.8", r)
	}
	// Weights unaffected.
	if full.Weights != none.Weights {
		t.Errorf("recompute changed weight memory")
	}
}

func TestRecomputeModeString(t *testing.T) {
	if NoRecompute.String() != "none" || SelectiveRecompute.String() != "selective" || FullRecompute.String() != "full" {
		t.Errorf("mode strings: %v %v %v", NoRecompute, SelectiveRecompute, FullRecompute)
	}
	if RecomputeMode(9).String() == "" {
		t.Errorf("unknown mode must render")
	}
}

func TestInferenceModeDropsTrainingState(t *testing.T) {
	cfg := model.GPT3()
	p := Params{
		TPDegree: 64, PPDegree: 1, TokensPerReplica: 2048,
		BytesPerParam: 2, SliceCount: 8,
		Inference: true, KVTokens: 100_000,
	}
	f, err := Estimate(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if f.Gradients != 0 || f.OptimizerState != 0 {
		t.Errorf("inference footprint keeps training state: grads=%v opt=%v", f.Gradients, f.OptimizerState)
	}
	// KV cache: 100k tokens × KVCacheBytesPerToken(2) sharded over 64 chips.
	wantKV := 100_000 * cfg.KVCacheBytesPerToken(2) / 64
	if f.KVCache != wantKV {
		t.Errorf("KVCache = %v, want %v", f.KVCache, wantKV)
	}
	if f.KVCache <= 0 || f.Weights <= 0 || f.Activations <= 0 || f.CommBuffers <= 0 {
		t.Errorf("inference components must be positive: %+v", f)
	}
	// Total includes the KV component.
	if got := f.Total(); got != f.Weights+f.Activations+f.CommBuffers+f.KVCache {
		t.Errorf("Total() = %v does not sum the inference components", got)
	}

	// The training estimate of the same configuration is strictly larger:
	// gradients + optimizer state dwarf a 100k-token cache shard.
	p.Inference = false
	p.KVTokens = 0
	tr, err := Estimate(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Total() <= f.Total() {
		t.Errorf("training footprint %v should exceed inference footprint %v", tr.Total(), f.Total())
	}
	if tr.KVCache != 0 {
		t.Errorf("training footprint grew a KV cache: %v", tr.KVCache)
	}
}

func TestInferenceKVScalesWithTokensAndShardsOverMesh(t *testing.T) {
	cfg := model.Llama3_70B()
	base := Params{
		TPDegree: 16, PPDegree: 1, TokensPerReplica: 64,
		BytesPerParam: 2, SliceCount: 1, Inference: true, KVTokens: 4096,
	}
	f1, err := Estimate(cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	dbl := base
	dbl.KVTokens *= 2
	f2, _ := Estimate(cfg, dbl)
	if f2.KVCache != 2*f1.KVCache {
		t.Errorf("KV cache not linear in tokens: %v vs %v", f1.KVCache, f2.KVCache)
	}
	wide := base
	wide.TPDegree = 32
	f3, _ := Estimate(cfg, wide)
	if f3.KVCache != f1.KVCache/2 {
		t.Errorf("KV cache not sharded over TP: %v vs %v", f1.KVCache, f3.KVCache)
	}
	bad := base
	bad.KVTokens = -1
	if _, err := Estimate(cfg, bad); err == nil {
		t.Errorf("negative KV tokens must fail validation")
	}
}

// MinTPDegree returns the smallest power-of-two TP degree whose footprint
// fits the capacity (with the other parameters fixed), or 0 if none up to
// maxTP fits. This is the calculation behind the paper's §2.2 argument that
// large models need TP degrees beyond 8-way.
func MinTPDegree(cfg model.Config, base Params, capacity float64, maxTP int) int {
	for tp := 1; tp <= maxTP; tp *= 2 {
		p := base
		p.TPDegree = tp
		f, err := Estimate(cfg, p)
		if err != nil {
			continue
		}
		if FitsHBM(f, capacity) {
			return tp
		}
	}
	return 0
}
