package serve

import (
	"bytes"
	"runtime"
	"testing"

	"meshslice/internal/fault"
	"meshslice/internal/hw"
	"meshslice/internal/memory"
	"meshslice/internal/model"
	"meshslice/internal/topology"
)

func testConfig() Config {
	return Config{
		Model: model.GPT3(),
		Chip:  hw.TPUv4(),
		Mesh:  topology.Torus{Rows: 4, Cols: 4},
		// Large HBM so GPT-3's 22 GB weight shard still leaves KV room.
		HBMBytes: 64 * 1 << 30,
	}
}

func testWorkload() []Request {
	return WorkloadSpec{Seed: 42, Rate: 20, Requests: 48}.Generate()
}

func reportBytes(t *testing.T, cfg Config, wl []Request) []byte {
	t.Helper()
	rep, err := Run(cfg, wl)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

func TestRunByteIdenticalAcrossRunsAndGOMAXPROCS(t *testing.T) {
	cfg, wl := testConfig(), testWorkload()
	first := reportBytes(t, cfg, wl)
	if !bytes.Equal(first, reportBytes(t, cfg, wl)) {
		t.Fatal("two identical runs produced different report bytes")
	}
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		if got := reportBytes(t, cfg, wl); !bytes.Equal(first, got) {
			t.Fatalf("GOMAXPROCS=%d changed the report bytes", procs)
		}
	}
}

func TestRunTotalsDependOnlyOnSeed(t *testing.T) {
	cfg := testConfig()
	type totals struct {
		tokens, admissions, preemptions, completed, rejected int
	}
	runTotals := func(seed int64) totals {
		wl := WorkloadSpec{Seed: seed, Rate: 25, Requests: 40}.Generate()
		rep, err := Run(cfg, wl)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		return totals{rep.TokensGenerated, rep.Admissions, rep.Preemptions, rep.Completed, rep.Rejected}
	}
	for _, seed := range []int64{1, 2, 99} {
		a, b := runTotals(seed), runTotals(seed)
		if a != b {
			t.Fatalf("seed %d: totals differ across runs: %+v vs %+v", seed, a, b)
		}
	}
	if runTotals(1) == runTotals(2) {
		t.Fatal("seeds 1 and 2 produced identical totals — generator ignores the seed?")
	}
}

func TestRunConservationAndReportInvariants(t *testing.T) {
	cfg, wl := testConfig(), testWorkload()
	rep, err := Run(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed+rep.Rejected != len(wl) {
		t.Fatalf("completed %d + rejected %d != %d requests", rep.Completed, rep.Rejected, len(wl))
	}
	if !rep.Feasible {
		t.Fatalf("healthy 4x4 run infeasible: %s", rep.Reason)
	}
	if rep.Completed == 0 {
		t.Fatal("no request completed")
	}
	if rep.PeakKVTokens > rep.KVBudgetTokens {
		t.Fatalf("peak KV %d tokens exceeded budget %d", rep.PeakKVTokens, rep.KVBudgetTokens)
	}
	if !(rep.TTFT.P50 > 0) || !(rep.E2E.P99 >= rep.E2E.P50) {
		t.Fatalf("degenerate latency quantiles: %+v / %+v", rep.TTFT, rep.E2E)
	}
	if rep.SLOMet > rep.Completed {
		t.Fatalf("SLO-met %d exceeds completed %d", rep.SLOMet, rep.Completed)
	}
	if !(rep.MakespanS > 0) {
		t.Fatal("zero makespan with completions")
	}
	minTok := 0
	for _, r := range wl {
		minTok += r.OutputTokens
	}
	if rep.TokensGenerated < rep.Completed { // every completion generated ≥1 token
		t.Fatalf("generated %d tokens for %d completions", rep.TokensGenerated, rep.Completed)
	}
	_ = minTok
}

// hbmForKVBudget returns the per-chip HBM capacity that leaves the config
// room for exactly ~budget KV tokens, by pricing the same base footprint
// Run subtracts.
func hbmForKVBudget(t *testing.T, cfg Config, budget int) float64 {
	t.Helper()
	pol := cfg.Policy.withDefaults()
	base, err := memory.Estimate(cfg.Model, memory.Params{
		TPDegree:         cfg.Mesh.Size(),
		PPDegree:         1,
		TokensPerReplica: pol.MaxBatch + pol.ChunkTokens,
		BytesPerParam:    cfg.Chip.BytesPerElement,
		SliceCount:       pol.SliceCount,
		Inference:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	kvPerTok := cfg.Model.KVCacheBytesPerToken(cfg.Chip.BytesPerElement) / float64(cfg.Mesh.Size())
	return base.Total() + (float64(budget)+0.5)*kvPerTok
}

func TestRunPreemptsOnKVPressure(t *testing.T) {
	cfg := testConfig()
	cfg.Model = model.Llama3_70B() // small weight shard, KV budget set via HBMBytes
	// Budget chosen so two admitted prompts fit but their decode growth
	// overflows ≈ 3000 KV tokens.
	cfg.Mesh = topology.Torus{Rows: 4, Cols: 4}
	cfg.HBMBytes = hbmForKVBudget(t, cfg, 3000)
	trace := []Request{
		{ID: 0, Arrival: 0, PromptTokens: 1400, OutputTokens: 400},
		{ID: 1, Arrival: 0, PromptTokens: 1400, OutputTokens: 400},
	}
	rep, err := Run(cfg, trace)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Feasible {
		t.Fatalf("infeasible: %s", rep.Reason)
	}
	if rep.KVBudgetTokens < 2900 || rep.KVBudgetTokens > 3100 {
		t.Fatalf("test premise broken: KV budget %d tokens, want ~3000", rep.KVBudgetTokens)
	}
	if rep.Preemptions == 0 {
		t.Fatal("decode growth past the KV budget caused no preemption")
	}
	if rep.Completed != 2 {
		t.Fatalf("completed %d of 2 despite recompute preemption", rep.Completed)
	}
	if rep.PeakKVTokens > rep.KVBudgetTokens {
		t.Fatalf("peak KV %d exceeded budget %d", rep.PeakKVTokens, rep.KVBudgetTokens)
	}
}

func TestRunRejectsOversizedRequest(t *testing.T) {
	cfg := testConfig()
	cfg.Model = model.Llama3_70B()
	cfg.HBMBytes = hbmForKVBudget(t, cfg, 1000)
	trace := []Request{
		{ID: 0, Arrival: 0, PromptTokens: 5000, OutputTokens: 100}, // can never fit
		{ID: 1, Arrival: 0, PromptTokens: 300, OutputTokens: 50},
	}
	rep, err := Run(cfg, trace)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rejected != 1 || rep.Completed != 1 {
		t.Fatalf("rejected %d completed %d, want 1/1", rep.Rejected, rep.Completed)
	}
}

func TestRunInfeasibleUnderChipFailures(t *testing.T) {
	cfg, wl := testConfig(), testWorkload()
	cfg.Faults = &fault.Plan{ChipFails: []fault.ChipFail{{Chip: 0, At: 0}, {Chip: 5, At: 0}}}
	rep, err := Run(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Feasible {
		t.Fatal("4x4 mesh reported feasible with 2 failed chips")
	}
	if rep.Rejected != len(wl) || !(rep.Goodput < 1e-12) {
		t.Fatalf("infeasible run: rejected %d goodput %g", rep.Rejected, rep.Goodput)
	}
}

func TestRunDirectionalDegradeSlowsServing(t *testing.T) {
	cfg, wl := testConfig(), testWorkload()
	healthy, err := Run(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	// Degrade every chip's horizontal (InterCol) link controller 8×.
	var plan fault.Plan
	for chip := 0; chip < 16; chip++ {
		plan.Degrades = append(plan.Degrades, fault.LinkDegrade{
			Link: fault.Link{Chip: chip, Dir: topology.InterCol}, Factor: 8,
		})
	}
	cfg.Faults = &plan
	degraded, err := Run(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	if !(degraded.MakespanS > healthy.MakespanS) {
		t.Fatalf("8x col-degrade did not stretch makespan: healthy %g, degraded %g",
			healthy.MakespanS, degraded.MakespanS)
	}
	if degraded.Goodput >= healthy.Goodput && healthy.SLOMet > 0 {
		t.Fatalf("8x col-degrade did not hurt goodput: healthy %g, degraded %g",
			healthy.Goodput, degraded.Goodput)
	}
}

func TestDecodeIsMemoryBound(t *testing.T) {
	// Paper §6: decode GeMMs with tiny batch are memory-bound — pricing a
	// single-token decode step must be gated by weight streaming, i.e. the
	// FC-stack time should barely change between batch 1 and batch 8.
	cfg := testConfig()
	fab := newFabric(cfg.Chip, 16, nil)
	cm := newCostModel(newPriceBasis(cfg.Model, fab), topology.Torus{Rows: 4, Cols: 4}, 4)
	t1, t8 := cm.fcStack(1), cm.fcStack(8)
	if !(t8 < 1.05*t1) {
		t.Fatalf("decode FC stack not memory-bound: batch1 %g, batch8 %g", t1, t8)
	}
	// Prefill at 4096 tokens must be compute-dominated: far more than 8×
	// the single-token time.
	tp := cm.fcStack(4096)
	if !(tp > 8*t1) {
		t.Fatalf("prefill not compute-scaled: 4096 tokens %g vs 1 token %g", tp, t1)
	}
}
