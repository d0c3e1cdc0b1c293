package serve

import (
	"runtime"
	"testing"

	"meshslice/internal/fault"
	"meshslice/internal/hw"
	"meshslice/internal/model"
	"meshslice/internal/topology"
)

// TestPricesRejectOtherDeployments: a price cache holds the prices of one
// model on one chip in one cluster under one fault plan; a Run of anything
// else through it would read another deployment's step times, so it fails.
func TestPricesRejectOtherDeployments(t *testing.T) {
	cfg := testConfig()
	cfg.ClusterChips = 16
	prices, err := NewPrices(cfg.Model, cfg.Chip, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Prices = prices
	if _, err := Run(cfg, testWorkload()); err != nil {
		t.Fatalf("the deployment the cache was built for: %v", err)
	}
	fastChip := cfg.Chip
	fastChip.EffFLOPS *= 2
	degrade := &fault.Plan{Degrades: []fault.LinkDegrade{{Link: fault.Link{Chip: 3, Dir: topology.InterCol}, Factor: 4}}}
	for name, edit := range map[string]func(*Config){
		"model":      func(c *Config) { c.Model = model.Llama3_70B() },
		"chip":       func(c *Config) { c.Chip = fastChip },
		"cluster":    func(c *Config) { c.ClusterChips = 32 },
		"fault plan": func(c *Config) { c.Faults = degrade },
	} {
		c := cfg
		edit(&c)
		if rep, err := Run(c, testWorkload()); err == nil {
			t.Errorf("another %s: Run returned a report (%d completed) instead of an error", name, rep.Completed)
		}
	}
	if _, err := NewPrices(cfg.Model, cfg.Chip, 0, nil); err == nil {
		t.Error("NewPrices accepted a cluster of 0 chips")
	}
}

// TestLongRequestAllocationGate: ValidateTrace admits a request of 2^31−1
// tokens, so no price table may be sized by one request. A trace holding a
// single 2^24-token request, served under the default policy with room for
// its whole KV cache, allocates less than 1 MiB.
func TestLongRequestAllocationGate(t *testing.T) {
	cfg := testConfig()
	cfg.Mesh = topology.NewTorus(2, 2)
	cfg.HBMBytes = 1e18
	wl := []Request{{PromptTokens: 1<<24 - 64, OutputTokens: 64}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := Run(cfg, wl)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Feasible || rep.Completed != 1 || rep.Steps < 1<<15 {
		t.Fatalf("test premise broken: feasible %v (%s), completed %d, %d steps", rep.Feasible, rep.Reason, rep.Completed, rep.Steps)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d bytes over %d steps", got, rep.Steps)
	if got >= 1<<20 {
		t.Errorf("one 2^24-token request allocated %d bytes, want < 1 MiB", got)
	}
}

// TestNewPricesValidates: the constructor rejects the model, chip and
// fault plan Run would reject.
func TestNewPricesValidates(t *testing.T) {
	if _, err := NewPrices(model.Config{}, hw.TPUv4(), 4, nil); err == nil {
		t.Error("NewPrices accepted an empty model")
	}
	if _, err := NewPrices(model.GPT3(), hw.Chip{}, 4, nil); err == nil {
		t.Error("NewPrices accepted an empty chip")
	}
	if _, err := NewPrices(model.GPT3(), hw.TPUv4(), 4, &fault.Plan{ChipFails: []fault.ChipFail{{Chip: 9}}}); err == nil {
		t.Error("NewPrices accepted a plan failing a chip outside the cluster")
	}
}
