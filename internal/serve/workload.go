// Package serve simulates a deterministic LLM inference endpoint on the 2D
// mesh: a seeded, wall-clock-free request generator (Poisson arrivals,
// bounded-Pareto prompt/output lengths, replayable traces), a
// continuous-batching scheduler with distinct prefill and decode phases,
// KV-cache-aware admission control against a per-chip HBM budget
// (internal/memory in inference mode), preemption/requeue on cache
// pressure, and per-step timing composed from internal/costmodel's linear
// communication model plus hw.Chip.RooflineTime — so decode is memory-bound
// exactly as in paper §6. Latencies (TTFT, per-token, end-to-end) fold into
// internal/obs histograms and exact deterministic quantiles; goodput
// (requests meeting the SLO per second) is the first-class output the
// serving autotuner (autotune.TuneServing) ranks configurations by.
//
// Everything is simulated time: the package reads no wall clock (enforced
// by meshlint's no-wallclock rule), draws randomness only from explicitly
// seeded generators, and runs the scheduler single-threaded — reports are
// byte-identical across runs and GOMAXPROCS settings.
package serve

import (
	"fmt"
	"math"
	"math/rand"
)

// Request is one inference request of the workload: it arrives at a
// simulated instant, carries a prompt, and asks for a fixed number of
// output tokens. Times are simulated seconds.
type Request struct {
	ID           int     `json:"id"`
	Arrival      float64 `json:"arrival_s"`
	PromptTokens int     `json:"prompt_tokens"`
	OutputTokens int     `json:"output_tokens"`
}

// Pareto is a bounded-Pareto length distribution on [Min, Max] with tail
// exponent Alpha — the heavy-tailed shape of real prompt/output length
// mixes: mostly short, occasionally near the context limit.
type Pareto struct {
	Alpha float64 `json:"alpha"`
	Min   int     `json:"min"`
	Max   int     `json:"max"`
}

// sample draws one length by inverting the bounded-Pareto CDF:
// x = L / (1 − U·(1 − (L/H)^α))^(1/α), truncated to an int in [Min, Max].
func (p Pareto) sample(rng *rand.Rand) int {
	u := rng.Float64()
	l, h := float64(p.Min), float64(p.Max)
	x := l / math.Pow(1-u*(1-math.Pow(l/h, p.Alpha)), 1/p.Alpha)
	n := int(x)
	if n < p.Min {
		n = p.Min
	}
	if n > p.Max {
		n = p.Max
	}
	return n
}

// WorkloadSpec parameterises the seeded request generator. The zero value
// is usable: Generate fills in the defaults documented per field.
type WorkloadSpec struct {
	// Seed drives every random draw; identical specs generate identical
	// workloads, byte for byte.
	Seed int64 `json:"seed"`
	// Rate is the mean Poisson arrival rate in requests per simulated
	// second (default 10).
	Rate float64 `json:"rate_rps"`
	// Requests is the number of requests to generate (default 64).
	Requests int `json:"requests"`
	// Prompt is the prompt-length distribution (default bounded Pareto
	// α=1.5 on [128, 4096]).
	Prompt Pareto `json:"prompt"`
	// Output is the output-length distribution (default bounded Pareto
	// α=1.8 on [16, 512]).
	Output Pareto `json:"output"`
}

func (s WorkloadSpec) withDefaults() WorkloadSpec {
	if s.Rate <= 0 {
		s.Rate = 10
	}
	if s.Requests <= 0 {
		s.Requests = 64
	}
	if s.Prompt.Min <= 0 || s.Prompt.Max < s.Prompt.Min {
		s.Prompt.Min, s.Prompt.Max = 128, 4096
	}
	if s.Prompt.Alpha <= 0 {
		s.Prompt.Alpha = 1.5
	}
	if s.Output.Min <= 0 || s.Output.Max < s.Output.Min {
		s.Output.Min, s.Output.Max = 16, 512
	}
	if s.Output.Alpha <= 0 {
		s.Output.Alpha = 1.8
	}
	return s
}

// Generate draws the workload from the spec's seeded stream: exponential
// inter-arrival gaps at the Poisson rate, then one prompt and one output
// length per request. The result is sorted by arrival (arrivals are a
// cumulative sum) and depends only on the spec.
func (s WorkloadSpec) Generate() []Request {
	sp := s.withDefaults()
	rng := rand.New(rand.NewSource(sp.Seed))
	reqs := make([]Request, sp.Requests)
	t := 0.0
	for i := range reqs {
		t += rng.ExpFloat64() / sp.Rate
		reqs[i] = Request{
			ID:           i,
			Arrival:      t,
			PromptTokens: sp.Prompt.sample(rng),
			OutputTokens: sp.Output.sample(rng),
		}
	}
	return reqs
}

// maxTokens bounds every token count the scheduler handles: the KV budget
// saturates at it (a huge HBM capacity cannot wrap the conversion to int),
// and trace lengths may not exceed it, so sums of token counts never
// overflow. It sits far above any real KV budget.
const maxTokens = math.MaxInt32

// ValidateTrace checks a replayable fixed trace: arrivals must be finite
// and non-decreasing, and every request needs a prompt and output length
// in [1, 2^31). Run accepts any valid trace in place of a generated
// workload.
func ValidateTrace(reqs []Request) error {
	prev := 0.0
	for i, r := range reqs {
		switch {
		case math.IsNaN(r.Arrival) || math.IsInf(r.Arrival, 0):
			return fmt.Errorf("serve: trace request %d arrives at %v", i, r.Arrival)
		case r.Arrival < prev:
			return fmt.Errorf("serve: trace request %d arrives at %v, before its predecessor at %v", i, r.Arrival, prev)
		case r.PromptTokens <= 0 || r.PromptTokens > maxTokens:
			return fmt.Errorf("serve: trace request %d has prompt length %d", i, r.PromptTokens)
		case r.OutputTokens <= 0 || r.OutputTokens > maxTokens:
			return fmt.Errorf("serve: trace request %d has output length %d", i, r.OutputTokens)
		}
		prev = r.Arrival
	}
	return nil
}
