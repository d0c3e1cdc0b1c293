// Package model defines the transformer LLMs of the paper's evaluation
// (§4.4): OpenAI's GPT-3 (175B) and NVIDIA's Megatron-NLG (530B). Each
// transformer block contains four FC layers — two in multi-head attention
// and two in the feed-forward network — and only those layers communicate
// under tensor parallelism; everything else is benchmarked locally. The
// package exposes the FC layers, the training GeMM shapes they induce
// (forward, backward-data, backward-weight), and a roofline estimate of the
// non-FC time used to compose end-to-end step times.
package model

import (
	"fmt"

	"meshslice/internal/gemm"
	"meshslice/internal/hw"
)

// Config describes a transformer LLM.
type Config struct {
	Name string
	// Layers is the number of transformer blocks.
	Layers int
	// Hidden is the model dimension (H×D in the paper's 4D tensor shape).
	Hidden int
	// Heads is the number of attention heads.
	Heads int
	// FFHidden is the feed-forward inner dimension (4×Hidden for both
	// evaluated models).
	FFHidden int
	// SeqLen is the training sequence length (2048 for both models).
	SeqLen int
}

// GPT3 returns OpenAI's GPT-3 175B configuration [3].
func GPT3() Config {
	return Config{
		Name:     "GPT-3",
		Layers:   96,
		Hidden:   12288,
		Heads:    96,
		FFHidden: 4 * 12288,
		SeqLen:   2048,
	}
}

// MegatronNLG returns NVIDIA's Megatron-Turing NLG 530B configuration [27].
func MegatronNLG() Config {
	return Config{
		Name:     "Megatron-NLG",
		Layers:   105,
		Hidden:   20480,
		Heads:    128,
		FFHidden: 4 * 20480,
		SeqLen:   2048,
	}
}

// Llama3_70B returns Meta's Llama 3 70B configuration [8] — the model
// whose training cluster motivates the paper's §2.2 scaling argument.
// Note its FF hidden dimension is 3.5×hidden (SwiGLU), not 4×.
func Llama3_70B() Config {
	return Config{
		Name:     "Llama-3-70B",
		Layers:   80,
		Hidden:   8192,
		Heads:    64,
		FFHidden: 28672,
		SeqLen:   8192,
	}
}

// Llama3_405B returns Meta's Llama 3 405B configuration [8].
func Llama3_405B() Config {
	return Config{
		Name:     "Llama-3-405B",
		Layers:   126,
		Hidden:   16384,
		Heads:    128,
		FFHidden: 53248,
		SeqLen:   8192,
	}
}

// PaLM540B returns Google's PaLM 540B configuration — a TPU-trained model
// at Megatron-NLG scale.
func PaLM540B() Config {
	return Config{
		Name:     "PaLM-540B",
		Layers:   118,
		Hidden:   18432,
		Heads:    48,
		FFHidden: 4 * 18432,
		SeqLen:   2048,
	}
}

// Builtins lists every built-in model configuration.
func Builtins() []Config {
	return []Config{GPT3(), MegatronNLG(), Llama3_70B(), Llama3_405B(), PaLM540B()}
}

// ByName resolves a built-in configuration case-insensitively by its Name,
// also accepting common short forms ("gpt3", "megatron", "llama3-70b").
func ByName(name string) (Config, bool) {
	aliases := map[string]func() Config{
		"gpt3": GPT3, "gpt-3": GPT3,
		"megatron": MegatronNLG, "megatron-nlg": MegatronNLG,
		"llama3-70b": Llama3_70B, "llama-3-70b": Llama3_70B,
		"llama3-405b": Llama3_405B, "llama-3-405b": Llama3_405B,
		"palm": PaLM540B, "palm-540b": PaLM540B,
	}
	key := lower(name)
	if f, ok := aliases[key]; ok {
		return f(), true
	}
	for _, c := range Builtins() {
		if lower(c.Name) == key {
			return c, true
		}
	}
	return Config{}, false
}

func lower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}

// Validate reports the first implausible field, or nil.
func (c Config) Validate() error {
	switch {
	case c.Layers <= 0:
		return fmt.Errorf("model: %s has %d layers", c.Name, c.Layers)
	case c.Hidden <= 0:
		return fmt.Errorf("model: %s hidden %d", c.Name, c.Hidden)
	case c.Heads <= 0 || c.Hidden%c.Heads != 0:
		return fmt.Errorf("model: %s heads %d must divide hidden %d", c.Name, c.Heads, c.Hidden)
	case c.FFHidden <= 0:
		return fmt.Errorf("model: %s ff hidden %d", c.Name, c.FFHidden)
	case c.SeqLen <= 0:
		return fmt.Errorf("model: %s sequence length %d", c.Name, c.SeqLen)
	}
	return nil
}

// ParamCount approximates the parameter count from the FC layers
// (≈ 12·L·H², the dominant term for these models).
func (c Config) ParamCount() int64 {
	perBlock := int64(0)
	for _, fc := range c.FCLayers() {
		perBlock += int64(fc.InDim) * int64(fc.OutDim)
	}
	return int64(c.Layers) * perBlock
}

// FCLayer is one fully-connected layer of a transformer block: the weight
// matrix maps InDim features to OutDim features.
type FCLayer struct {
	Name   string
	InDim  int
	OutDim int
}

// FCLayers returns the four FC layers of one transformer block: the fused
// QKV projection, the attention output projection, and the two feed-forward
// layers.
func (c Config) FCLayers() []FCLayer {
	return []FCLayer{
		{Name: "QKV", InDim: c.Hidden, OutDim: 3 * c.Hidden},
		{Name: "AttnOut", InDim: c.Hidden, OutDim: c.Hidden},
		{Name: "FF1", InDim: c.Hidden, OutDim: c.FFHidden},
		{Name: "FF2", InDim: c.FFHidden, OutDim: c.Hidden},
	}
}

// Pass identifies the three training computations a forward GeMM induces
// (paper §3.2.1): Y = XW, X' = Y'Wᵀ, and W' = XᵀY'.
type Pass int

const (
	Forward Pass = iota
	BackwardData
	BackwardWeight
)

func (p Pass) String() string {
	switch p {
	case Forward:
		return "fwd"
	case BackwardData:
		return "bwd-data"
	case BackwardWeight:
		return "bwd-weight"
	default:
		return fmt.Sprintf("Pass(%d)", int(p))
	}
}

// GeMMShape is one training GeMM: an M×N result with inner dimension K.
type GeMMShape struct {
	Layer string
	Pass  Pass
	M     int
	N     int
	K     int
}

// Name renders "FF1 fwd"-style labels for reports.
func (g GeMMShape) Name() string { return g.Layer + " " + g.Pass.String() }

// FLOPs returns 2·M·N·K.
func (g GeMMShape) FLOPs() float64 {
	return 2 * float64(g.M) * float64(g.N) * float64(g.K)
}

// TrainingGeMMs returns the twelve training GeMMs of one transformer block
// (four FC layers × three passes) for the given token count (batch ×
// sequence length, the flattened outer dimension of the FC inputs): the
// shapes of Table 1's Y-stationary row (gemm.YStn.Passes).
func (c Config) TrainingGeMMs(tokens int) []GeMMShape {
	fcs := c.FCLayers()
	out := make([]GeMMShape, 0, 3*len(fcs))
	for _, fc := range fcs {
		for pass, p := range gemm.YStn.Passes(tokens, fc.InDim, fc.OutDim) {
			out = append(out, GeMMShape{Layer: fc.Name, Pass: Pass(pass), M: p.M, N: p.N, K: p.K})
		}
	}
	return out
}

// InferenceGeMMs returns the four FC-layer GeMMs of one decode step during
// autoregressive inference: each sequence contributes a single token, so
// M equals the batch size and the GeMMs are strongly memory-bound (the
// weight matrix dwarfs the activations; paper §6 notes MeshSlice and the
// autotuner need the memory-bound compute model for this regime).
func (c Config) InferenceGeMMs(batch int) []GeMMShape {
	var out []GeMMShape
	for _, fc := range c.FCLayers() {
		out = append(out, GeMMShape{Layer: fc.Name, Pass: Forward, M: batch, N: fc.OutDim, K: fc.InDim})
	}
	return out
}

// HeadDim returns the per-head attention dimension Hidden/Heads.
func (c Config) HeadDim() int { return c.Hidden / c.Heads }

// KVCacheBytesPerToken returns the KV-cache bytes one resident token
// occupies across the whole model: every transformer block stores one key
// and one value vector of Heads×HeadDim elements, so
//
//	layers × 2 × heads × headDim × bytesPerElement.
//
// Both evaluated models use full multi-head attention; a grouped-query
// variant would shrink this by the KV-head ratio.
func (c Config) KVCacheBytesPerToken(bytesPerElement float64) float64 {
	return float64(c.Layers) * 2 * float64(c.Heads) * float64(c.HeadDim()) * bytesPerElement
}

// PrefillGeMMs returns the four FC-layer GeMMs of the prompt-processing
// (prefill) phase for a batch of sequences of promptLen tokens each: the
// flattened outer dimension is batch×promptLen, exactly like one training
// forward pass, so prefill stays compute-bound.
// lint:allow unused ROADMAP item 7 owns serving's price; the decode step's shapes wait for its attention term
func (c Config) PrefillGeMMs(batch, promptLen int) []GeMMShape {
	return c.InferenceGeMMs(batch * promptLen)
}

// DecodeGeMMs returns the GeMMs of one autoregressive decode step at the
// given batch size and per-sequence KV context length. Unlike the prefill
// shapes (M = batch×seq tokens), each sequence contributes exactly one
// token here, so the four FC GeMMs collapse to M = batch — the strongly
// memory-bound regime of paper §6 — and the two batched attention GeMMs
// pick up contextLen as the dimension the KV cache streams through
// (per sequence and layer: a 1×headDim query against headDim×contextLen
// keys, then 1×contextLen scores against contextLen×headDim values,
// summed over heads).
// lint:allow unused ROADMAP item 7 owns serving's price; the decode step's shapes wait for its attention term
func (c Config) DecodeGeMMs(batch, contextLen int) []GeMMShape {
	out := c.InferenceGeMMs(batch)
	out = append(out,
		GeMMShape{Layer: "AttnScore", Pass: Forward, M: batch, N: contextLen, K: c.Hidden},
		GeMMShape{Layer: "AttnCtx", Pass: Forward, M: batch, N: c.Hidden, K: contextLen},
	)
	return out
}

// DistinctGeMMs deduplicates TrainingGeMMs by shape, treating an M×N×K
// GeMM and its N×M×K transpose as the same operation — computing Cᵀ instead
// of C only flips to the transposed dataflow (§3.2.1), e.g. the FF1 and FF2
// backward-weight GeMMs are each other's transposes. This yields the eight
// distinct shapes per model the paper reports (§5.1.4).
func (c Config) DistinctGeMMs(tokens int) []GeMMShape {
	seen := map[[3]int]bool{}
	var out []GeMMShape
	for _, g := range c.TrainingGeMMs(tokens) {
		lo, hi := g.M, g.N
		if lo > hi {
			lo, hi = hi, lo
		}
		key := [3]int{lo, hi, g.K}
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, g)
	}
	return out
}

// TotalFCFLOPs returns the FLOPs of all FC-layer training GeMMs across all
// blocks for one step over the given tokens.
func (c Config) TotalFCFLOPs(tokens int) float64 {
	var per float64
	for _, g := range c.TrainingGeMMs(tokens) {
		per += g.FLOPs()
	}
	return per * float64(c.Layers)
}

// NonFCTime estimates the per-step execution time of everything outside
// the FC layers — the attention score/context batched GeMMs plus the
// memory-bound elementwise work (softmax, layernorm, residuals, activation
// functions) — for the whole model spread over `chips` accelerators.
//
// These operations carry no TP communication (paper §4.4 benchmarks them on
// a single TPU); we charge a roofline estimate instead: batched-attention
// FLOPs at effective throughput plus elementwise bytes at HBM bandwidth,
// forward and backward (backward ≈ 2× forward).
func (c Config) NonFCTime(tokens, chips int, chip hw.Chip) float64 {
	if tokens <= 0 || chips <= 0 {
		return 0
	}
	sequences := float64(tokens) / float64(c.SeqLen)
	// Attention scores QKᵀ and context AV: 2 GeMMs of S×S×H per sequence
	// per block, ×3 for forward plus backward.
	attnFLOPs := 3 * 2 * 2 * sequences * float64(c.SeqLen) * float64(c.SeqLen) * float64(c.Hidden) * float64(c.Layers)
	// Elementwise traffic: ~12 activation-sized tensors (softmax, norms,
	// GeLU, residuals) read+written per block, forward and backward.
	elemBytes := 3 * 12 * float64(tokens) * float64(c.Hidden) * chip.BytesPerElement * float64(c.Layers)
	return attnFLOPs/(float64(chips)*chip.EffFLOPS) + elemBytes/(float64(chips)*chip.HBMBandwidth)
}

// WeakScalingTokens returns the token count of the paper's weak-scaling
// setup (§5.1.1): batch size = chips/2 sequences of SeqLen tokens.
func (c Config) WeakScalingTokens(chips int) int {
	return chips / 2 * c.SeqLen
}

// StrongScalingTokens returns the token count of the strong-scaling setup
// (§5.1.3): a fixed batch of 32 sequences.
func (c Config) StrongScalingTokens() int {
	return 32 * c.SeqLen
}
