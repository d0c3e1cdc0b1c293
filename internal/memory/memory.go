// Package memory models the per-chip HBM footprint of distributed LLM
// training and inference. The paper's motivation for scaling tensor
// parallelism (§1, §2.2) is memory: TP shards every matrix, so higher TP
// degrees both fit larger models and shrink the per-chip weight shards that
// data parallelism must synchronise. This package quantifies that: per-chip
// bytes for weights, gradients, optimizer state, activations, the
// communication buffers the 2D GeMM algorithms stage, and — in inference
// mode — the KV cache whose growth governs serving admission control
// (internal/serve).
package memory

import (
	"fmt"

	"meshslice/internal/model"
)

// Footprint is a per-chip HBM byte budget breakdown. Training runs
// populate gradients and optimizer state; inference runs populate the KV
// cache instead (and keep only the live activations of the in-flight
// batch).
type Footprint struct {
	// Weights is the sharded parameter storage.
	Weights float64
	// Gradients mirrors the weights during the backward pass (zero in
	// inference mode).
	Gradients float64
	// OptimizerState is Adam's two moments plus the fp32 master copy
	// (zero in inference mode).
	OptimizerState float64
	// Activations are the saved forward tensors (with the standard
	// per-layer checkpointing of attention internals, i.e. only the FC
	// boundary activations are kept). In inference mode only the current
	// layer's input and output for the in-flight tokens are live.
	Activations float64
	// CommBuffers is the transient staging space the 2D GeMM needs: the
	// gathered operand panels of one in-flight iteration.
	CommBuffers float64
	// KVCache is the resident key/value cache of autoregressive decoding,
	// sharded over the mesh (heads across TP, layers across PP). Zero in
	// training mode.
	KVCache float64
}

// Total sums all components.
func (f Footprint) Total() float64 {
	return f.Weights + f.Gradients + f.OptimizerState + f.Activations + f.CommBuffers + f.KVCache
}

// RecomputeMode selects the activation-recomputation strategy (the
// activation-memory techniques of Korthikanti et al. [16], the paper's
// reference for sequence-parallel 1D TP).
type RecomputeMode int

const (
	// NoRecompute keeps every FC-boundary activation.
	NoRecompute RecomputeMode = iota
	// SelectiveRecompute drops the attention internals and the FF inner
	// activation, recomputing them in the backward pass; roughly the 9→5
	// tensors-per-block reduction of [16].
	SelectiveRecompute
	// FullRecompute keeps only each block's input and replays the whole
	// block backward — maximum memory savings, ≈⅓ more compute.
	FullRecompute
)

func (r RecomputeMode) String() string {
	switch r {
	case NoRecompute:
		return "none"
	case SelectiveRecompute:
		return "selective"
	case FullRecompute:
		return "full"
	default:
		return fmt.Sprintf("RecomputeMode(%d)", int(r))
	}
}

// activationsPerBlock returns the saved tensors per block in units of
// tokens×hidden elements.
func (r RecomputeMode) activationsPerBlock() float64 {
	switch r {
	case SelectiveRecompute:
		return 5
	case FullRecompute:
		return 1
	default:
		return 9
	}
}

// Params configures a footprint estimate.
type Params struct {
	// TPDegree is the tensor-parallel chip count (the 2D mesh size).
	TPDegree int
	// PPDegree is the pipeline-parallel stage count (layers divide).
	PPDegree int
	// TokensPerReplica is the per-DP-replica batch×sequence token count.
	TokensPerReplica int
	// BytesPerParam is the training precision (2 for bf16).
	BytesPerParam float64
	// SliceCount is MeshSlice's S (staging buffers shrink with S).
	SliceCount int
	// Recompute selects the activation-recomputation strategy.
	Recompute RecomputeMode
	// Inference switches the estimate to serving mode: no gradients or
	// optimizer state, only the live activations of the in-flight batch
	// (TokensPerReplica is then the concurrent prefill+decode token
	// count), plus a KV cache of KVTokens resident tokens.
	Inference bool
	// KVTokens is the resident KV-cache token count per replica (prompt +
	// generated tokens of every in-flight request). Read only in
	// inference mode.
	KVTokens int
}

// Validate reports the first invalid parameter.
func (p Params) Validate() error {
	switch {
	case p.TPDegree <= 0:
		return fmt.Errorf("memory: TP degree %d", p.TPDegree)
	case p.PPDegree <= 0:
		return fmt.Errorf("memory: PP degree %d", p.PPDegree)
	case p.TokensPerReplica <= 0:
		return fmt.Errorf("memory: tokens %d", p.TokensPerReplica)
	case p.BytesPerParam <= 0:
		return fmt.Errorf("memory: bytes/param %v", p.BytesPerParam)
	case p.SliceCount <= 0:
		return fmt.Errorf("memory: slice count %d", p.SliceCount)
	case p.KVTokens < 0:
		return fmt.Errorf("memory: KV tokens %d", p.KVTokens)
	}
	return nil
}

// Estimate returns the per-chip footprint of running cfg under the given
// parallelism. Weights/gradients/optimizer shard over TP×PP; activations
// shard over TP (each chip holds its shard of every saved tensor of its
// pipeline stage's layers). In inference mode the backward-pass state
// disappears and the KV cache (sharded over TP×PP like the weights)
// appears instead.
func Estimate(cfg model.Config, p Params) (Footprint, error) {
	if err := cfg.Validate(); err != nil {
		return Footprint{}, err
	}
	if err := p.Validate(); err != nil {
		return Footprint{}, err
	}
	params := float64(cfg.ParamCount())
	shard := params / float64(p.TPDegree) / float64(p.PPDegree)

	var f Footprint
	if p.Inference {
		// Serving: weights only (no mixed-precision master copy), the
		// live input/output activations of the in-flight tokens for the
		// current layer, and the resident KV cache.
		f = Footprint{Weights: shard * p.BytesPerParam}
		liveElems := 2 * float64(p.TokensPerReplica) * float64(cfg.Hidden)
		f.Activations = liveElems / float64(p.TPDegree) * p.BytesPerParam
		f.KVCache = float64(p.KVTokens) * cfg.KVCacheBytesPerToken(p.BytesPerParam) /
			float64(p.TPDegree) / float64(p.PPDegree)
	} else {
		// Mixed-precision training: bf16 weights and gradients; Adam keeps
		// fp32 master weights plus two fp32 moments (12 bytes per parameter).
		f = Footprint{
			Weights:        shard * p.BytesPerParam,
			Gradients:      shard * p.BytesPerParam,
			OptimizerState: shard * 12,
		}

		// Saved activations: per transformer block, the FC boundary tensors —
		// input (h), QKV output (3h), attention output (h), FF1 output (4h) ≈
		// 9·tokens·hidden elements per block without recomputation, reduced by
		// the chosen recompute mode — sharded over the TP mesh, for this
		// stage's share of the layers.
		layers := float64(cfg.Layers) / float64(p.PPDegree)
		actElems := p.Recompute.activationsPerBlock() * float64(p.TokensPerReplica) * float64(cfg.Hidden) * layers
		f.Activations = actElems / float64(p.TPDegree) * p.BytesPerParam
	}

	// Communication staging: the largest gathered panel of one MeshSlice
	// iteration — a full row-gathered input slice of the widest FC layer.
	// With mesh Pr×Pc ≈ √TP each and slice count S, the gathered panel is
	// (tokens/Pr)·(maxDim/S) elements.
	maxDim := float64(cfg.FFHidden)
	side := sqrtInt(p.TPDegree)
	panel := float64(p.TokensPerReplica) / float64(side) * maxDim / float64(p.SliceCount)
	f.CommBuffers = 2 * panel * p.BytesPerParam // double-buffered pipeline

	return f, nil
}

// FitsHBM reports whether the footprint fits a chip with the given HBM
// capacity in bytes (TPUv4: 32 GiB).
func FitsHBM(f Footprint, capacity float64) bool {
	return f.Total() <= capacity
}

// DPTrafficPerChip returns the per-chip data-parallel gradient AllReduce
// bytes for one step: 2·(DP-1)/DP times the chip's weight-gradient shard.
// The §2.2 argument: a higher TP degree shrinks this linearly.
func DPTrafficPerChip(cfg model.Config, tpDegree, ppDegree, dpDegree int, bytesPerParam float64) float64 {
	if dpDegree <= 1 {
		return 0
	}
	shard := float64(cfg.ParamCount()) / float64(tpDegree) / float64(ppDegree) * bytesPerParam
	return 2 * float64(dpDegree-1) / float64(dpDegree) * shard
}

func sqrtInt(n int) int {
	s := 1
	for (s+1)*(s+1) <= n {
		s++
	}
	return s
}
