package serve

import (
	"meshslice/internal/costmodel"
	"meshslice/internal/fault"
	"meshslice/internal/hw"
	"meshslice/internal/model"
	"meshslice/internal/topology"
)

// fabric is the serving scheduler's analytical view of the (possibly
// degraded) 2D mesh. Unlike fault.Plan.EffectiveChip, which folds every
// degradation into one global worst-case factor, the fabric keeps the two
// ring directions separate: a column-degrade plan slows only the
// collectives whose rings cross InterCol links, which is what lets the
// serving autotuner prefer a taller-than-wide mesh on a fabric whose
// horizontal links are sick.
type fabric struct {
	// Row / Col carry the link calibration for ring collectives crossing
	// InterRow (vertical) and InterCol (horizontal) links, bandwidth divided
	// by that direction's worst degradation; Compute carries effective
	// FLOPS divided by the worst straggler slowdown.
	costmodel.Fabric
	// survivors is the chip count still alive under the plan's chip
	// failures; a mesh needing more chips than survive is infeasible.
	survivors int
}

// directionFactor returns the worst steady-state wire-time stretch the plan
// imposes on links of one direction: the largest degradation factor among
// that direction's degrades, and at least 2 if any link of the direction is
// failed outright (rings detour the long way around, doubling wire time —
// the same first-order figure netsim's re-routing converges to).
func directionFactor(p *fault.Plan, dir topology.Direction) float64 {
	f := 1.0
	if p == nil {
		return f
	}
	for _, d := range p.Degrades {
		if d.Link.Dir == dir && d.Factor > f {
			f = d.Factor
		}
	}
	for _, lf := range p.LinkFails {
		if lf.Link.Dir == dir && f < 2 {
			f = 2
		}
	}
	return f
}

// newFabric builds the direction-aware degraded view of chip c on a cluster
// of the given size under plan p (nil or empty plan: healthy fabric).
func newFabric(c hw.Chip, clusterChips int, p *fault.Plan) fabric {
	f := fabric{Fabric: costmodel.Uniform(c), survivors: clusterChips}
	f.Row.LinkBandwidth /= directionFactor(p, topology.InterRow)
	f.Col.LinkBandwidth /= directionFactor(p, topology.InterCol)
	f.Compute.EffFLOPS /= p.WorstComputeFactor()
	if p != nil {
		failed := map[int]bool{}
		for _, cf := range p.ChipFails {
			if cf.Chip >= 0 && cf.Chip < clusterChips {
				failed[cf.Chip] = true
			}
		}
		f.survivors = clusterChips - len(failed)
	}
	return f
}

// costModel prices one scheduler step on a fixed mesh shape and slice
// count. All model dimensions are pre-flattened into plain float64 fields
// so the per-step pricing functions below stay allocation-free — they run
// once per simulated step inside the scheduler loop, the subsystem's hot
// path.
type costModel struct {
	fab    costmodel.Fabric
	mesh   topology.Torus
	slices int // MeshSlice slice count S
	layers float64
	hidden float64
	// fc holds the {InDim, OutDim} of the four FC layers of one block
	// (QKV, AttnOut, FF1, FF2), hoisted out of model.Config.FCLayers()
	// which allocates.
	fc [4][2]float64
	// kvPerTokLayer is the KV-cache bytes one token adds per layer
	// (2 × heads × headDim × bpe = 2 × hidden × bpe).
	kvPerTokLayer float64
	meshSize      float64
}

func newCostModel(cfg model.Config, fab fabric, t topology.Torus, sliceCount int) costModel {
	cm := costModel{
		fab:      fab.Fabric,
		mesh:     t,
		slices:   sliceCount,
		layers:   float64(cfg.Layers),
		hidden:   float64(cfg.Hidden),
		meshSize: float64(t.Size()),
	}
	for i, fc := range cfg.FCLayers() {
		cm.fc[i] = [2]float64{float64(fc.InDim), float64(fc.OutDim)}
	}
	cm.kvPerTokLayer = cfg.KVCacheBytesPerToken(fab.Compute.BytesPerElement) / cm.layers
	return cm
}

// fcGeMM prices one m×n×k FC GeMM with slice count S in each of the three
// dataflows — OS, LS, RS — on the direction-aware fabric, and returns the
// cheapest, mirroring the autotuner's per-GeMM dataflow choice. Each is
// composed like costmodel.Estimate: prologue, S−1 overlapped steady-state
// iterations, epilogue. It does not call Estimate.Total, which adds the
// epilogue's compute and tail before the prologue and steady state: that
// rounds differently, and serving reports are pinned to this order.
//
// lint:hotpath priced per FC layer per scheduler step; must not allocate
func (cm *costModel) fcGeMM(m, k, n float64, S int) float64 {
	its := cm.fab.Iterations(m, n, k, cm.mesh, S)
	fS := float64(S)
	best := 0.0
	for df := range its {
		it := &its[df]
		steady := it.Compute
		if it.Comm1 > steady {
			steady = it.Comm1
		}
		if it.Comm2 > steady {
			steady = it.Comm2
		}
		if t := it.First + (fS-1)*steady + it.Compute + it.Tail; df == 0 || t < best {
			best = t
		}
	}
	return best
}

// fcStack prices the four FC GeMMs of every transformer layer for one step
// carrying the given batched token count. Each GeMM takes the cheapest of
// the three dataflows at both the policy's slice count and S=1, mirroring
// the autotuner's per-GeMM (dataflow, S) choice: decode steps (tiny m)
// pick weight-stationary RS at S=1 — slicing would stream the weight S
// times, and OS/LS would re-gather it every step — exactly the layout real
// inference TP uses, and the roofline then pins the step to weight
// streaming, the paper's §6 memory-bound regime. Large prefill chunks are
// compute-bound and benefit from the policy's sliced overlap.
//
// lint:hotpath priced once per scheduler step; must not allocate
func (cm *costModel) fcStack(tokens float64) float64 {
	if tokens <= 0 {
		return 0
	}
	total := 0.0
	for i := 0; i < len(cm.fc); i++ {
		k, n := cm.fc[i][0], cm.fc[i][1]
		best := cm.fcGeMM(tokens, k, n, 1)
		if cm.slices > 1 {
			if t := cm.fcGeMM(tokens, k, n, cm.slices); t < best {
				best = t
			}
		}
		total += best
	}
	return cm.layers * total
}

// attn prices the attention score and context operations for newTokens
// query tokens attending over ctxTokens cached tokens, across all layers,
// sharded over the whole mesh (heads split TP-style). The HBM term streams
// the request's sharded KV cache — for decode (newTokens = 1) that term
// dominates and the step is memory-bound, the paper's §6 regime.
//
// lint:hotpath priced once per in-flight request per scheduler step
func (cm *costModel) attn(newTokens, ctxTokens float64) float64 {
	if newTokens <= 0 || ctxTokens <= 0 {
		return 0
	}
	flops := 4 * newTokens * ctxTokens * cm.hidden * cm.layers / cm.meshSize
	kvRead := ctxTokens * cm.kvPerTokLayer * cm.layers / cm.meshSize
	kvWrite := newTokens * cm.kvPerTokLayer * cm.layers / cm.meshSize
	return cm.fab.Compute.RooflineTime(flops, kvRead+kvWrite)
}
