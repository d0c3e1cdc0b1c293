package serve

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

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

// priceBasis is everything a step price depends on besides the mesh shape
// and the slice count: the degraded fabric and the model's dimensions,
// pre-flattened into plain float64 fields so the per-step pricing functions
// below stay allocation-free — they run inside the scheduler loop, the
// subsystem's hot path. Two runs with equal bases price equal steps equally.
type priceBasis struct {
	fab    fabric
	layers float64
	hidden float64
	// fc holds the {InDim, OutDim} of the four FC layers of one block
	// (QKV, AttnOut, FF1, FF2), hoisted out of model.Config.FCLayers()
	// which allocates.
	fc [4][2]float64
	// kvPerTokLayer is the KV-cache bytes one token adds per layer
	// (2 × heads × headDim × bpe = 2 × hidden × bpe).
	kvPerTokLayer float64
}

func newPriceBasis(cfg model.Config, fab fabric) priceBasis {
	b := priceBasis{fab: fab, layers: float64(cfg.Layers), hidden: float64(cfg.Hidden)}
	for i, fc := range cfg.FCLayers() {
		b.fc[i] = [2]float64{float64(fc.InDim), float64(fc.OutDim)}
	}
	b.kvPerTokLayer = cfg.KVCacheBytesPerToken(fab.Compute.BytesPerElement) / b.layers
	return b
}

// costModel prices one scheduler step on a fixed mesh shape and slice
// count.
type costModel struct {
	priceBasis
	mesh     topology.Torus
	slices   int // MeshSlice slice count S
	meshSize float64
}

func newCostModel(b priceBasis, t topology.Torus, sliceCount int) costModel {
	return costModel{priceBasis: b, mesh: t, slices: sliceCount, meshSize: float64(t.Size())}
}

// fcGeMM prices one m×n×k FC GeMM with slice count S in each of the three
// dataflows (fcDataflows) and returns the cheapest, mirroring the
// autotuner's per-GeMM dataflow choice.
//
// lint:hotpath priced per FC layer per scheduler step; must not allocate
func (cm *costModel) fcGeMM(m, k, n float64, S int) float64 {
	ts := cm.fcDataflows(m, k, n, S)
	return min(ts[0], ts[1], ts[2])
}

// fcDataflows prices one m×n×k FC GeMM with slice count S in each of the
// three dataflows — OS, LS, RS, indexed by gemm.Dataflow — on the
// direction-aware fabric. Each is composed like costmodel.Estimate:
// prologue, S−1 overlapped steady-state iterations, epilogue. It does not
// call Estimate.Total, which adds the epilogue's compute and tail before
// the prologue and steady state: that rounds differently, and serving
// reports are pinned to this order.
func (cm *costModel) fcDataflows(m, k, n float64, S int) (ts [3]float64) {
	its := cm.fab.Iterations(m, n, k, cm.mesh, S)
	fS := float64(S)
	for df := range its {
		it := &its[df]
		steady := it.Compute
		if it.Comm1 > steady {
			steady = it.Comm1
		}
		if it.Comm2 > steady {
			steady = it.Comm2
		}
		ts[df] = it.First + (fS-1)*steady + it.Compute + it.Tail
	}
	return ts
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

// maxDecodeKV bounds the KV lengths a decode-attention table covers: 2^15
// entries (256 KiB) reach seven times the longest request the default
// workload draws. A longer request's decode steps are priced directly, so
// no trace — and ValidateTrace admits lengths up to 2^31−1 — sizes the
// table.
const maxDecodeKV = 1 << 15

// Prices caches step prices across the Runs of one serving sweep. Decode
// attention depends only on the KV length for a given mesh size, and the
// FC stack only on the batched token count for a given mesh shape and slice
// count, so the sweep's candidates share one decode table per mesh size and
// one FC table per (shape, S) instead of each re-pricing them. Entries hold
// Float64bits of the price, 0 until some Run prices it; Runs fill them
// concurrently with atomic loads and stores, and since every price is a
// pure function of its entry, racing Runs store the same bits. A Run reads
// exactly the value it would have computed, so sharing moves no report bit.
type Prices struct {
	basis  priceBasis
	mu     sync.Mutex
	decode map[int][]atomic.Uint64
	fc     map[fcKey][]atomic.Uint64
}

// fcKey names one FC-stack table: the mesh shape and the defaulted slice
// count.
type fcKey struct {
	mesh   topology.Torus
	slices int
}

// NewPrices returns an empty price cache for Runs serving model m on chip
// in a cluster of clusterChips chips under the fault plan (nil: healthy) —
// the Config.Model, Chip, ClusterChips and Faults every Run given it must
// share.
func NewPrices(m model.Config, chip hw.Chip, clusterChips int, plan *fault.Plan) (*Prices, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := chip.Validate(); err != nil {
		return nil, err
	}
	if clusterChips <= 0 {
		return nil, fmt.Errorf("serve: price cache for a cluster of %d chips", clusterChips)
	}
	if err := plan.Validate(clusterChips); err != nil {
		return nil, err
	}
	return &Prices{
		basis:  newPriceBasis(m, newFabric(chip, clusterChips, plan)),
		decode: map[int][]atomic.Uint64{},
		fc:     map[fcKey][]atomic.Uint64{},
	}, nil
}

// tables returns cm's decode-attention table, covering KV lengths below
// decodeLen, and its FC-stack table, covering token counts below fcLen. A
// nil cache makes both private to the caller; a shared table shorter than
// asked is replaced by a longer copy, which Runs already holding the old
// one keep using.
func (p *Prices) tables(cm *costModel, decodeLen, fcLen int) (dec, fc []atomic.Uint64) {
	if p == nil {
		return make([]atomic.Uint64, decodeLen), make([]atomic.Uint64, fcLen)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return atLeast(p.decode, cm.mesh.Size(), decodeLen), atLeast(p.fc, fcKey{cm.mesh, cm.slices}, fcLen)
}

// atLeast returns m[k], first replacing it with a copy n entries long if it
// is shorter.
func atLeast[K comparable](m map[K][]atomic.Uint64, k K, n int) []atomic.Uint64 {
	t := m[k]
	if len(t) < n {
		grown := make([]atomic.Uint64, n)
		for i := range t {
			grown[i].Store(t[i].Load())
		}
		m[k], t = grown, grown
	}
	return t
}

// cached returns the price entry n of a table holds, and false when n is
// past the table or not priced yet.
//
// lint:hotpath once per decoding request per scheduler step
func cached(tab []atomic.Uint64, n int) (float64, bool) {
	if n < len(tab) {
		if b := tab[n].Load(); b != 0 {
			return math.Float64frombits(b), true
		}
	}
	return 0, false
}

// remember stores price p as entry n of a table that reaches that far, and
// returns it.
//
// lint:hotpath once per table entry per sweep
func remember(tab []atomic.Uint64, n int, p float64) float64 {
	if n < len(tab) {
		tab[n].Store(math.Float64bits(p))
	}
	return p
}
