// Package costmodel implements the MeshSlice LLM autotuner's analytical
// cost models (paper §3.2.2): a linear communication model
//
//	cost_op = t_launch + (P-1) × (t_sync + sizeof(shard)/bw)
//
// calibrated from the hardware description, a compute model dividing FLOPs
// by effective throughput, and the prologue / steady-state / epilogue
// composition that estimates a MeshSlice GeMM's execution time. It also
// provides the traffic-cost formulas of §2.3.1 and the 2.5D-vs-MeshSlice+DP
// traffic comparison of §7.
package costmodel

import (
	"fmt"
	"sort"

	"meshslice/internal/gemm"
	"meshslice/internal/hw"
	"meshslice/internal/topology"
)

// RingCollective returns the modelled execution time of an AllGather or
// ReduceScatter over a ring of ringSize chips where each of the ringSize-1
// steps transfers shardBytes per link.
func RingCollective(c hw.Chip, ringSize int, shardBytes float64) float64 {
	if ringSize <= 1 {
		return 0
	}
	return c.LaunchOverhead + float64(ringSize-1)*(c.SyncLatency+shardBytes/c.LinkBandwidth)
}

// RingCollectiveBidir returns the modelled execution time of an AllGather
// or ReduceScatter that drives both directions of the ring's bi-directional
// links (collective.AllGatherBidir): two counter-rotating streams cover the
// ring in ⌈(P-1)/2⌉ synchronised steps at the same per-link bandwidth.
// Current Google Cloud TPU slices only drive one direction (paper §5.3.1),
// which is why the mainline model uses RingCollective; this variant
// quantifies the headroom.
// lint:allow unused ROADMAP item 2 decides whether the bidirectional ring model stays
func RingCollectiveBidir(c hw.Chip, ringSize int, shardBytes float64) float64 {
	if ringSize <= 1 {
		return 0
	}
	steps := ringSize / 2 // ⌈(P-1)/2⌉
	return c.LaunchOverhead + float64(steps)*(c.SyncLatency+shardBytes/c.LinkBandwidth)
}

// Estimate is the cost model's decomposition of one distributed GeMM.
type Estimate struct {
	// Prologue is the non-overlapped head (the first iteration's
	// communications).
	Prologue float64
	// SteadyState is the per-iteration time of the software pipeline.
	SteadyState float64
	// Iterations is the number of steady-state iterations (S-1).
	Iterations int
	// Epilogue is the non-overlapped tail (the last iteration's
	// operations after its communications).
	Epilogue float64
	// CommTime is the total communication time (overlapped plus exposed),
	// the quantity validated against measurements in Fig. 15.
	CommTime float64
	// ComputeTime is the total local GeMM time.
	ComputeTime float64
}

// Total returns prologue + iterations·steady-state + epilogue.
func (e Estimate) Total() float64 {
	return e.Prologue + float64(e.Iterations)*e.SteadyState + e.Epilogue
}

// Fabric is the cost model's view of a 2D mesh whose two ring directions
// may be calibrated differently: collectives over a ring of Rows ride
// InterRow (vertical) links and use Row's link calibration, collectives over
// a ring of Cols ride InterCol (horizontal) links and use Col's, and the
// local GeMMs use Compute's throughput, HBM bandwidth and element size.
// Serving fills it from a fault plan, so a sick column direction slows only
// the collectives whose rings cross it; training prices on Uniform.
type Fabric struct {
	Row, Col, Compute hw.Chip
}

// Uniform returns the fabric of a healthy mesh of identical chips c.
func Uniform(c hw.Chip) Fabric {
	return Fabric{Row: c, Col: c, Compute: c}
}

// Iteration is one MeshSlice iteration's cost in one dataflow (§3.2.2).
type Iteration struct {
	// Comm1 and Comm2 are the iteration's two partial collectives, Compute
	// its roofline local GeMM.
	Comm1, Comm2, Compute float64
	// First is the non-overlapped head of the pipeline (the first
	// iteration's communication); Tail is what the last iteration still
	// runs after its compute (the last reduction of LS and RS, zero for OS).
	First, Tail float64
}

// Iterations prices one iteration of an m×n×k GeMM with slice count S on
// torus t in every dataflow at once, indexed by gemm.Dataflow. Per-iteration
// compute uses the roofline: FLOPs at effective throughput against operand
// streaming at HBM bandwidth. Training GeMMs are compute-bound so this
// matches the paper's pure-FLOPs model; inference-decode GeMMs become
// memory-bound (§6).
//
// The result is named so the terms are written in place: a local array
// copied out on return made serving's fcStack ~6 % slower.
//
// lint:hotpath serving prices every FC layer with it per scheduler step
func (f *Fabric) Iterations(m, n, k float64, t topology.Torus, S int) (it [3]Iteration) {
	if S <= 0 {
		panic(fmt.Sprintf("costmodel: S=%d", S)) // lint:invariant slice-count precondition
	}
	fS := float64(S)
	bpe := f.Compute.BytesPerElement
	pr, pc := float64(t.Rows), float64(t.Cols)

	// OS: C stationary; A slices gather over columns, B slices over rows.
	os := &it[gemm.OS]
	os.Comm1 = RingCollective(f.Col, t.Cols, m/pr*k/pc/fS*bpe) // AG_col A_s
	os.Comm2 = RingCollective(f.Row, t.Rows, k/pr*n/pc/fS*bpe) // AG_row B_s
	hbm := (m/pr*k/fS + k/fS*n/pc + 2*m/pr*n/pc) * bpe
	os.Compute = f.Compute.RooflineTime(2*m/pr*n/pc*k/fS, hbm)
	os.First = maxf(os.Comm1, os.Comm2)

	// LS: A stationary; B slices gather over rows, C slices reduce over
	// columns.
	ls := &it[gemm.LS]
	ls.Comm1 = RingCollective(f.Row, t.Rows, n/pr*k/pc/fS*bpe)   // AG_row B_s
	ls.Comm2 = RingCollective(f.Col, t.Cols, m/pr*(n/fS)/pc*bpe) // RdS_col C_s
	hbm = (m/pr*k/pc + (n/fS)*k/pc + 2*m/pr*(n/fS)) * bpe
	ls.Compute = f.Compute.RooflineTime(2*m/pr*(n/fS)*k/pc, hbm)
	ls.First, ls.Tail = ls.Comm1, ls.Comm2

	// RS: B stationary; A slices gather over columns, C slices reduce over
	// rows.
	rs := &it[gemm.RS]
	rs.Comm1 = RingCollective(f.Col, t.Cols, k/pr*m/pc/fS*bpe)   // AG_col A_s
	rs.Comm2 = RingCollective(f.Row, t.Rows, (m/fS)/pr*n/pc*bpe) // RdS_row C_s
	hbm = (k/pr*(m/fS) + k/pr*n/pc + 2*(m/fS)*n/pc) * bpe
	rs.Compute = f.Compute.RooflineTime(2*(m/fS)*n/pc*k/pr, hbm)
	rs.First, rs.Tail = rs.Comm1, rs.Comm2
	return it
}

// MeshSlice estimates the execution time of the MeshSlice algorithm for
// problem p on torus t with slice count S (paper §3.2.2): the prologue is
// the longest first-iteration communication, the steady state is the
// longest of the per-iteration operations (communications in the two
// directions run in parallel with the computation), and the epilogue is
// the remainder of the last iteration.
func MeshSlice(p gemm.Problem, t topology.Torus, c hw.Chip, S int) Estimate {
	if p.Dataflow < gemm.OS || p.Dataflow > gemm.RS {
		panic(fmt.Sprintf("costmodel: unknown dataflow %d", int(p.Dataflow))) // lint:invariant exhaustive dataflow guard
	}
	f := Uniform(c)
	it := f.Iterations(float64(p.M), float64(p.N), float64(p.K), t, S)[p.Dataflow]
	fS := float64(S)
	return Estimate{
		Prologue:    it.First,
		SteadyState: maxf(maxf(it.Comm1, it.Comm2), it.Compute),
		Iterations:  S - 1,
		Epilogue:    it.Compute + it.Tail,
		CommTime:    fS * (it.Comm1 + it.Comm2),
		ComputeTime: fS * it.Compute,
	}
}

// TrafficCost returns the §2.3.1 shard-transfer time for a mesh where the
// matrices flowing inter-row and inter-column have the given global byte
// sizes: the maximum of
//
//	(Pr-1)·size(Mr)/(Pr·Pc)/BW_row  and  (Pc-1)·size(Mc)/(Pr·Pc)/BW_col.
//
// lint:allow unused ROADMAP item 2's link model decides whether §2.3.1's per-direction formula joins PerChipTraffic2D
func TrafficCost(t topology.Torus, rowBytes, colBytes, bwRow, bwCol float64) float64 {
	chips := float64(t.Size())
	vert := float64(t.Rows-1) * rowBytes / chips / bwRow
	horz := float64(t.Cols-1) * colBytes / chips / bwCol
	return maxf(vert, horz)
}

// PerChipTraffic2D returns the per-chip communication bytes of a 2D GeMM
// on torus t where the inter-row-flowing matrix has rowBytes total and the
// inter-column-flowing matrix colBytes total.
func PerChipTraffic2D(t topology.Torus, rowBytes, colBytes float64) float64 {
	chips := float64(t.Size())
	return float64(t.Rows-1)*rowBytes/chips + float64(t.Cols-1)*colBytes/chips
}

// PerChipTraffic25D returns the per-chip communication bytes of the 2.5D
// GeMM algorithm [28] computing an M×K by K×N product on a P×P×c torus:
// each of the c layers performs P/c systolic shift steps moving both input
// shards (the dominant term; skewing and the final inter-layer reduction
// add to it, so this is a lower bound favouring 2.5D).
func PerChipTraffic25D(m, n, k int64, p, c int, bytesPerElem float64) float64 {
	if p <= 0 || c <= 0 || p%c != 0 {
		panic(fmt.Sprintf("costmodel: invalid 2.5D shape P=%d c=%d", p, c))
	}
	aShard := float64(m) / float64(p) * float64(k) / float64(p) * bytesPerElem
	bShard := float64(k) / float64(p) * float64(n) / float64(p) * bytesPerElem
	return float64(p/c) * (aShard + bShard)
}

// PerChipTrafficMeshSliceDP returns the per-chip communication bytes of
// MeshSlice+DP on a Pr×Pc×c torus computing the same product: the 2D GeMM
// traffic of the best dataflow (the largest matrix stationary) plus the
// ring AllReduce of the weight gradient across the DP dimension.
func PerChipTrafficMeshSliceDP(m, n, k int64, t topology.Torus, c int, bytesPerElem float64) float64 {
	if c <= 0 {
		panic(fmt.Sprintf("costmodel: invalid DP degree %d", c))
	}
	// Per-DP-replica batch dimension.
	mLocal := float64(m) / float64(c)
	x := mLocal * float64(k) * bytesPerElem     // input
	w := float64(k) * float64(n) * bytesPerElem // weight
	y := mLocal * float64(n) * bytesPerElem     // output
	// Largest matrix stationary; the two smallest flow, with the smaller
	// one on the longer ring (traffic pairs size with ring length - 1, so
	// the product is minimised by sorting them opposite ways).
	sizes := []float64{x, w, y}
	sort.Float64s(sizes)
	small, large := sizes[0], sizes[1]
	longDim, shortDim := t.Rows, t.Cols
	if longDim < shortDim {
		longDim, shortDim = shortDim, longDim
	}
	gemmTraffic := PerChipTraffic2D(topology.Torus{Rows: longDim, Cols: shortDim}, small, large)
	// DP gradient ring AllReduce: 2·(c-1)/c of the per-chip weight shard.
	wShard := w / float64(t.Size())
	dpTraffic := 2 * float64(c-1) / float64(c) * wShard
	return gemmTraffic + dpTraffic
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
