package sched

import (
	"fmt"

	"meshslice/internal/gemm"
	"meshslice/internal/hw"
	"meshslice/internal/topology"
)

// 3D-cluster schedules (paper §7): the 2.5D GeMM algorithm on a P×P×c
// torus, and MeshSlice composed with data parallelism on a Pr×Pc×c torus.
// These run on the cluster simulator through the depth link resource, so
// the paper's traffic-only comparison extends to simulated execution time.

// TwoPointFiveDProgram builds the 2.5D GeMM schedule for C(M×N) = A(M×K)·
// B(K×N) on grid g: depth replication of both inputs, the skewing prologue,
// P/c systolic iterations whose shifts overlap the partial GeMMs, and the
// depth reduction of the partial outputs.
func TwoPointFiveDProgram(m, n, k int, g gemm.Grid3D, c hw.Chip) *Program {
	if err := gemm.TwoPointFiveDValidate(m, n, k, g); err != nil {
		panic(fmt.Sprintf("sched: %v", err))
	}
	p := g.P
	bpe := c.BytesPerElement
	aShard := float64(m/p) * float64(k/p)
	bShard := float64(k/p) * float64(n/p)
	cShard := float64(m/p) * float64(n/p)
	// Replicate, skew and shift pairs, one GeMM per iteration, the reduce;
	// each pair is one dependency window.
	iters := p / g.C
	b := newBuilder(5+3*iters, 3+2*iters)

	// Replicate the front layer's shards down the depth rings.
	var prevShifts []int
	if g.C > 1 {
		prevShifts = b.dep(
			b.add(Op{Kind: Shift, Name: "replicate A", Dir: topology.InterDepth,
				Bytes: aShard * bpe, Steps: g.C - 1}),
			b.add(Op{Kind: Shift, Name: "replicate B", Dir: topology.InterDepth,
				Bytes: bShard * bpe, Steps: g.C - 1}),
		)
	}
	// Skew within each layer (worst chip: ⌊P/2⌋ torus hops per direction).
	if p > 1 {
		prevShifts = b.dep(
			b.add(Op{Kind: Shift, Name: "skew A", Dir: topology.InterCol,
				Bytes: aShard * bpe, Steps: p / 2, Deps: follow(prevShifts, 0)}),
			b.add(Op{Kind: Shift, Name: "skew B", Dir: topology.InterRow,
				Bytes: bShard * bpe, Steps: p / 2, Deps: follow(prevShifts, 1)}),
		)
	}
	// The systolic loop over this layer's slice of K: total per-chip work
	// is 2·(M/P)·(N/P)·(K/c), spread over P/c iterations.
	flopsPerIter := 2 * cShard * float64(k) / float64(g.C) / float64(iters)
	var lastGeMM int
	for it := 0; it < iters; it++ {
		lastGeMM = b.addIndexed(Op{
			Kind: Compute, FLOPs: flopsPerIter,
			M: m / p, N: n / p, K: k / p,
			HBMBytes: gemmHBM(aShard, bShard, cShard, c),
			Deps:     prevShifts,
		}, gemmT, it)
		if it < iters-1 {
			prevShifts = b.dep(
				b.addIndexed(Op{Kind: Shift, Dir: topology.InterCol, Bytes: aShard * bpe, Steps: 1,
					Deps: follow(prevShifts, 0)}, shiftAT, it),
				b.addIndexed(Op{Kind: Shift, Dir: topology.InterRow, Bytes: bShard * bpe, Steps: 1,
					Deps: follow(prevShifts, 1)}, shiftBT, it),
			)
		}
	}
	// Reduce the c partial outputs back to the front layer.
	if g.C > 1 {
		b.add(Op{Kind: Shift, Name: "reduce C", Dir: topology.InterDepth,
			Bytes: cShard * bpe, Steps: g.C - 1, Deps: b.dep(lastGeMM)})
	}
	grid := topology.NewTorus3D(p, p, g.C)
	return &Program{
		Torus: grid.Layer(),
		Grid3: &grid,
		Ops:   b.ops,
		Label: fmt.Sprintf("2.5D %dx%dx%d", p, p, g.C),
	}
}

// MeshSliceDPProgram builds MeshSlice+DP on a Pr×Pc×c torus: every layer
// runs the MeshSlice schedule on its 1/c slice of the batch, and the
// weight-gradient AllReduce rides the depth rings (ReduceScatter +
// AllGather halves), overlapping the trailing compute where dependencies
// allow. p describes the FULL problem; the per-replica batch is p.M / c.
func MeshSliceDPProgram(p gemm.Problem, t topology.Torus, depth int, c hw.Chip, S int) *Program {
	if depth <= 0 || p.M%depth != 0 {
		panic(fmt.Sprintf("sched: MeshSliceDP depth %d must divide M=%d", depth, p.M))
	}
	local := p
	local.M = p.M / depth
	b := meshSliceOps(local, t, c, S)
	if depth > 1 {
		// Gradient AllReduce of the weight shard across the DP replicas.
		wShard := float64(p.K) / float64(t.Rows) * float64(p.N) / float64(t.Cols) * c.BytesPerElement
		rs := b.add(Op{
			Kind: ReduceScatter, Name: "DP grad RdS", Dir: topology.InterDepth,
			Bytes: wShard / float64(depth), Steps: depth - 1, Deps: b.dep(len(b.ops) - 1),
		})
		b.add(Op{
			Kind: AllGather, Name: "DP grad AG", Dir: topology.InterDepth,
			Bytes: wShard / float64(depth), Steps: depth - 1, Deps: b.dep(rs),
		})
	}
	grid := topology.NewTorus3D(t.Rows, t.Cols, depth)
	return &Program{
		Torus: t,
		Grid3: &grid,
		Ops:   b.ops,
		Label: fmt.Sprintf("MeshSlice+DP %dx%dx%d S=%d", t.Rows, t.Cols, depth, S),
	}
}
