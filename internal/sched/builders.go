package sched

import (
	"fmt"

	"meshslice/internal/gemm"
	"meshslice/internal/hw"
	"meshslice/internal/topology"
)

// shardDims returns the per-chip shard dimensions of the three matrices for
// a problem on a torus, as (aR, aC, bR, bC, cR, cC).
func shardDims(p gemm.Problem, t topology.Torus) (aR, aC, bR, bC, cR, cC int) {
	gaR, gaC, gbR, gbC := p.OperandShapes()
	return gaR / t.Rows, gaC / t.Cols, gbR / t.Rows, gbC / t.Cols, p.M / t.Rows, p.N / t.Cols
}

// gemmHBM estimates the HBM traffic of a local GeMM: read both operands,
// read-modify-write the output.
func gemmHBM(aElems, bElems, cElems float64, c hw.Chip) float64 {
	return (aElems + bElems + 2*cElems) * c.BytesPerElement
}

// MeshSliceProgram builds the SPMD program of the MeshSlice algorithm
// (paper Fig. 5) for the given problem, mesh, and slice count S. With S=1
// it degenerates to the Collective 2D GeMM schedule plus slicing no-ops,
// so callers wanting Collective should use CollectiveProgram instead.
func MeshSliceProgram(p gemm.Problem, t topology.Torus, c hw.Chip, S int) *Program {
	b := meshSliceOps(p, t, c, S)
	return &Program{Torus: t, Ops: b.ops, Label: fmt.Sprintf("MeshSlice-%v S=%d", p.Dataflow, S)}
}

// meshSliceOps builds MeshSlice's ops with room for MeshSliceDP's two more.
func meshSliceOps(p gemm.Problem, t topology.Torus, c hw.Chip, S int) builder {
	if S <= 0 {
		panic(fmt.Sprintf("sched: MeshSlice S=%d", S)) // lint:invariant slice-count precondition
	}
	aR, aC, bR, bC, cR, cC := shardDims(p, t)
	bpe := c.BytesPerElement
	// At most five ops and four dependencies per slice (two slice copies,
	// two collectives and the partial GeMM), plus the two gradient ops.
	b := newBuilder(5*S+2, 4*S+2)
	fS := float64(S)

	for s := 0; s < S; s++ {
		switch p.Dataflow {
		case gemm.OS:
			aSub := float64(aR*aC) / fS
			bSub := float64(bR*bC) / fS
			deps := make([]int, 0, 2) // on the stack: b.dep copies it
			if t.Cols > 1 {
				deps = append(deps, b.addIndexed(Op{
					Kind: AllGather, Dir: topology.InterCol, Bytes: aSub * bpe, Steps: t.Cols - 1,
					Deps: sliceDep(&b, S, s, aSub, bpe, sliceAs),
				}, agColA, s))
			}
			if t.Rows > 1 {
				deps = append(deps, b.addIndexed(Op{
					Kind: AllGather, Dir: topology.InterRow, Bytes: bSub * bpe, Steps: t.Rows - 1,
					Deps: sliceDep(&b, S, s, bSub, bpe, sliceBs),
				}, agRowB, s))
			}
			b.addIndexed(Op{
				Kind: Compute, FLOPs: 2 * float64(cR) * float64(cC) * float64(p.K) / fS,
				M: cR, N: cC, K: p.K / S,
				HBMBytes: gemmHBM(aSub*float64(t.Cols), bSub*float64(t.Rows),
					float64(cR*cC), c),
				Deps: b.dep(deps...),
			}, gemmS, s)

		case gemm.LS:
			bSub := float64(bR*bC) / fS
			var gemmDeps []int
			if t.Rows > 1 {
				gemmDeps = b.dep(b.addIndexed(Op{
					Kind: AllGather, Dir: topology.InterRow, Bytes: bSub * bpe, Steps: t.Rows - 1,
					Deps: sliceDep(&b, S, s, bSub, bpe, sliceBs),
				}, agRowB, s))
			}
			nSlice := float64(p.N) / fS // columns of the partial product C'
			g := b.addIndexed(Op{
				Kind: Compute, FLOPs: 2 * float64(aR) * nSlice * float64(aC),
				M: aR, N: p.N / S, K: aC,
				HBMBytes: gemmHBM(float64(aR*aC), bSub*float64(t.Rows), float64(aR)*nSlice, c),
				Deps:     gemmDeps,
			}, gemmS, s)
			if t.Cols > 1 {
				rds := b.addIndexed(Op{
					Kind: ReduceScatter, Dir: topology.InterCol,
					Bytes: float64(aR) * nSlice / float64(t.Cols) * bpe,
					Steps: t.Cols - 1, Deps: b.dep(g),
				}, rdsColC, s)
				if S > 1 {
					sub := float64(cR*cC) / fS
					b.addIndexed(Op{Kind: Slice, HBMBytes: 2 * sub * bpe, Deps: b.dep(rds)}, unsliceC, s)
				}
			}

		case gemm.RS:
			aSub := float64(aR*aC) / fS
			var gemmDeps []int
			if t.Cols > 1 {
				gemmDeps = b.dep(b.addIndexed(Op{
					Kind: AllGather, Dir: topology.InterCol, Bytes: aSub * bpe, Steps: t.Cols - 1,
					Deps: sliceDep(&b, S, s, aSub, bpe, sliceAs),
				}, agColA, s))
			}
			mSlice := float64(p.M) / fS // rows of the partial product C'
			g := b.addIndexed(Op{
				Kind: Compute, FLOPs: 2 * mSlice * float64(bC) * float64(bR),
				M: p.M / S, N: bC, K: bR,
				HBMBytes: gemmHBM(aSub*float64(t.Cols), float64(bR*bC), mSlice*float64(bC), c),
				Deps:     gemmDeps,
			}, gemmS, s)
			if t.Rows > 1 {
				rds := b.addIndexed(Op{
					Kind: ReduceScatter, Dir: topology.InterRow,
					Bytes: mSlice / float64(t.Rows) * float64(bC) * bpe,
					Steps: t.Rows - 1, Deps: b.dep(g),
				}, rdsRowC, s)
				if S > 1 {
					sub := float64(cR*cC) / fS
					b.addIndexed(Op{Kind: Slice, HBMBytes: 2 * sub * bpe, Deps: b.dep(rds)}, unsliceC, s)
				}
			}

		default:
			panic(fmt.Sprintf("sched: unknown dataflow %d", int(p.Dataflow))) // lint:invariant exhaustive switch guard
		}
	}
	return b
}

// sliceDep emits the slicing op for a sub-shard when S>1 and returns the
// dependency list for the consumer (empty when no slicing is needed).
func sliceDep(b *builder, S, s int, subElems, bpe float64, f nameFamily) []int {
	if S <= 1 {
		return nil
	}
	return b.dep(b.addIndexed(Op{Kind: Slice, HBMBytes: 2 * subElems * bpe}, f, s))
}

// CollectiveProgram builds the Collective 2D GeMM schedule (paper Fig. 2b):
// monolithic collectives with hard dependencies to and from a single local
// GeMM — the structure that prevents any overlap.
func CollectiveProgram(p gemm.Problem, t topology.Torus, c hw.Chip) *Program {
	b := meshSliceOps(p, t, c, 1)
	return &Program{Torus: t, Ops: b.ops, Label: fmt.Sprintf("Collective-%v", p.Dataflow)}
}

// SUMMAProgram builds SUMMA's schedule (paper Fig. 2a): iters loop
// iterations, each broadcasting panels with fine-grain pipelined
// bcast/reduce operations. iters defaults to lcm(Pr, Pc) when zero
// (gemm.SUMMAPanels); the paper's evaluation unrolls SUMMA to MeshSlice's
// slice count (§4.2), which corresponds to passing that count here.
func SUMMAProgram(p gemm.Problem, t topology.Torus, c hw.Chip, iters int) *Program {
	if iters <= 0 {
		iters = gemm.SUMMAPanels(t, 0)
	}
	aR, aC, bR, bC, cR, cC := shardDims(p, t)
	bpe := c.BytesPerElement
	d := c.BcastPackets
	// Two pipelined transfers and the partial GeMM, two dependencies.
	b := newBuilder(3*iters, 2*iters)
	fI := float64(iters)

	for it := 0; it < iters; it++ {
		switch p.Dataflow {
		case gemm.OS:
			deps := make([]int, 0, 2) // on the stack: b.dep copies it
			if t.Cols > 1 {
				deps = append(deps, b.addIndexed(Op{
					Kind: Broadcast, Dir: topology.InterCol,
					Bytes: float64(aR) * float64(p.K) / fI * bpe,
					Steps: t.Cols + d - 2, Packets: d,
				}, bcastColA, it))
			}
			if t.Rows > 1 {
				deps = append(deps, b.addIndexed(Op{
					Kind: Broadcast, Dir: topology.InterRow,
					Bytes: float64(p.K) / fI * float64(bC) * bpe,
					Steps: t.Rows + d - 2, Packets: d,
				}, bcastRowB, it))
			}
			b.addIndexed(Op{
				Kind: Compute, FLOPs: 2 * float64(cR) * float64(cC) * float64(p.K) / fI,
				M: cR, N: cC, K: p.K / iters,
				HBMBytes: gemmHBM(float64(aR)*float64(p.K)/fI,
					float64(p.K)/fI*float64(bC), float64(cR*cC), c),
				Deps: b.dep(deps...),
			}, gemmP, it)

		case gemm.LS:
			var gemmDeps []int
			if t.Rows > 1 {
				gemmDeps = b.dep(b.addIndexed(Op{
					Kind: Broadcast, Dir: topology.InterRow,
					Bytes: float64(p.N) / fI * float64(bC) * bpe,
					Steps: t.Rows + d - 2, Packets: d,
				}, bcastRowB, it))
			}
			g := b.addIndexed(Op{
				Kind: Compute, FLOPs: 2 * float64(aR) * float64(p.N) / fI * float64(aC),
				M: aR, N: p.N / iters, K: aC,
				HBMBytes: gemmHBM(float64(aR*aC), float64(p.N)/fI*float64(bC),
					float64(aR)*float64(p.N)/fI, c),
				Deps: gemmDeps,
			}, gemmP, it)
			if t.Cols > 1 {
				b.addIndexed(Op{
					Kind: Reduce, Dir: topology.InterCol,
					Bytes: float64(aR) * float64(p.N) / fI * bpe,
					Steps: t.Cols + d - 2, Packets: d, Deps: b.dep(g),
				}, reduceColC, it)
			}

		case gemm.RS:
			var gemmDeps []int
			if t.Cols > 1 {
				gemmDeps = b.dep(b.addIndexed(Op{
					Kind: Broadcast, Dir: topology.InterCol,
					Bytes: float64(bR) * float64(p.M) / fI * bpe,
					Steps: t.Cols + d - 2, Packets: d,
				}, bcastColA, it))
			}
			g := b.addIndexed(Op{
				Kind: Compute, FLOPs: 2 * float64(p.M) / fI * float64(bC) * float64(bR),
				M: p.M / iters, N: bC, K: bR,
				HBMBytes: gemmHBM(float64(bR)*float64(p.M)/fI, float64(bR*bC),
					float64(p.M)/fI*float64(bC), c),
				Deps: gemmDeps,
			}, gemmP, it)
			if t.Rows > 1 {
				b.addIndexed(Op{
					Kind: Reduce, Dir: topology.InterRow,
					Bytes: float64(p.M) / fI * float64(bC) * bpe,
					Steps: t.Rows + d - 2, Packets: d, Deps: b.dep(g),
				}, reduceRowC, it)
			}

		default:
			panic(fmt.Sprintf("sched: unknown dataflow %d", int(p.Dataflow))) // lint:invariant exhaustive switch guard
		}
	}
	return &Program{Torus: t, Ops: b.ops, Label: fmt.Sprintf("SUMMA-%v P=%d", p.Dataflow, iters)}
}
