package gemm

import (
	"fmt"

	"meshslice/internal/collective"
	"meshslice/internal/mesh"
	"meshslice/internal/obs/recorder"
	"meshslice/internal/tensor"
	"meshslice/internal/topology"
)

// This file implements Wang et al.'s algorithm (paper §2.3.4, [34]): the
// collective communication in ONE direction is decomposed into multiple
// SendRecv operations that overlap with partial GeMMs, while the collective
// in the other direction remains monolithic and non-overlapped. Decomposing
// both directions would require Cannon (and its square-mesh limitation),
// which is exactly the gap MeshSlice closes.
//
// One loop (circulate) walks the ring for all three dataflows and both
// prefetch depths; the dataflows differ only in which shard circulates, on
// which ring, and what one step computes. Every buffer a run uses besides
// its output shard (the gathered B, the partial product C', the landing
// buffers and the copy a panel travels in) is drawn from the chip's scratch
// arena (mesh.Chip.Scratch), so a warm mesh allocates none of them again.

// WangValidate reports whether Wang's algorithm can run the problem on the
// torus.
func WangValidate(p Problem, t topology.Torus) error {
	switch p.Dataflow {
	case OS:
		if !divisible(p.K, t.Cols) || !divisible(p.K, t.Rows) {
			return fmt.Errorf("gemm: Wang OS needs K=%d divisible by both mesh dims of %v", p.K, t)
		}
	case LS:
		if !divisible(p.N, t.Rows) || !divisible(p.N, t.Cols) {
			return fmt.Errorf("gemm: Wang LS needs N=%d divisible by both mesh dims of %v", p.N, t)
		}
	case RS:
		if !divisible(p.M, t.Cols) || !divisible(p.M, t.Rows) {
			return fmt.Errorf("gemm: Wang RS needs M=%d divisible by both mesh dims of %v", p.M, t)
		}
	default:
		return fmt.Errorf("gemm: unknown dataflow %d", int(p.Dataflow))
	}
	return nil
}

// WangDataflow returns Wang's algorithm for any dataflow at prefetch depth
// 0: the flowing input's AllGather is decomposed into SendRecv shifts (one
// partial GeMM per arriving shard), each completed inline after the step's
// MatMul; for LS/RS the trailing output ReduceScatter stays monolithic,
// mirroring the timing schedule in package sched. Under OS, B is
// all-gathered down the columns in a single collective and A circulates
// around each row via Pc SendRecv steps.
func WangDataflow(df Dataflow) ChipFunc { return wang(df, false) }

// WangPipelined is the same schedule at prefetch depth 1: the shift of shard
// t+1 is issued on the background comm lane before the partial GeMM on shard
// t and waited after it. Results are bit-identical to WangDataflow.
func WangPipelined(df Dataflow) ChipFunc { return wang(df, true) }

func wang(df Dataflow, pipelined bool) ChipFunc {
	switch df {
	case OS:
		return func(c *mesh.Chip, aij, bij *tensor.Matrix) *tensor.Matrix {
			row, col := c.RowComm(), c.ColComm()
			bFull := c.Scratch(col.Size*bij.Rows, bij.Cols) // non-overlapped direction: K × N/Pc
			collective.AllGatherRowsInto(col, bij, bFull)
			cij := tensor.New(aij.Rows, bij.Cols)
			// Shard src multiplies B's rows [src·K/Pc, (src+1)·K/Pc): whole
			// rows of bFull, so one contiguous run, read through a view.
			n := aij.Cols * bFull.Cols
			panel := tensor.FromSlice(aij.Cols, bFull.Cols, bFull.Data[:n])
			circulate(c, row, pipelined, aij, func(src int, a *tensor.Matrix) {
				panel.Data = bFull.Data[src*n : (src+1)*n]
				tensor.MatMulAdd(cij, a, panel)
			})
			return cij
		}
	case LS:
		// B's shards stream down the column; each fills the matching column
		// block of the partial product, and the RdS along the row trails.
		// The block is a column block, so each product lands in one reused
		// buffer first (Zero + MatMulAddNT ≡ MatMulNT bitwise). The ring
		// visits every source, so the steps overwrite all of cPrime.
		return func(c *mesh.Chip, aij, bij *tensor.Matrix) *tensor.Matrix {
			row, col := c.RowComm(), c.ColComm()
			cPrime := c.Scratch(aij.Rows, bij.Rows*col.Size)
			prod := c.Scratch(aij.Rows, bij.Rows) // M/Pr × N/Pr, partial over K/Pc
			circulate(c, col, pipelined, bij, func(src int, b *tensor.Matrix) {
				prod.Zero()
				tensor.MatMulAddNT(prod, aij, b)
				cPrime.SetSubMatrix(0, src*bij.Rows, prod)
			})
			return collective.ReduceScatterCols(row, cPrime)
		}
	case RS:
		// A's shards stream along the row; the RdS down the column trails.
		// Each product is a block of whole rows of cPrime, zeroed first, so
		// it accumulates straight into a view of it (0 + x == x: bitwise
		// MatMulTN + SetSubMatrix).
		return func(c *mesh.Chip, aij, bij *tensor.Matrix) *tensor.Matrix {
			row, col := c.RowComm(), c.ColComm()
			cPrime := c.Scratch(aij.Cols*row.Size, bij.Cols)
			cPrime.Zero()
			n := aij.Cols * bij.Cols
			block := tensor.FromSlice(aij.Cols, bij.Cols, cPrime.Data[:n]) // M/Pc × N/Pc, partial over K/Pr
			circulate(c, row, pipelined, aij, func(src int, a *tensor.Matrix) {
				block.Data = cPrime.Data[src*n : (src+1)*n]
				tensor.MatMulAddTN(block, a, bij)
			})
			return collective.ReduceScatterRows(col, cPrime)
		}
	default:
		panic(fmt.Sprintf("gemm: unknown dataflow %d", int(df))) // lint:invariant exhaustive switch guard
	}
}

// circulate is Wang's decomposed direction: the chip's shard travels once
// around ring cm, and step t calls compute (inside a kernel span) with the
// shard now held and the ring position src it originated from. At depth 0
// the next shard is pulled from the right after the step's compute: step 0
// sends a scratch copy (the shard is the caller's), and every step forwards
// what it holds with an ownership-transfer send, which records the same
// events as a cloning one. At depth 1 the shift is already in flight
// underneath the compute, landing in two alternating scratch buffers —
// StartShiftInto sends a copy, so the chip may keep reading the current
// shard while it moves.
func circulate(c *mesh.Chip, cm *mesh.Comm, pipelined bool, shard *tensor.Matrix, compute func(src int, cur *tensor.Matrix)) {
	step := func(t int, cur *tensor.Matrix) {
		c.SpanStart(recorder.OpCompute, t)
		compute((cm.Pos+t)%cm.Size, cur)
		c.SpanEnd(recorder.OpCompute)
	}
	var bufs [2]*tensor.Matrix // depth-1 landing buffers, alternating per step
	if pipelined && cm.Size > 1 {
		bufs[0], bufs[1] = c.Scratch(shard.Rows, shard.Cols), c.Scratch(shard.Rows, shard.Cols)
	}
	cur := shard
	for t := 0; t < cm.Size-1; t++ {
		if pipelined {
			h := collective.StartShiftInto(cm, -1, cur, bufs[t%2])
			step(t, cur)
			h.Wait()
			cur = bufs[t%2]
		} else {
			step(t, cur)
			if t == 0 {
				cur = c.Scratch(shard.Rows, shard.Cols)
				cur.CopyFrom(shard)
			}
			cm.SendOwnedTo(cm.Pos-1, cur)
			cur = cm.RecvFrom(cm.Pos + 1)
		}
	}
	step(cm.Size-1, cur) // final shard: nothing left to circulate
}
