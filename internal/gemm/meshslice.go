package gemm

import (
	"fmt"

	"meshslice/internal/collective"
	"meshslice/internal/mesh"
	"meshslice/internal/obs/recorder"
	"meshslice/internal/tensor"
	"meshslice/internal/topology"
)

// This file implements the MeshSlice 2D GeMM algorithm (paper §3.1,
// Fig. 5–6): the collective AG/RdS operations are partitioned into S partial
// collectives over sliced sub-shards, so that the communication of one slice
// can overlap the computation of another.
//
// Each dataflow has ONE schedule function serving both prefetch depths. The
// buffers, the slicing, the kernel span and the accumulation order are
// written once; MeshSliceConfig.Pipelined only decides how slice s's partial
// collectives are issued:
//
//   - depth 0: each runs to completion on the chip goroutine through the
//     synchronous arena forms (collective.*Into) into one reused buffer per
//     stream, immediately before the MatMul that consumes it;
//   - depth 1: slice s+1's AllGather is issued on the background comm lanes
//     (collective.Start*Into) before the MatMul of slice s runs, and slice
//     s−1's ReduceScatter drains underneath it.
//
// Every MatMul runs on the chip's own goroutine in ascending slice order and
// the async collectives execute the exact ring loops of the synchronous
// forms, so the two depths are bit-identical: depth changes WHEN messages
// move, never what they contain (oracle_test.go replays the accumulation
// order without a mesh and pins both).
//
// Depth-1 double-buffer protocol (two buffers per stream): buffer k%2 is
// written by the op issued at slice k and read by the compute (or unslice) of
// slice k, which happens before slice k+2 re-issues into it — Wait(k) is
// ordered before Issue(k+2) on the chip goroutine, so the worker never
// writes a buffer the chip still reads. The sliced operand each op sends is
// a stream too: slice k is cut into source buffer k%2, read only by the op
// issued at slice k (a ring collective reads its local input before its
// first send), and that op is Waited before slice k+2 re-slices into the
// buffer. At depth 0 every op completes before the next slice is cut, so
// one source buffer serves every slice. Compute spans (recorder.OpCompute)
// bracket each MatMul so the flight recorder can attribute overlap: an async
// op whose issue→wait window contains a compute span start ran underneath
// compute. The depth-1 loops peel the final slice into an epilogue so that
// every Start has an unconditional matching Wait — the shape meshlint's
// buf-ownership rule can prove handle-leak-free (see the bufown fixtures).
//
// Following the paper's subscript convention (Fig. 2 caption): AG_col and
// RdS_col are inter-column communications within the same mesh row (the
// RowComm ring); AG_row and RdS_row are inter-row communications within
// the same mesh column (the ColComm ring).

// MeshSliceConfig parameterises the MeshSlice algorithm.
type MeshSliceConfig struct {
	// S is the slice count: how many partial collectives each collective
	// is partitioned into. S=1 degenerates to Collective 2D GeMM.
	S int
	// Block is the architecture block size B of the blocked slicing
	// algorithm (paper Algorithm 2); 8 on TPUs. Use 1 for the strided
	// slicing of the mathematical description (§3.1.1).
	Block int
	// Pipelined selects prefetch depth 1 of the one schedule: partial
	// collectives run on background comm lanes underneath the MatMuls.
	// False is depth 0, the same schedule with every collective completed
	// inline. Results are bit-identical at both depths.
	Pipelined bool
}

// Validate reports whether cfg can run the given problem on the torus:
// the sliced dimensions must divide by S·Block on every chip.
func (cfg MeshSliceConfig) Validate(p Problem, t topology.Torus) error {
	if cfg.S <= 0 || cfg.Block <= 0 {
		return fmt.Errorf("gemm: MeshSlice S=%d Block=%d must be positive", cfg.S, cfg.Block)
	}
	if err := checkDataflow(p.Dataflow); err != nil {
		return err
	}
	sb := cfg.S * cfg.Block
	d1, d2 := p.SlicedDims(t)
	for _, d := range [2]int{d1, d2} {
		if !divisible(d, sb) {
			return fmt.Errorf("gemm: MeshSlice sliced dimension %d not divisible by S·B=%d on %v (%v)", d, sb, t, p.Dataflow)
		}
	}
	return nil
}

// ValidateLayer reports whether cfg can run the three GeMMs that train an
// in→out FC layer over rows tokens, Table 1's Y-stn row, on the torus:
// each must slice (Validate) and shard (Problem.Shardable).
func (cfg MeshSliceConfig) ValidateLayer(t topology.Torus, rows, in, out int) error {
	for _, p := range YStn.Passes(rows, in, out) {
		if err := cfg.Validate(p, t); err != nil {
			return err
		}
		if d, ok := p.Shardable(t); !ok {
			return fmt.Errorf("gemm: dim %d not divisible by mesh %v", d, t)
		}
	}
	return nil
}

// MeshSlice returns the ChipFunc for the MeshSlice algorithm in the given
// dataflow, at the prefetch depth cfg.Pipelined selects.
func MeshSlice(df Dataflow, cfg MeshSliceConfig) ChipFunc {
	if cfg.S < 1 || cfg.Block < 1 {
		panic(fmt.Sprintf("gemm: MeshSlice S=%d Block=%d must be positive", cfg.S, cfg.Block)) // lint:invariant config precondition; Validate reports it as an error
	}
	switch df {
	case OS:
		return meshSliceOS(cfg)
	case LS:
		return meshSliceLS(cfg)
	case RS:
		return meshSliceRS(cfg)
	default:
		panic(fmt.Sprintf("gemm: unknown dataflow %d", int(df))) // lint:invariant exhaustive switch guard
	}
}

// streamBufs draws the reused destinations of one partial-collective
// stream from the chip's scratch arena: buffer s%2 serves slice s. At depth 0
// both entries are one matrix, at depth 1 two. Their contents are stale:
// every slice overwrites what it reads (a slice copy, a gather, a scatter,
// or a Zero before accumulating).
func (cfg MeshSliceConfig) streamBufs(c *mesh.Chip, rows, cols int) [2]*tensor.Matrix {
	b := c.Scratch(rows, cols)
	if !cfg.Pipelined {
		return [2]*tensor.Matrix{b, b}
	}
	return [2]*tensor.Matrix{b, c.Scratch(rows, cols)}
}

// meshSliceOS: for each s, slice A along its local K columns and B along
// its local K rows, all-gather both sub-shards, and accumulate the partial
// product (Fig. 5 left). At depth 1 both gathers of slice s+1 prefetch under
// the MatMul of slice s (Fig. 6).
func meshSliceOS(cfg MeshSliceConfig) ChipFunc {
	return func(c *mesh.Chip, aij, bij *tensor.Matrix) *tensor.Matrix {
		row, col := c.RowComm(), c.ColComm()
		S, B := cfg.S, cfg.Block
		cij := tensor.New(aij.Rows, bij.Cols)
		aSl := cfg.streamBufs(c, aij.Rows, aij.Cols/S)             // A's column slice
		bSl := cfg.streamBufs(c, bij.Rows/S, bij.Cols)             // B's row slice
		aBuf := cfg.streamBufs(c, aij.Rows, row.Size*(aij.Cols/S)) // gathered A'
		bBuf := cfg.streamBufs(c, col.Size*(bij.Rows/S), bij.Cols) // gathered B'
		sliceA := func(s int) *tensor.Matrix { return tensor.SliceColInto(aSl[s%2], aij, S, s, B) }
		sliceB := func(s int) *tensor.Matrix { return tensor.SliceRowInto(bSl[s%2], bij, S, s, B) }
		compute := func(s int) {
			c.SpanStart(recorder.OpCompute, s)
			tensor.MatMulAdd(cij, aBuf[s%2], bBuf[s%2])
			c.SpanEnd(recorder.OpCompute)
		}
		if !cfg.Pipelined {
			for s := 0; s < S; s++ {
				collective.AllGatherColsInto(row, sliceA(s), aBuf[0]) // AG_col: gather along the row
				collective.AllGatherRowsInto(col, sliceB(s), bBuf[0]) // AG_row: gather down the column
				compute(s)
			}
			return cij
		}
		// Prolog: issue slice 0's gathers before entering the loop.
		ha := collective.StartAllGatherColsInto(row, sliceA(0), aBuf[0])
		hb := collective.StartAllGatherRowsInto(col, sliceB(0), bBuf[0])
		for s := 0; s < S-1; s++ {
			// Prefetch: slice s+1's gathers run underneath slice s's MatMul.
			haN := collective.StartAllGatherColsInto(row, sliceA(s+1), aBuf[(s+1)%2])
			hbN := collective.StartAllGatherRowsInto(col, sliceB(s+1), bBuf[(s+1)%2])
			ha.Wait()
			hb.Wait()
			compute(s)
			ha, hb = haN, hbN
		}
		// Epilogue: the last slice has nothing left to prefetch.
		ha.Wait()
		hb.Wait()
		compute(S - 1)
		return cij
	}
}

// meshSliceLS: A stays local; for each s, slice B along its local N rows,
// all-gather down the column, compute C' = A·B'ᵀ, reduce-scatter C' along
// the row, and write the result into the s-th column sub-shard of C
// (Fig. 5 centre). At depth 1 it is a three-stage pipeline: slice s+1's
// AllGather prefetches and slice s−1's ReduceScatter drains underneath slice
// s's MatMul. The partial product accumulates into a reused buffer (Zero +
// MatMulAddNT ≡ MatMulNT bitwise: tensor.New zeroes and 0+x == x).
func meshSliceLS(cfg MeshSliceConfig) ChipFunc {
	return func(c *mesh.Chip, aij, bij *tensor.Matrix) *tensor.Matrix {
		row, col := c.RowComm(), c.ColComm()
		S, B := cfg.S, cfg.Block
		nSlice := col.Size * (bij.Rows / S) // N/S
		cij := tensor.New(aij.Rows, S*nSlice/row.Size)
		bSl := cfg.streamBufs(c, bij.Rows/S, bij.Cols)        // B's row slice
		bBuf := cfg.streamBufs(c, nSlice, bij.Cols)           // (N/S) × K/Pc gathered B'
		cpBuf := cfg.streamBufs(c, aij.Rows, nSlice)          // M/Pr × N/S partial C'
		csBuf := cfg.streamBufs(c, aij.Rows, nSlice/row.Size) // M/Pr × N/(S·Pc) scattered
		sliceB := func(s int) *tensor.Matrix { return tensor.SliceRowInto(bSl[s%2], bij, S, s, B) }
		compute := func(s int) {
			c.SpanStart(recorder.OpCompute, s)
			cpBuf[s%2].Zero()
			tensor.MatMulAddNT(cpBuf[s%2], aij, bBuf[s%2])
			c.SpanEnd(recorder.OpCompute)
		}
		if !cfg.Pipelined {
			for s := 0; s < S; s++ {
				collective.AllGatherRowsInto(col, sliceB(s), bBuf[0])
				compute(s)
				collective.ReduceScatterColsInto(row, cpBuf[0], csBuf[0])
				tensor.UnsliceColInto(cij, csBuf[0], S, s, B)
			}
			return cij
		}
		hb := collective.StartAllGatherRowsInto(col, sliceB(0), bBuf[0])
		var hr *collective.Handle // the one in-flight ReduceScatter
		for s := 0; s < S-1; s++ {
			hbN := collective.StartAllGatherRowsInto(col, sliceB(s+1), bBuf[(s+1)%2])
			hb.Wait()
			compute(s)
			if s > 0 {
				// Drain slice s−1's ReduceScatter, which ran underneath
				// this slice's MatMul.
				hr.Wait()
				tensor.UnsliceColInto(cij, csBuf[(s-1)%2], S, s-1, B)
			}
			hr = collective.StartReduceScatterColsInto(row, cpBuf[s%2], csBuf[s%2])
			hb = hbN
		}
		// Epilogue: last slice's compute, drain its predecessor, then its own
		// ReduceScatter has nothing left to hide under.
		hb.Wait()
		compute(S - 1)
		if S > 1 {
			hr.Wait()
			tensor.UnsliceColInto(cij, csBuf[(S-2)%2], S, S-2, B)
		}
		hr = collective.StartReduceScatterColsInto(row, cpBuf[(S-1)%2], csBuf[(S-1)%2])
		hr.Wait()
		tensor.UnsliceColInto(cij, csBuf[(S-1)%2], S, S-1, B)
		return cij
	}
}

// meshSliceRS is the RS mirror of meshSliceLS (Fig. 5 right): B stays local,
// A's M-column slices gather along the row, C' = A'ᵀ·B, and the partial
// products reduce-scatter down the column into the s-th row sub-shard of C.
func meshSliceRS(cfg MeshSliceConfig) ChipFunc {
	return func(c *mesh.Chip, aij, bij *tensor.Matrix) *tensor.Matrix {
		row, col := c.RowComm(), c.ColComm()
		S, B := cfg.S, cfg.Block
		mSlice := row.Size * (aij.Cols / S) // M/S
		cij := tensor.New(S*mSlice/col.Size, bij.Cols)
		aSl := cfg.streamBufs(c, aij.Rows, aij.Cols/S)        // A's column slice
		aBuf := cfg.streamBufs(c, aij.Rows, mSlice)           // K/Pr × M/S gathered A'
		cpBuf := cfg.streamBufs(c, mSlice, bij.Cols)          // M/S × N/Pc partial C'
		csBuf := cfg.streamBufs(c, mSlice/col.Size, bij.Cols) // M/(S·Pr) × N/Pc scattered
		sliceA := func(s int) *tensor.Matrix { return tensor.SliceColInto(aSl[s%2], aij, S, s, B) }
		compute := func(s int) {
			c.SpanStart(recorder.OpCompute, s)
			cpBuf[s%2].Zero()
			tensor.MatMulAddTN(cpBuf[s%2], aBuf[s%2], bij)
			c.SpanEnd(recorder.OpCompute)
		}
		if !cfg.Pipelined {
			for s := 0; s < S; s++ {
				collective.AllGatherColsInto(row, sliceA(s), aBuf[0])
				compute(s)
				collective.ReduceScatterRowsInto(col, cpBuf[0], csBuf[0])
				tensor.UnsliceRowInto(cij, csBuf[0], S, s, B)
			}
			return cij
		}
		ha := collective.StartAllGatherColsInto(row, sliceA(0), aBuf[0])
		var hr *collective.Handle
		for s := 0; s < S-1; s++ {
			haN := collective.StartAllGatherColsInto(row, sliceA(s+1), aBuf[(s+1)%2])
			ha.Wait()
			compute(s)
			if s > 0 {
				hr.Wait()
				tensor.UnsliceRowInto(cij, csBuf[(s-1)%2], S, s-1, B)
			}
			hr = collective.StartReduceScatterRowsInto(col, cpBuf[s%2], csBuf[s%2])
			ha = haN
		}
		ha.Wait()
		compute(S - 1)
		if S > 1 {
			hr.Wait()
			tensor.UnsliceRowInto(cij, csBuf[(S-2)%2], S, S-2, B)
		}
		hr = collective.StartReduceScatterRowsInto(col, cpBuf[(S-1)%2], csBuf[(S-1)%2])
		hr.Wait()
		tensor.UnsliceRowInto(cij, csBuf[(S-1)%2], S, S-1, B)
		return cij
	}
}
