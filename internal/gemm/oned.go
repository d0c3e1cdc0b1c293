package gemm

import (
	"fmt"

	"meshslice/internal/collective"
	"meshslice/internal/mesh"
	"meshslice/internal/tensor"
	"meshslice/internal/topology"
)

// This file implements the 1D baselines of the paper's evaluation (§4.3):
// 1D tensor parallelism in the Sequence Parallelism style [16] and
// Fully-Sharded Data Parallelism (FSDP) [37]. Both run on a ring of P
// chips, which in this runtime is a 1×P mesh (use Ring below).

// Ring returns the 1×p torus the 1D baselines run on.
func Ring(p int) topology.Torus { return topology.NewTorus(1, p) }

// OneDTPAllGather computes Y = X·W in 1D TP with the AllGather pattern:
// X (M×K) is sharded by rows (the sequence dimension, M/P per chip) and
// all-gathered before the multiplication; W (K×N) is sharded by output
// columns (N/P per chip). The per-chip output is the M×N/P column shard.
//
// Note the per-chip input shapes differ from the 2D algorithms: a is the
// M/P×K sequence shard and b the K×N/P weight shard, so drivers must shard
// X as P×1 and W as 1×P.
// lint:allow unused a functional 1D TP and FSDP baseline of PAPER.md's inventory row 7
func OneDTPAllGather(c *mesh.Chip, xShard, wShard *tensor.Matrix) *tensor.Matrix {
	ring := c.RowComm()
	xFull := collective.AllGatherRows(ring, xShard) // M × K
	return tensor.MatMul(xFull, wShard)             // M × N/P
}

// OneDTPReduceScatter computes Y = X·W in 1D TP with the ReduceScatter
// pattern: X (M×K) is sharded by inner columns (K/P per chip), W by inner
// rows (K/P×N per chip); the partial M×N products are reduce-scattered by
// rows so each chip ends with the M/P×N sequence shard of Y.
// lint:allow unused a functional 1D TP and FSDP baseline of PAPER.md's inventory row 7
func OneDTPReduceScatter(c *mesh.Chip, xShard, wShard *tensor.Matrix) *tensor.Matrix {
	ring := c.RowComm()
	partial := tensor.MatMul(xShard, wShard) // M × N, partial over K/P
	return collective.ReduceScatterRows(ring, partial)
}

// FSDP computes Y = X·W with fully-sharded data parallelism: each chip owns
// a batch shard X_i (M/P×K) and a weight shard W_i (K/P×N); the weights are
// all-gathered right before the local multiplication, and each chip keeps
// its own batch rows of the output (M/P×N).
// lint:allow unused a functional 1D TP and FSDP baseline of PAPER.md's inventory row 7
func FSDP(c *mesh.Chip, xShard, wShard *tensor.Matrix) *tensor.Matrix {
	ring := c.RowComm()
	wFull := collective.AllGatherRows(ring, wShard) // K × N
	return tensor.MatMul(xShard, wFull)             // M/P × N
}

// OneDValidate reports whether the 1D patterns can shard an M×K · K×N
// multiplication over p chips.
// lint:allow unused a functional 1D TP and FSDP baseline of PAPER.md's inventory row 7
func OneDValidate(m, n, k, p int) error {
	if p <= 0 {
		return fmt.Errorf("gemm: 1D ring size %d must be positive", p)
	}
	if m%p != 0 || n%p != 0 || k%p != 0 {
		return fmt.Errorf("gemm: 1D baselines need M=%d, N=%d, K=%d all divisible by P=%d", m, n, k, p)
	}
	return nil
}

// RunOneD runs a 1D two-operand chip function over a ring of p chips. x and
// w hold per-chip shards indexed by ring position.
// lint:allow unused a functional 1D TP and FSDP baseline of PAPER.md's inventory row 7
func RunOneD(p int, fn ChipFunc, x, w []*tensor.Matrix) []*tensor.Matrix {
	return Run(mesh.New(Ring(p)), fn, x, w)
}
