// Package gemm implements the distributed 2D GeMM algorithms the paper
// studies, running on the functional mesh runtime with real data:
//
//   - MeshSlice (the paper's contribution, §3.1) in all three dataflows,
//   - Collective 2D GeMM (Fig. 2b) in all three dataflows,
//   - SUMMA (Fig. 2a) in all three dataflows,
//   - Cannon's algorithm (square meshes),
//   - Wang's algorithm (one overlapped direction) in all three dataflows,
//   - the 1D baselines: 1D tensor parallelism and FSDP.
//
// MeshSlice and Wang each have one schedule per dataflow that runs at two
// prefetch depths: 0 completes every partial collective inline on the chip
// goroutine, 1 (the Pipelined option) issues the same collectives on
// background comm lanes underneath the MatMuls. The two are bit-identical.
//
// Every algorithm is verified against a single-node reference
// multiplication; the timing behaviour of the same algorithms is modelled
// by packages sched and netsim.
//
// # Dataflows and shapes
//
// Following paper §2.3.1 and Fig. 1, the three dataflows keep one matrix
// stationary and compute (with global shapes):
//
//	OS: C(M×N) = A(M×K) · B(K×N)      — output stationary
//	LS: C(M×N) = A(M×K) · B(N×K)ᵀ     — left input stationary
//	RS: C(M×N) = A(K×M)ᵀ · B(K×N)     — right input stationary
//
// All matrices are partitioned row-dimension across mesh rows and
// column-dimension across mesh columns; shard (i,j) lives on chip (i,j).
package gemm

import (
	"fmt"
	"sync"

	"meshslice/internal/mesh"
	"meshslice/internal/tensor"
	"meshslice/internal/topology"
)

// Dataflow selects which matrix stays stationary (paper Fig. 1).
type Dataflow int

const (
	// OS keeps the output stationary: C = A·B.
	OS Dataflow = iota
	// LS keeps the left input stationary: C = A·Bᵀ.
	LS
	// RS keeps the right input stationary: C = Aᵀ·B.
	RS
)

func (d Dataflow) String() string {
	switch d {
	case OS:
		return "OS"
	case LS:
		return "LS"
	case RS:
		return "RS"
	default:
		return fmt.Sprintf("Dataflow(%d)", int(d))
	}
}

// checkDataflow reports an error unless df is OS, LS or RS.
func checkDataflow(df Dataflow) error {
	if df < OS || df > RS {
		return fmt.Errorf("gemm: unknown dataflow %d", int(df))
	}
	return nil
}

// Stationary identifies which matrix of an FC layer's Y = XW stays put: one
// row of the paper's Table 1 (§3.2.1, §4.4), which fixes the dataflow of
// the layer's three training passes.
type Stationary int

const (
	// YStn keeps the output stationary (the default that transposes
	// nothing; Table 2's "not optimized" baseline uses it everywhere).
	YStn Stationary = iota
	// XStn keeps the input stationary.
	XStn
	// WStn keeps the weight stationary.
	WStn
)

func (s Stationary) String() string {
	switch s {
	case YStn:
		return "Y-stn"
	case XStn:
		return "X-stn"
	case WStn:
		return "W-stn"
	default:
		return fmt.Sprintf("Stationary(%d)", int(s))
	}
}

// Passes returns the Table 1 row for s: the forward, backward-data and
// backward-weight problems (in that order, indexed by model.Pass) of Y = XW
// with X of tokens×in, W of in×out and Y of tokens×out. Each problem's M×N
// output and K inner dimension already reflect the dataflow.
func (s Stationary) Passes(tokens, in, out int) [3]Problem {
	switch s {
	case YStn:
		// Y = OS(X, W); X' = LS(Y', W); W' = RS(X, Y').
		return [3]Problem{
			{M: tokens, N: out, K: in, Dataflow: OS},
			{M: tokens, N: in, K: out, Dataflow: LS},
			{M: in, N: out, K: tokens, Dataflow: RS},
		}
	case XStn:
		// Y = LS(X, Wᵀ); X' = OS(Y', Wᵀ); W'ᵀ = RS(Y', X).
		return [3]Problem{
			{M: tokens, N: out, K: in, Dataflow: LS},
			{M: tokens, N: in, K: out, Dataflow: OS},
			{M: out, N: in, K: tokens, Dataflow: RS},
		}
	case WStn:
		// Y = RS(Xᵀ, W); X'ᵀ = LS(W, Y'); W' = OS(Xᵀ, Y').
		return [3]Problem{
			{M: tokens, N: out, K: in, Dataflow: RS},
			{M: in, N: tokens, K: out, Dataflow: LS},
			{M: in, N: out, K: tokens, Dataflow: OS},
		}
	default:
		panic(fmt.Sprintf("gemm: unknown stationary %d", int(s))) // lint:invariant exhaustive switch guard
	}
}

// Problem describes a distributed GeMM: the global result is always M×N
// with inner dimension K, interpreted per dataflow as documented above.
type Problem struct {
	M, N, K  int
	Dataflow Dataflow
}

// OperandShapes returns the global shapes of the A and B operands for the
// problem's dataflow.
func (p Problem) OperandShapes() (aRows, aCols, bRows, bCols int) {
	switch p.Dataflow {
	case OS:
		return p.M, p.K, p.K, p.N
	case LS:
		return p.M, p.K, p.N, p.K
	case RS:
		return p.K, p.M, p.K, p.N
	default:
		panic(fmt.Sprintf("gemm: unknown dataflow %d", int(p.Dataflow))) // lint:invariant exhaustive switch guard
	}
}

// Shardable reports whether the problem's three matrices partition evenly
// onto the torus: every row dimension over Pr and every column dimension
// over Pc. When one does not, dim is the first that fails, in the order A's
// rows, A's columns, B's rows, B's columns, C's rows, C's columns.
func (p Problem) Shardable(t topology.Torus) (dim int, ok bool) {
	aR, aC, bR, bC := p.OperandShapes()
	switch {
	case !divisible(aR, t.Rows):
		return aR, false
	case !divisible(aC, t.Cols):
		return aC, false
	case !divisible(bR, t.Rows):
		return bR, false
	case !divisible(bC, t.Cols):
		return bC, false
	case !divisible(p.M, t.Rows):
		return p.M, false
	case !divisible(p.N, t.Cols):
		return p.N, false
	}
	return 0, true
}

// SlicedDims returns the two local dimensions MeshSlice slices on the torus
// (paper §3.1.2): OS slices A's and B's local K, LS B's and C's local N, RS
// A's and C's local M.
func (p Problem) SlicedDims(t topology.Torus) (int, int) {
	switch p.Dataflow {
	case OS:
		return p.K / t.Cols, p.K / t.Rows
	case LS:
		return p.N / t.Rows, p.N / t.Cols
	case RS:
		return p.M / t.Cols, p.M / t.Rows
	default:
		panic(fmt.Sprintf("gemm: unknown dataflow %d", int(p.Dataflow))) // lint:invariant exhaustive switch guard
	}
}

// MaxSliceCount returns the largest slice count S MeshSlice can run the
// problem with on the torus; the usable counts are exactly its divisors.
// S·block must divide both sliced dimensions, at the architecture block
// when it divides them both and element by element (block 1) when it does
// not. ok is false when the problem does not shard at all.
func (p Problem) MaxSliceCount(t topology.Torus, block int) (g int, ok bool) {
	if _, ok := p.Shardable(t); !ok {
		return 0, false
	}
	d1, d2 := p.SlicedDims(t)
	if d1%block != 0 || d2%block != 0 {
		block = 1
	}
	return gcd(d1/block, d2/block), true
}

// Reference computes the problem's result with a single-node
// multiplication; the ground truth all distributed algorithms are verified
// against.
func (p Problem) Reference(a, b *tensor.Matrix) *tensor.Matrix {
	switch p.Dataflow {
	case OS:
		return tensor.MatMul(a, b)
	case LS:
		return tensor.MatMulNT(a, b)
	case RS:
		return tensor.MatMulTN(a, b)
	default:
		panic(fmt.Sprintf("gemm: unknown dataflow %d", int(p.Dataflow))) // lint:invariant exhaustive switch guard
	}
}

// ChipFunc computes one chip's output shard from its local input shards.
// Implementations communicate through the chip's communicators.
type ChipFunc func(c *mesh.Chip, a, b *tensor.Matrix) *tensor.Matrix

// Run executes fn SPMD over the mesh. a and b hold the per-chip input
// shards indexed by rank; the returned slice holds the per-chip output
// shards indexed by rank.
func Run(m *mesh.Mesh, fn ChipFunc, a, b []*tensor.Matrix) []*tensor.Matrix {
	n := m.Torus.Size()
	if len(a) != n || len(b) != n {
		panic(fmt.Sprintf("gemm: Run got %d/%d shards for %d chips", len(a), len(b), n)) // lint:invariant shard-count precondition
	}
	out := make([]*tensor.Matrix, n)
	var mu sync.Mutex
	m.Run(func(c *mesh.Chip) {
		res := fn(c, a[c.Rank], b[c.Rank])
		mu.Lock()
		out[c.Rank] = res
		mu.Unlock()
	})
	return out
}

// Multiply shards the global operands onto a fresh mesh of the given shape,
// runs fn SPMD, and assembles the global result. It closes the mesh, so
// the next call carves its buffers from the same memory.
func Multiply(t topology.Torus, fn ChipFunc, a, b *tensor.Matrix) *tensor.Matrix {
	m := mesh.New(t)
	defer m.Close()
	return MultiplyOn(m, fn, a, b)
}

// MultiplyOn is Multiply on a caller-provided mesh, so callers can attach
// instrumentation (a metrics registry, a flight recorder) or fault plans
// before the run and inspect them after. Sharding and assembly run on the
// chips: each copies its blocks of a and b into its scratch arena (as
// tensor.Partition would cut them) and writes its output shard straight
// into the result.
func MultiplyOn(m *mesh.Mesh, fn ChipFunc, a, b *tensor.Matrix) *tensor.Matrix {
	t := m.Torus
	for _, x := range []*tensor.Matrix{a, b} {
		if x.Rows%t.Rows != 0 || x.Cols%t.Cols != 0 {
			panic(fmt.Sprintf("tensor: Partition %dx%d into %dx%d shards", x.Rows, x.Cols, t.Rows, t.Cols)) // lint:invariant shape precondition, as tensor.Partition's
		}
	}
	var out *tensor.Matrix
	var once sync.Once
	m.Run(func(c *mesh.Chip) {
		i, j := c.Rank/t.Cols, c.Rank%t.Cols
		aij := c.Scratch(a.Rows/t.Rows, a.Cols/t.Cols)
		aij.CopySub(a, i*aij.Rows, j*aij.Cols)
		bij := c.Scratch(b.Rows/t.Rows, b.Cols/t.Cols)
		bij.CopySub(b, i*bij.Rows, j*bij.Cols)
		res := fn(c, aij, bij)
		once.Do(func() { out = tensor.New(t.Rows*res.Rows, t.Cols*res.Cols) })
		if res.Rows*t.Rows != out.Rows || res.Cols*t.Cols != out.Cols {
			panic(fmt.Sprintf("tensor: Assemble shard (%d,%d) is %dx%d, want %dx%d", i, j, res.Rows, res.Cols, out.Rows/t.Rows, out.Cols/t.Cols)) // lint:invariant shape precondition, as tensor.Assemble's
		}
		out.SetSubMatrix(i*res.Rows, j*res.Cols, res)
	})
	return out
}

// divisible reports whether dim splits evenly by div.
func divisible(dim, div int) bool { return div > 0 && dim%div == 0 }

// checkShardable panics unless the problem's three matrices partition
// evenly onto the torus.
func checkShardable(p Problem, t topology.Torus) {
	if _, ok := p.Shardable(t); !ok {
		panic(fmt.Sprintf("gemm: problem M=%d N=%d K=%d (%v) not shardable on %v", p.M, p.N, p.K, p.Dataflow, t))
	}
}
