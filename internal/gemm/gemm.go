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
// runs fn SPMD, and assembles the global result. Convenience entry point
// for examples and tests.
func Multiply(t topology.Torus, fn ChipFunc, a, b *tensor.Matrix) *tensor.Matrix {
	return MultiplyOn(mesh.New(t), fn, a, b)
}

// MultiplyOn is Multiply on a caller-provided mesh, so callers can attach
// instrumentation (a metrics registry, a flight recorder) or fault plans
// before the run and inspect them after.
func MultiplyOn(m *mesh.Mesh, fn ChipFunc, a, b *tensor.Matrix) *tensor.Matrix {
	t := m.Torus
	as := tensor.Partition(a, t.Rows, t.Cols)
	bs := tensor.Partition(b, t.Rows, t.Cols)
	cs := Run(m, fn, as, bs)
	return tensor.Assemble(cs, t.Rows, t.Cols)
}

// divisible reports whether dim splits evenly by div.
func divisible(dim, div int) bool { return div > 0 && dim%div == 0 }

// checkShardable panics unless the problem's three matrices partition
// evenly onto the torus.
func checkShardable(p Problem, t topology.Torus) {
	aR, aC, bR, bC := p.OperandShapes()
	if !divisible(aR, t.Rows) || !divisible(aC, t.Cols) ||
		!divisible(bR, t.Rows) || !divisible(bC, t.Cols) ||
		!divisible(p.M, t.Rows) || !divisible(p.N, t.Cols) {
		panic(fmt.Sprintf("gemm: problem M=%d N=%d K=%d (%v) not shardable on %v", p.M, p.N, p.K, p.Dataflow, t))
	}
}
