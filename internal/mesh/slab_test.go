package mesh_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"meshslice/internal/gemm"
	"meshslice/internal/mesh"
	"meshslice/internal/tensor"
	"meshslice/internal/topology"
)

// slabOp is one gemm.Multiply: every algorithm and dataflow of the
// registry, serial and pipelined, at 64³ on 4×4 (S=2, Block=2).
type slabOp struct {
	name      string
	fn        gemm.ChipFunc
	a, b, ref *tensor.Matrix
}

var slabTorus = topology.NewTorus(4, 4)

func slabOps() []slabOp {
	var ops []slabOp
	for _, pipelined := range []bool{false, true} {
		opts := gemm.AlgOptions{S: 2, Block: 2, Pipelined: pipelined}
		for _, alg := range gemm.Algorithms() {
			for _, df := range alg.Dataflows {
				p := gemm.Problem{M: 64, N: 64, K: 64, Dataflow: df}
				if alg.Validate != nil && alg.Validate(p, slabTorus, opts) != nil {
					continue
				}
				rng := rand.New(rand.NewSource(int64(len(ops))))
				aR, aC, bR, bC := p.OperandShapes()
				a, b := tensor.Random(aR, aC, rng), tensor.Random(bR, bC, rng)
				name := fmt.Sprintf("%s/%v/pipelined=%t", alg.Name, df, pipelined)
				ops = append(ops, slabOp{name, alg.Build(df, opts), a, b, p.Reference(a, b)})
			}
		}
	}
	return ops
}

func (o slabOp) multiply() *tensor.Matrix { return gemm.Multiply(slabTorus, o.fn, o.a, o.b) }

// want runs the op once and checks it against the single-node reference,
// so a NaN an earlier test left in the slab cannot pass as the bits to
// match.
func (o slabOp) want(t *testing.T) *tensor.Matrix {
	t.Helper()
	got := o.multiply()
	if d := got.MaxAbsDiff(o.ref); d > 1e-9 {
		t.Fatalf("%s: result differs from the reference by %g", o.name, d)
	}
	return got
}

// TestPoisonedSlabCannotChangeTheBits fills the slab closed meshes give
// back with NaN before every gemm.Multiply: every schedule overwrites what
// it reads of its carved buffers, so each result keeps its bits.
func TestPoisonedSlabCannotChangeTheBits(t *testing.T) {
	for _, o := range slabOps() {
		want := o.want(t)
		if mesh.PoisonHeldSlab() == 0 {
			t.Fatalf("%s: no slab held after a gemm.Multiply", o.name)
		}
		if got := o.multiply(); !got.BitEqual(want) {
			t.Errorf("%s: a NaN-filled slab changed the result (max |Δ| %g)", o.name, got.MaxAbsDiff(want))
		}
	}
}

// TestConcurrentMultipliesShareNoBuffer runs every op from two goroutines
// at once, forwards and backwards, while a third keeps filling the held
// slab with NaN: one call takes the slab and the other allocates, and both
// keep their bits. Run it with -race after touching the slab.
func TestConcurrentMultipliesShareNoBuffer(t *testing.T) {
	ops := slabOps()
	wants := make([]*tensor.Matrix, len(ops))
	for i, o := range ops {
		wants[i] = o.want(t)
	}
	order := make([]int, len(ops))
	for i := range order {
		order[i] = i
	}
	reversed := slices.Clone(order)
	slices.Reverse(reversed)
	done := make(chan struct{})
	var poisoner sync.WaitGroup
	poisoner.Add(1)
	go func() {
		defer poisoner.Done()
		for {
			select {
			case <-done:
				return
			default:
				mesh.PoisonHeldSlab()
			}
		}
	}()
	var wg sync.WaitGroup
	for _, order := range [][]int{order, reversed} {
		wg.Add(1)
		go func(order []int) {
			defer wg.Done()
			for _, i := range order {
				if got := ops[i].multiply(); !got.BitEqual(wants[i]) {
					t.Errorf("%s: a concurrent gemm.Multiply changed the result (max |Δ| %g)", ops[i].name, got.MaxAbsDiff(wants[i]))
				}
			}
		}(order)
	}
	wg.Wait()
	close(done)
	poisoner.Wait()
}

// TestResultOutlivesTheSlab writes NaN into the slab, and runs the next op
// in it, after each gemm.Multiply returns: the result is the caller's own
// matrix, not a view of memory the next mesh carves.
func TestResultOutlivesTheSlab(t *testing.T) {
	ops := slabOps()
	for i, o := range ops {
		got := o.multiply()
		kept := got.Clone()
		mesh.PoisonHeldSlab()
		ops[(i+1)%len(ops)].multiply()
		if !got.BitEqual(kept) {
			t.Errorf("%s: the result changed after the slab was reused", o.name)
		}
	}
}

// TestPanickingChipLeavesTheSlabClean runs each op with a ChipFunc that
// fills chip 5's operand shards with NaN and panics: gemm.Multiply
// re-raises the panic after closing its mesh, and the next call, carving
// the same slab, keeps its bits.
func TestPanickingChipLeavesTheSlabClean(t *testing.T) {
	for _, o := range slabOps() {
		want := o.want(t)
		boom := func(c *mesh.Chip, a, b *tensor.Matrix) *tensor.Matrix {
			if c.Rank == 5 {
				for _, m := range []*tensor.Matrix{a, b} {
					for i := range m.Data {
						m.Data[i] = math.NaN()
					}
				}
				panic("boom")
			}
			return o.fn(c, a, b)
		}
		func() {
			defer func() {
				if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), "chip 5 panicked: boom") {
					t.Fatalf("%s: recovered %v, want chip 5's panic", o.name, p)
				}
			}()
			gemm.Multiply(slabTorus, boom, o.a, o.b)
		}()
		if got := o.multiply(); !got.BitEqual(want) {
			t.Errorf("%s: the run after a chip panic changed the result (max |Δ| %g)", o.name, got.MaxAbsDiff(want))
		}
	}
}

// TestClosedMeshPanicsOnRun: a closed mesh's buffers belong to the next
// mesh, so running it again is a programming error, and a second Close
// does nothing.
func TestClosedMeshPanicsOnRun(t *testing.T) {
	m := mesh.New(slabTorus)
	m.Run(func(c *mesh.Chip) { c.Scratch(4, 4) })
	m.Close()
	m.Close()
	defer func() {
		if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), "closed mesh") {
			t.Fatalf("recovered %v, want a closed-mesh panic", p)
		}
	}()
	m.Run(func(*mesh.Chip) {})
}
