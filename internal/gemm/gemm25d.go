package gemm

import (
	"fmt"
	"sync"

	"meshslice/internal/collective"
	"meshslice/internal/mesh"
	"meshslice/internal/tensor"
	"meshslice/internal/topology"
)

// This file implements the 2.5D GeMM algorithm of Solomonik and Demmel
// [28], the 3D-cluster alternative the paper compares MeshSlice+DP against
// in §7. A P×P×c torus holds c replicas of the Cannon-style P×P layout;
// layer l computes 1/c of the inner-product sum with P/c systolic steps,
// and the partial outputs are reduced across the depth dimension.
//
// The functional implementation maps the 3D coordinate space onto the mesh
// runtime's flat rank space and builds the row, column, and depth rings
// with custom communicators; tests verify it against the reference
// multiplication, and the cost model (package costmodel) quantifies why its
// square-base-mesh restriction and skewing lose to MeshSlice+DP.

// Grid3D is a P×P×c processor grid.
type Grid3D struct {
	// P is the side of the square base mesh.
	P int
	// C is the replication depth; it must divide P.
	C int
}

// Validate reports whether the grid is well-formed.
func (g Grid3D) Validate() error {
	if g.P <= 0 || g.C <= 0 {
		return fmt.Errorf("gemm: 2.5D grid %dx%dx%d", g.P, g.P, g.C)
	}
	if g.P%g.C != 0 {
		return fmt.Errorf("gemm: 2.5D depth %d must divide base mesh side %d", g.C, g.P)
	}
	return nil
}

// Size returns the total chip count P²·c.
func (g Grid3D) Size() int { return g.P * g.P * g.C }

// Rank flattens coordinate (i, j, l) onto the runtime's rank space.
func (g Grid3D) Rank(i, j, l int) int { return (l*g.P+i)*g.P + j }

// Coord inverts Rank.
func (g Grid3D) Coord(rank int) (i, j, l int) {
	j = rank % g.P
	rank /= g.P
	i = rank % g.P
	l = rank / g.P
	return
}

// TwoPointFiveDValidate reports whether the algorithm can multiply an
// M×K by K×N product on the grid.
func TwoPointFiveDValidate(m, n, k int, g Grid3D) error {
	if err := g.Validate(); err != nil {
		return err
	}
	if m%g.P != 0 || n%g.P != 0 || k%g.P != 0 {
		return fmt.Errorf("gemm: 2.5D needs M=%d, N=%d, K=%d divisible by P=%d", m, n, k, g.P)
	}
	return nil
}

// TwoPointFiveD computes C = A·B on a P×P×c grid: the front layer's shards
// are replicated down the depth rings, each layer runs P/c skewed Cannon
// steps over its slice of the inner dimension, and the partial outputs are
// reduced back to the front layer.
// lint:allow unused the functional 2.5D baseline of PAPER.md's inventory row 7
func TwoPointFiveD(g Grid3D, a, b *tensor.Matrix) *tensor.Matrix {
	if err := TwoPointFiveDValidate(a.Rows, b.Cols, a.Cols, g); err != nil {
		panic(err)
	}
	p, c := g.P, g.C
	steps := p / c

	aShards := tensor.Partition(a, p, p)
	bShards := tensor.Partition(b, p, p)
	cShards := make([]*tensor.Matrix, p*p)
	var mu sync.Mutex

	m := mesh.New(topology.NewTorus(1, g.Size()))
	m.Run(func(ch *mesh.Chip) {
		i, j, l := g.Coord(ch.Rank)

		// Ring communicators: the layer's row and column, and the depth
		// ring through all layers at (i, j).
		row := ch.CustomComm(ringRanks(func(x int) int { return g.Rank(i, x, l) }, p), topology.InterCol)
		col := ch.CustomComm(ringRanks(func(x int) int { return g.Rank(x, j, l) }, p), topology.InterRow)
		depth := ch.CustomComm(ringRanks(func(x int) int { return g.Rank(i, j, x) }, c), topology.InterRow)

		// Replicate the front layer's shards down the depth ring (the
		// extra memory 2.5D trades for less intra-layer traffic).
		var aij, bij *tensor.Matrix
		if l == 0 {
			aij = aShards[i*p+j]
			bij = bShards[i*p+j]
		}
		aij = collective.Broadcast(depth, 0, aij)
		bij = collective.Broadcast(depth, 0, bij)

		// Skew with the layer offset: chip (i,j,l) acquires
		// A_{i,(i+j+l·steps) mod P} and B_{(i+j+l·steps) mod P, j}.
		aCur := row.Shift(-(i + l*steps), aij)
		bCur := col.Shift(-(j + l*steps), bij)

		partial := tensor.New(aij.Rows, bij.Cols)
		for t := 0; t < steps; t++ {
			tensor.MatMulAdd(partial, aCur, bCur)
			if t < steps-1 {
				aCur = row.Shift(-1, aCur)
				bCur = col.Shift(-1, bCur)
			}
		}

		// Sum the c layers' partials back onto the front layer.
		sum := collective.Reduce(depth, 0, partial)
		if l == 0 {
			mu.Lock()
			cShards[i*p+j] = sum
			mu.Unlock()
		}
	})
	return tensor.Assemble(cShards, p, p)
}

func ringRanks(at func(int) int, n int) []int {
	out := make([]int, n)
	for x := 0; x < n; x++ {
		out[x] = at(x)
	}
	return out
}
