package gemm

import (
	"fmt"
	"strings"
	"testing"

	"meshslice/internal/tensor"
	"meshslice/internal/topology"
)

// The mesh-free oracle. Serial and pipelined MeshSlice/Wang are two prefetch
// depths of one schedule function, so comparing them with each other no
// longer compares two implementations. The oracle below is the independent
// one: it replays, on a single node with no mesh, no goroutine and no
// collective, exactly the floating-point operations each chip performs —
// the same slices, concatenated in ring order, multiplied by the same
// kernels in ascending slice (or ring-walk) order, and reduced in the order
// the ring ReduceScatter accumulates — and both depths must match it bit
// for bit.

// oracleGrid holds the partitioned operands of one problem on one torus.
type oracleGrid struct {
	pr, pc int
	as, bs []*tensor.Matrix
}

func newOracleGrid(tor topology.Torus, a, b *tensor.Matrix) oracleGrid {
	return oracleGrid{pr: tor.Rows, pc: tor.Cols, as: tensor.Partition(a, tor.Rows, tor.Cols), bs: tensor.Partition(b, tor.Rows, tor.Cols)}
}

func (g oracleGrid) a(i, j int) *tensor.Matrix { return g.as[i*g.pc+j] }
func (g oracleGrid) b(i, j int) *tensor.Matrix { return g.bs[i*g.pc+j] }

// gatherCols is what AG_col leaves on every chip of mesh row i: the column
// slices of the row's A shards, side by side in ring order.
func (g oracleGrid) gatherCols(i, S, s, B int) *tensor.Matrix {
	parts := make([]*tensor.Matrix, g.pc)
	for j := range parts {
		parts[j] = tensor.SliceCol(g.a(i, j), S, s, B)
	}
	return tensor.ConcatCols(parts)
}

// gatherRows is what AG_row leaves on every chip of mesh column j: the row
// slices of the column's B shards, stacked in ring order.
func (g oracleGrid) gatherRows(j, S, s, B int) *tensor.Matrix {
	parts := make([]*tensor.Matrix, g.pr)
	for i := range parts {
		parts[i] = tensor.SliceRow(g.b(i, j), S, s, B)
	}
	return tensor.ConcatRows(parts)
}

// ringSum adds the ring members' contributions for position d in the order
// the ring ReduceScatter accumulates them: the travelling block starts as
// member d+1's contribution and picks up one more per hop, d's own last.
func ringSum(contrib []*tensor.Matrix, d int) *tensor.Matrix {
	p := len(contrib)
	acc := contrib[(d+1)%p].Clone()
	for t := 2; t <= p; t++ {
		acc.Add(contrib[(d+t)%p])
	}
	return acc
}

// ringReduceScatter is a ring ReduceScatter over len(strips) members:
// strips[from][d] is member from's contribution to position d, and place
// receives each position's ring sum.
func ringReduceScatter(strips [][]*tensor.Matrix, place func(d int, sum *tensor.Matrix)) {
	for d := range strips {
		contrib := make([]*tensor.Matrix, len(strips))
		for from := range contrib {
			contrib[from] = strips[from][d]
		}
		place(d, ringSum(contrib, d))
	}
}

// reduceScatterCols is RdS_col on one mesh row: chip j contributes cPrime(j)
// and receives the ring sum of every member's j-th column strip.
func (g oracleGrid) reduceScatterCols(cPrime func(j int) *tensor.Matrix, place func(j int, cs *tensor.Matrix)) {
	strips := make([][]*tensor.Matrix, g.pc)
	for j := range strips {
		strips[j] = tensor.SplitCols(cPrime(j), g.pc)
	}
	ringReduceScatter(strips, place)
}

// reduceScatterRows is RdS_row on one mesh column: chip i contributes
// cPrime(i) and receives the ring sum of every member's i-th row strip.
func (g oracleGrid) reduceScatterRows(cPrime func(i int) *tensor.Matrix, place func(i int, cs *tensor.Matrix)) {
	strips := make([][]*tensor.Matrix, g.pr)
	for i := range strips {
		strips[i] = tensor.SplitRows(cPrime(i), g.pr)
	}
	ringReduceScatter(strips, place)
}

// oracleMeshSlice replays MeshSlice(df, {S, B}) chip by chip.
func oracleMeshSlice(p Problem, tor topology.Torus, S, B int, a, b *tensor.Matrix) *tensor.Matrix {
	g := newOracleGrid(tor, a, b)
	out := make([]*tensor.Matrix, g.pr*g.pc)
	for r := range out {
		out[r] = tensor.New(p.M/g.pr, p.N/g.pc)
	}
	for s := 0; s < S; s++ {
		switch p.Dataflow {
		case OS:
			for i := 0; i < g.pr; i++ {
				for j := 0; j < g.pc; j++ {
					tensor.MatMulAdd(out[i*g.pc+j], g.gatherCols(i, S, s, B), g.gatherRows(j, S, s, B))
				}
			}
		case LS:
			for i := 0; i < g.pr; i++ {
				g.reduceScatterCols(
					func(j int) *tensor.Matrix { return tensor.MatMulNT(g.a(i, j), g.gatherRows(j, S, s, B)) },
					func(j int, cs *tensor.Matrix) { tensor.UnsliceColInto(out[i*g.pc+j], cs, S, s, B) })
			}
		case RS:
			for j := 0; j < g.pc; j++ {
				g.reduceScatterRows(
					func(i int) *tensor.Matrix { return tensor.MatMulTN(g.gatherCols(i, S, s, B), g.b(i, j)) },
					func(i int, cs *tensor.Matrix) { tensor.UnsliceRowInto(out[i*g.pc+j], cs, S, s, B) })
			}
		}
	}
	return tensor.Assemble(out, g.pr, g.pc)
}

// oracleWang replays Wang's ring-order panel walk: at step t chip (i,j)
// holds the shard that originated t ring positions downstream.
func oracleWang(p Problem, tor topology.Torus, a, b *tensor.Matrix) *tensor.Matrix {
	g := newOracleGrid(tor, a, b)
	out := make([]*tensor.Matrix, g.pr*g.pc)
	switch p.Dataflow {
	case OS:
		kLocal := p.K / g.pc
		for i := 0; i < g.pr; i++ {
			for j := 0; j < g.pc; j++ {
				bFull := g.gatherRows(j, 1, 0, 1) // the monolithic AllGather
				cij := tensor.New(p.M/g.pr, p.N/g.pc)
				for t := 0; t < g.pc; t++ {
					src := (j + t) % g.pc
					tensor.MatMulAdd(cij, g.a(i, src), bFull.SubMatrix(src*kLocal, 0, kLocal, bFull.Cols))
				}
				out[i*g.pc+j] = cij
			}
		}
	case LS:
		for i := 0; i < g.pr; i++ {
			g.reduceScatterCols(func(j int) *tensor.Matrix {
				cPrime := tensor.New(p.M/g.pr, p.N)
				for t := 0; t < g.pr; t++ {
					src := (i + t) % g.pr
					cPrime.SetSubMatrix(0, src*p.N/g.pr, tensor.MatMulNT(g.a(i, j), g.b(src, j)))
				}
				return cPrime
			}, func(j int, cs *tensor.Matrix) { out[i*g.pc+j] = cs })
		}
	case RS:
		for j := 0; j < g.pc; j++ {
			g.reduceScatterRows(func(i int) *tensor.Matrix {
				cPrime := tensor.New(p.M, p.N/g.pc)
				for t := 0; t < g.pc; t++ {
					src := (j + t) % g.pc
					cPrime.SetSubMatrix(src*p.M/g.pc, 0, tensor.MatMulTN(g.a(i, src), g.b(i, j)))
				}
				return cPrime
			}, func(i int, cs *tensor.Matrix) { out[i*g.pc+j] = cs })
		}
	}
	return tensor.Assemble(out, g.pr, g.pc)
}

// TestSchedulesMatchMeshFreeOracle requires both prefetch depths of every
// MeshSlice and Wang schedule to equal the oracle bit for bit. Multiples of
// 96 are what every mesh below shards with S·Block up to 8; the three
// dimensions differ so a transposed operand cannot cancel out.
func TestSchedulesMatchMeshFreeOracle(t *testing.T) {
	for _, tor := range []topology.Torus{topology.NewTorus(2, 2), topology.NewTorus(3, 4), topology.NewTorus(4, 2)} {
		for _, df := range []Dataflow{OS, LS, RS} {
			p := Problem{M: 96, N: 192, K: 288, Dataflow: df}
			a, b, ref := makeProblem(p, int64(17+int(df)))
			check := func(name string, want *tensor.Matrix, build func(pipelined bool) ChipFunc) {
				t.Helper()
				if !want.Equal(ref, tol) {
					t.Fatalf("%s %v on %v: the oracle itself is wrong by %g", name, df, tor, want.MaxAbsDiff(ref))
				}
				for _, pipelined := range []bool{false, true} {
					if got := Multiply(tor, build(pipelined), a, b); !got.BitEqual(want) {
						t.Errorf("%s %v on %v pipelined=%v: not bit-identical to the mesh-free oracle (max diff %g)",
							name, df, tor, pipelined, got.MaxAbsDiff(want))
					}
				}
			}
			for _, S := range []int{1, 2, 4} {
				for _, B := range []int{1, 2} {
					cfg := MeshSliceConfig{S: S, Block: B}
					if err := cfg.Validate(p, tor); err != nil {
						t.Fatal(err)
					}
					check(fmt.Sprintf("MeshSlice S=%d B=%d", S, B), oracleMeshSlice(p, tor, S, B, a, b), func(pipelined bool) ChipFunc {
						cfg.Pipelined = pipelined
						return MeshSlice(df, cfg)
					})
				}
			}
			if err := WangValidate(p, tor); err != nil {
				t.Fatal(err)
			}
			check("Wang", oracleWang(p, tor, a, b), func(pipelined bool) ChipFunc {
				if pipelined {
					return WangPipelined(df)
				}
				return WangDataflow(df)
			})
		}
	}
}

// TestMeshSliceRejectsZeroConfig: a zero-value config used to run the serial
// loop zero times and return an all-zero C (and divide by zero when
// pipelined); both depths must refuse it with the same invariant message.
func TestMeshSliceRejectsZeroConfig(t *testing.T) {
	for _, cfg := range []MeshSliceConfig{{}, {Pipelined: true}, {S: 2}, {Block: 2, Pipelined: true}, {S: -1, Block: 1}} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "must be positive") {
					t.Errorf("MeshSlice(OS, %+v) panicked with %q, want the S/Block invariant message", cfg, msg)
				}
			}()
			MeshSlice(OS, cfg)
			t.Errorf("MeshSlice(OS, %+v) did not panic", cfg)
		}()
	}
}
