package gemm

import (
	"fmt"

	"meshslice/internal/collective"
	"meshslice/internal/mesh"
	"meshslice/internal/obs/recorder"
	"meshslice/internal/tensor"
	"meshslice/internal/topology"
)

// This file implements SUMMA (paper §2.3.3, Fig. 2a): a loop of P
// iterations, each broadcasting one panel of a flowing input along its ring
// (and, for LS/RS, reducing one output panel to its owner). P must be a
// common multiple of the mesh dimensions so every panel has a well-defined
// owner chip.

// SUMMAConfig parameterises SUMMA.
type SUMMAConfig struct {
	// Iterations is the panel count P; it must be a common multiple of the
	// mesh rows and columns. Zero selects lcm(Pr, Pc). The paper applies
	// loop unrolling to reduce SUMMA's iteration count when comparing
	// against MeshSlice (§4.2), which corresponds to choosing a smaller P.
	Iterations int
}

// SUMMAPanels returns the smallest SUMMA panel count P ≥ p that is a
// common multiple of the mesh rows and columns, so that every panel has an
// owner chip: lcm(Pr, Pc) for any p up to it. A count p is usable exactly
// when SUMMAPanels(t, p) == p.
func SUMMAPanels(t topology.Torus, p int) int {
	l := t.Rows / gcd(t.Rows, t.Cols) * t.Cols
	if p <= l {
		return l
	}
	return (p + l - 1) / l * l
}

// iterations is panels for a chip function, which has no error path.
func (cfg SUMMAConfig) iterations(t topology.Torus) int {
	p, err := cfg.panels(t)
	if err != nil {
		panic(err)
	}
	return p
}

// panels resolves the panel count for the given torus: zero selects
// SUMMAPanels' default, and any other count must be usable.
func (cfg SUMMAConfig) panels(t topology.Torus) (int, error) {
	p := cfg.Iterations
	if p == 0 {
		return SUMMAPanels(t, 0), nil
	}
	if SUMMAPanels(t, p) != p {
		return 0, fmt.Errorf("gemm: SUMMA iterations %d not a common multiple of %v", p, t)
	}
	return p, nil
}

// Validate reports whether SUMMA with cfg can run the problem on the torus:
// the panelled dimension must split evenly into Iterations panels.
func (cfg SUMMAConfig) Validate(p Problem, t topology.Torus) error {
	if err := checkDataflow(p.Dataflow); err != nil {
		return err
	}
	iters, err := cfg.panels(t)
	if err != nil {
		return err
	}
	dim := p.K
	switch p.Dataflow {
	case LS:
		dim = p.N
	case RS:
		dim = p.M
	}
	if !divisible(dim, iters) {
		return fmt.Errorf("gemm: SUMMA panel dimension %d not divisible by %d iterations", dim, iters)
	}
	return nil
}

// SUMMA returns the ChipFunc for the SUMMA algorithm in the given dataflow.
func SUMMA(df Dataflow, cfg SUMMAConfig) ChipFunc {
	switch df {
	case OS:
		return summaOS(cfg)
	case LS:
		return summaLS(cfg)
	case RS:
		return summaRS(cfg)
	default:
		panic(fmt.Sprintf("gemm: unknown dataflow %d", int(df)))
	}
}

// summaOS: for each panel p of the K dimension, the owning column
// broadcasts its A panel along each row, the owning row broadcasts its B
// panel down each column, and every chip accumulates the partial product.
func summaOS(cfg SUMMAConfig) ChipFunc {
	return func(c *mesh.Chip, aij, bij *tensor.Matrix) *tensor.Matrix {
		row, col := c.RowComm(), c.ColComm()
		iters := cfg.iterations(torusOf(c))
		perCol := iters / row.Size // panels owned per chip column
		perRow := iters / col.Size // panels owned per chip row
		aw := aij.Cols / perCol    // A panel width (K/P)
		bh := bij.Rows / perRow    // B panel height (K/P)
		cij := tensor.New(aij.Rows, bij.Cols)
		for p := 0; p < iters; p++ {
			c.SpanStart(recorder.OpGemmStep, p)
			ownerCol, offA := p/perCol, (p%perCol)*aw
			var aPanel *tensor.Matrix
			if row.Pos == ownerCol {
				aPanel = aij.SubMatrix(0, offA, aij.Rows, aw)
			}
			aPrime := collective.Broadcast(row, ownerCol, aPanel)

			ownerRow, offB := p/perRow, (p%perRow)*bh
			var bPanel *tensor.Matrix
			if col.Pos == ownerRow {
				bPanel = bij.SubMatrix(offB, 0, bh, bij.Cols)
			}
			bPrime := collective.Broadcast(col, ownerRow, bPanel)

			tensor.MatMulAdd(cij, aPrime, bPrime)
			c.SpanEnd(recorder.OpGemmStep)
		}
		return cij
	}
}

// summaLS: for each panel p of the N dimension, the owning row broadcasts
// its B panel down each column, every chip computes the partial product
// C' = A·B'ᵀ over its local K columns, and C' is reduced along the row to
// the chip column owning output panel p.
func summaLS(cfg SUMMAConfig) ChipFunc {
	return func(c *mesh.Chip, aij, bij *tensor.Matrix) *tensor.Matrix {
		row, col := c.RowComm(), c.ColComm()
		iters := cfg.iterations(torusOf(c))
		perRow := iters / col.Size // B panels owned per chip row
		perCol := iters / row.Size // C panels owned per chip column
		bh := bij.Rows / perRow    // B panel height (N/P)
		n := bij.Rows * col.Size
		cij := tensor.New(aij.Rows, n/row.Size)
		cw := cij.Cols / perCol // C panel width (N/P)
		for p := 0; p < iters; p++ {
			c.SpanStart(recorder.OpGemmStep, p)
			ownerRow, offB := p/perRow, (p%perRow)*bh
			var bPanel *tensor.Matrix
			if col.Pos == ownerRow {
				bPanel = bij.SubMatrix(offB, 0, bh, bij.Cols)
			}
			bPrime := collective.Broadcast(col, ownerRow, bPanel)

			cPrime := tensor.MatMulNT(aij, bPrime) // M/Pr × N/P partial

			ownerCol, offC := p/perCol, (p%perCol)*cw
			if red := collective.Reduce(row, ownerCol, cPrime); red != nil {
				cij.SetSubMatrix(0, offC, red)
			}
			c.SpanEnd(recorder.OpGemmStep)
		}
		return cij
	}
}

// summaRS: for each panel p of the M dimension, the owning column
// broadcasts its A panel along each row, every chip computes the partial
// product C' = A'ᵀ·B over its local K rows, and C' is reduced down the
// column to the chip row owning output panel p.
func summaRS(cfg SUMMAConfig) ChipFunc {
	return func(c *mesh.Chip, aij, bij *tensor.Matrix) *tensor.Matrix {
		row, col := c.RowComm(), c.ColComm()
		iters := cfg.iterations(torusOf(c))
		perCol := iters / row.Size // A panels owned per chip column
		perRow := iters / col.Size // C panels owned per chip row
		aw := aij.Cols / perCol    // A panel width (M/P)
		m := aij.Cols * row.Size
		cij := tensor.New(m/col.Size, bij.Cols)
		ch := cij.Rows / perRow // C panel height (M/P)
		for p := 0; p < iters; p++ {
			c.SpanStart(recorder.OpGemmStep, p)
			ownerCol, offA := p/perCol, (p%perCol)*aw
			var aPanel *tensor.Matrix
			if row.Pos == ownerCol {
				aPanel = aij.SubMatrix(0, offA, aij.Rows, aw)
			}
			aPrime := collective.Broadcast(row, ownerCol, aPanel)

			cPrime := tensor.MatMulTN(aPrime, bij) // M/P × N/Pc partial

			ownerRow, offC := p/perRow, (p%perRow)*ch
			if red := collective.Reduce(col, ownerRow, cPrime); red != nil {
				cij.SetSubMatrix(offC, 0, red)
			}
			c.SpanEnd(recorder.OpGemmStep)
		}
		return cij
	}
}

func torusOf(c *mesh.Chip) topology.Torus {
	return topology.Torus{Rows: c.ColComm().Size, Cols: c.RowComm().Size}
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
