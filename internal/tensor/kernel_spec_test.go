package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The spec loops state, one output element at a time, the sequence of
// floating-point operations each GeMM variant documents. Every kernel — the
// public entry points and the …Rows kernels on any row strip — must
// reproduce it bit for bit (NaN matched as NaN: the payload a NaN operation
// keeps depends on operand order, which the language leaves open), so any
// tiling, packing or register blocking is free to change only what the spec
// does not pin.

// specNN: start from C, add a_ik·b_kj for ascending k, skipping an exactly
// zero a_ik.
func specNN(c, a, b *Matrix) {
	for i := 0; i < c.Rows; i++ {
		for j := 0; j < c.Cols; j++ {
			s := c.At(i, j)
			for k := 0; k < a.Cols; k++ {
				if aik := a.At(i, k); aik != 0 {
					s += aik * b.At(k, j)
				}
			}
			c.Set(i, j, s)
		}
	}
}

// specNT: a private sum from +0 over ascending k, with no zero skip, added
// to C once.
func specNT(c, a, b *Matrix) {
	for i := 0; i < c.Rows; i++ {
		for j := 0; j < c.Cols; j++ {
			s := 0.0
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(j, k)
			}
			c.Set(i, j, c.At(i, j)+s)
		}
	}
}

// specTN: start from C; inside each tileK block, quads on the global k grid
// each add their four products summed left to right, a quad whose four A
// values are all exactly zero adds nothing; then the block's scalar tail
// adds a_ki·b_kj in ascending k, skipping an exactly zero a_ki.
func specTN(c, a, b *Matrix) {
	for i := 0; i < c.Rows; i++ {
		for j := 0; j < c.Cols; j++ {
			s := c.At(i, j)
			for kb := 0; kb < a.Rows; kb += tileK {
				ke := min(kb+tileK, a.Rows)
				k := kb
				for ; k+4 <= ke; k += 4 {
					v0, v1, v2, v3 := a.At(k, i), a.At(k+1, i), a.At(k+2, i), a.At(k+3, i)
					if v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 {
						continue
					}
					s += v0*b.At(k, j) + v1*b.At(k+1, j) + v2*b.At(k+2, j) + v3*b.At(k+3, j)
				}
				for ; k < ke; k++ {
					if v := a.At(k, i); v != 0 {
						s += v * b.At(k, j)
					}
				}
			}
			c.Set(i, j, s)
		}
	}
}

// sameBits is BitEqual with every NaN matched to every other NaN.
func sameBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || math.IsNaN(x) && math.IsNaN(y)
}

// firstMismatch returns the first element where got and want differ under
// sameBits, or "" when they agree everywhere.
func firstMismatch(got, want *Matrix) string {
	for idx, v := range got.Data {
		if !sameBits(v, want.Data[idx]) {
			return fmt.Sprintf("(%d,%d): got %v (%#x), want %v (%#x)", idx/got.Cols, idx%got.Cols,
				v, math.Float64bits(v), want.Data[idx], math.Float64bits(want.Data[idx]))
		}
	}
	return ""
}

// kernelVariant is one GeMM variant: its spec loop, public entry point, row
// kernel, and the operand shapes of an m×n output reduced over k.
type kernelVariant struct {
	name  string
	spec  func(c, a, b *Matrix)
	add   func(c, a, b *Matrix)
	rows  func(c, a, b *Matrix, lo, hi int)
	shape func(m, n, k int) (aR, aC, bR, bC int)
}

var kernelVariants = []kernelVariant{
	{"NN", specNN, MatMulAdd, matMulAddRows, func(m, n, k int) (int, int, int, int) { return m, k, k, n }},
	{"NT", specNT, MatMulAddNT, matMulAddNTRows, func(m, n, k int) (int, int, int, int) { return m, k, n, k }},
	{"TN", specTN, MatMulAddTN, matMulAddTNRows, func(m, n, k int) (int, int, int, int) { return k, m, k, n }},
}

// checkAgainstSpec runs v's public kernel, and its row kernel over the
// strips cut at splits, on copies of c, and compares both with the spec.
func checkAgainstSpec(t *testing.T, v kernelVariant, c, a, b *Matrix, splits []int) {
	t.Helper()
	want := c.Clone()
	v.spec(want, a, b)
	got := c.Clone()
	v.add(got, a, b)
	if at := firstMismatch(got, want); at != "" {
		t.Errorf("%s %dx%d·%dx%d public kernel differs from spec at %s", v.name, a.Rows, a.Cols, b.Rows, b.Cols, at)
	}
	got = c.Clone()
	lo := 0
	for _, hi := range append(splits, c.Rows) {
		v.rows(got, a, b, lo, hi)
		lo = hi
	}
	if at := firstMismatch(got, want); at != "" {
		t.Errorf("%s %dx%d·%dx%d row kernel on strips %v differs from spec at %s", v.name, a.Rows, a.Cols, b.Rows, b.Cols, splits, at)
	}
}

// specialValues are the operands whose handling the spec pins beyond
// rounding: signed zeros (skipped or not, +0 vs −0 sums), infinities and NaN.
var specialValues = []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}

// specOperand draws a rows×cols matrix whose rows are, at random, plain
// uniform values, sprinkled with special values, mostly ±0 (so TN meets
// all-zero quads), or sprinkled with non-zero specials only (so the NN
// micro-kernel meets Inf and NaN on the rows it takes).
func specOperand(rows, cols int, rng *rand.Rand) *Matrix {
	m := Random(rows, cols, rng)
	for r := 0; r < rows; r++ {
		row := m.Row(r)
		switch rng.Intn(4) {
		case 1:
			for j := range row {
				if rng.Intn(8) == 0 {
					row[j] = specialValues[rng.Intn(len(specialValues))]
				}
			}
		case 2:
			for j := range row {
				if rng.Intn(4) != 0 {
					row[j] = specialValues[rng.Intn(2)]
				}
			}
		case 3:
			for j := range row {
				if rng.Intn(32) == 0 {
					row[j] = specialValues[2+rng.Intn(3)]
				}
			}
		}
	}
	return m
}

// TestMatMulKernelsMatchSpec pins every GeMM variant to its spec loop on
// shapes that straddle tileK, tileJ, tileI, the micro-kernel width and odd
// row counts, with operands seeded with ±0, ±Inf and NaN.
func TestMatMulKernelsMatchSpec(t *testing.T) {
	shapes := [][3]int{ // m, n, k
		{1, 1, 1}, {3, 5, 7}, {2, microW, tileK}, {5, 9, tileK + 2},
		{7, 3, tileK - 1}, {3, tileJ + 5, 20}, {4, tileJ - 1, tileK + 3},
		{tileI + 1, 13, 33}, {tileI + 2, 6, 2*tileK + 1}, {9, 2*tileJ + 6, 3},
		{16, 16, 256}, {tileI + 3, 2*microW + 1, tileK + 5}, {33, tileJ + microW + 2, 17},
	}
	rng := rand.New(rand.NewSource(2024))
	for _, v := range kernelVariants {
		for _, s := range shapes {
			m, n, k := s[0], s[1], s[2]
			aR, aC, bR, bC := v.shape(m, n, k)
			a, b, c := specOperand(aR, aC, rng), specOperand(bR, bC, rng), specOperand(m, n, rng)
			splits := []int{}
			if m > 2 {
				splits = []int{1 + rng.Intn(m/2), m/2 + 1}
			}
			checkAgainstSpec(t, v, c, a, b, splits)
		}
	}
}
