// Package tensor provides the dense matrix substrate used by the MeshSlice
// reproduction: row-major float64 matrices, GeMM in all transpose variants,
// and the sub-shard slicing operations at the heart of the MeshSlice
// algorithm (paper §3.1, Algorithm 2).
//
// Everything here is deliberately simple and allocation-explicit: these
// matrices stand in for accelerator HBM buffers, so the functional mesh
// runtime (internal/mesh) can move real data through real collectives and
// the distributed GeMM algorithms can be verified bit-for-bit against a
// single-node reference multiplication.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major matrix of float64 values.
//
// The zero value is an empty 0x0 matrix. Data is stored in a single backing
// slice of length Rows*Cols; element (r,c) lives at Data[r*Cols+c].
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zero-initialised rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols)) // lint:invariant shape precondition
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data as a rows×cols matrix. The slice is used directly,
// not copied; len(data) must equal rows*cols.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice got %d elements for %dx%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// Random returns a rows×cols matrix with entries drawn uniformly from
// [-1, 1) by the given source. A deterministic source makes tests and
// benchmarks reproducible.
func Random(rows, cols int, rng *rand.Rand) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = 2*rng.Float64() - 1
	}
	return m
}

// Identity returns the n×n identity matrix.
// lint:allow unused collective's and netsim's tests build operands with it
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) float64 {
	m.checkIndex(r, c)
	return m.Data[r*m.Cols+c]
}

// Set stores v at element (r, c).
func (m *Matrix) Set(r, c int, v float64) {
	m.checkIndex(r, c)
	m.Data[r*m.Cols+c] = v
}

func (m *Matrix) checkIndex(r, c int) {
	if r < 0 || r >= m.Rows || c < 0 || c >= m.Cols {
		panic(fmt.Sprintf("tensor: index (%d,%d) out of range for %dx%d", r, c, m.Rows, m.Cols)) // lint:invariant bounds precondition
	}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// CopyFrom overwrites m with the contents of src, retaining m's
// allocation. Shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: CopyFrom shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, src.Rows, src.Cols)) // lint:invariant shape precondition
	}
	copy(m.Data, src.Data)
}

// CopySub overwrites m with the block of src whose top-left corner is
// (r0, c0) and whose shape is m's — SubMatrix into existing storage.
func (m *Matrix) CopySub(src *Matrix, r0, c0 int) {
	if r0 < 0 || c0 < 0 || r0+m.Rows > src.Rows || c0+m.Cols > src.Cols {
		panic(fmt.Sprintf("tensor: CopySub (%d,%d)+%dx%d out of range for %dx%d", r0, c0, m.Rows, m.Cols, src.Rows, src.Cols)) // lint:invariant bounds precondition
	}
	copyBlock(m.Data, 0, m.Cols, src.Data, r0*src.Cols+c0, src.Cols, m.Rows, m.Cols)
}

// AddSub accumulates into m the same block of src that CopySub would copy.
func (m *Matrix) AddSub(src *Matrix, r0, c0 int) {
	if r0 < 0 || c0 < 0 || r0+m.Rows > src.Rows || c0+m.Cols > src.Cols {
		panic(fmt.Sprintf("tensor: AddSub (%d,%d)+%dx%d out of range for %dx%d", r0, c0, m.Rows, m.Cols, src.Rows, src.Cols)) // lint:invariant bounds precondition
	}
	for r := 0; r < m.Rows; r++ {
		addRow(m.Row(r), src.Data[(r0+r)*src.Cols+c0:][:m.Cols])
	}
}

// addRow sets d[i] += s[i] for every i < len(d), on a vector path with
// addTo; s must hold at least len(d) values.
func addRow(d, s []float64) {
	if vectorKernels != goPath && len(d) > 0 {
		addTo(&d[0], &s[:len(d)][0], len(d))
		return
	}
	for i, v := range s[:len(d)] {
		d[i] += v
	}
}

// Zero resets every element of m to zero, retaining the allocation.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Row returns row r as a slice aliasing the matrix storage.
//
// Row sits on every copy and kernel path, so it must stay within the
// compiler's inlining budget: the bounds check is one unsigned compare and
// the panic value is a rowRangeError, whose message is only formatted if
// someone prints it.
func (m *Matrix) Row(r int) []float64 {
	if uint(r) >= uint(m.Rows) {
		panic(rowRangeError{r, m.Rows, m.Cols}) // lint:invariant bounds precondition
	}
	return m.Data[r*m.Cols : (r+1)*m.Cols]
}

// rowRangeError is Row's panic value: row r of a rows×cols matrix.
type rowRangeError struct{ r, rows, cols int }

func (e rowRangeError) Error() string {
	return fmt.Sprintf("tensor: row %d out of range for %dx%d", e.r, e.rows, e.cols)
}

// T returns the transpose of m as a new matrix.
// lint:allow unused gemm's tests build transposed oracles with it
func (m *Matrix) T() *Matrix {
	out := New(m.Cols, m.Rows)
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for c, v := range row {
			out.Data[c*out.Cols+r] = v
		}
	}
	return out
}

// Add accumulates other into m element-wise. Shapes must match.
func (m *Matrix) Add(other *Matrix) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic(fmt.Sprintf("tensor: Add shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, other.Rows, other.Cols)) // lint:invariant shape precondition
	}
	for i, v := range other.Data {
		m.Data[i] += v
	}
}

// Scale multiplies every element of m by alpha.
func (m *Matrix) Scale(alpha float64) {
	for i := range m.Data {
		m.Data[i] *= alpha
	}
}

// Equal reports whether m and other have the same shape and every pair of
// elements differs by at most tol in absolute value, as absDiff measures it:
// two NaNs agree, and a NaN against anything else never fits a finite tol.
// lint:allow unused the tests of most packages compare matrices with it
func (m *Matrix) Equal(other *Matrix, tol float64) bool {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return false
	}
	for i, v := range m.Data {
		if absDiff(v, other.Data[i]) > tol {
			return false
		}
	}
	return true
}

// absDiff is |x−y| with NaN made visible. A pair with identical bits, or two
// NaNs, differs by 0; any other pair whose difference is NaN (a NaN against
// a number) differs by +Inf, so both `<= tol` and `> tol` checks see it.
func absDiff(x, y float64) float64 {
	d := math.Abs(x - y)
	if !math.IsNaN(d) {
		return d
	}
	if math.IsNaN(x) && math.IsNaN(y) || math.Float64bits(x) == math.Float64bits(y) {
		return 0
	}
	return math.Inf(1)
}

// BitEqual reports whether m and other have the same shape and every pair
// of elements has the identical float64 bit pattern — the comparison the
// elastic checkpoint/resume guarantees are stated in, stricter than
// Equal(other, 0): it distinguishes +0 from -0 and treats equal NaN
// payloads as equal.
func (m *Matrix) BitEqual(other *Matrix) bool {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return false
	}
	for i, v := range m.Data {
		if math.Float64bits(v) != math.Float64bits(other.Data[i]) {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute element-wise difference between m
// and other, as absDiff measures it: +Inf when a NaN meets a number, so a
// NaN result never passes a tolerance check. Shapes must match.
func (m *Matrix) MaxAbsDiff(other *Matrix) float64 {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic(fmt.Sprintf("tensor: MaxAbsDiff shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, other.Rows, other.Cols)) // lint:invariant shape precondition
	}
	max := 0.0
	for i, v := range m.Data {
		if d := absDiff(v, other.Data[i]); d > max {
			max = d
		}
	}
	return max
}

// String renders small matrices for test failure messages.
func (m *Matrix) String() string {
	if m.Rows*m.Cols > 64 {
		return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
	}
	s := fmt.Sprintf("Matrix(%dx%d)[", m.Rows, m.Cols)
	for r := 0; r < m.Rows; r++ {
		if r > 0 {
			s += "; "
		}
		for c := 0; c < m.Cols; c++ {
			if c > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(r, c))
		}
	}
	return s + "]"
}

// SubMatrix copies the block starting at (r0, c0) with the given shape into
// a new matrix.
func (m *Matrix) SubMatrix(r0, c0, rows, cols int) *Matrix {
	if r0 < 0 || c0 < 0 || r0+rows > m.Rows || c0+cols > m.Cols {
		panic(fmt.Sprintf("tensor: SubMatrix (%d,%d)+%dx%d out of range for %dx%d", r0, c0, rows, cols, m.Rows, m.Cols)) // lint:invariant bounds precondition
	}
	out := New(rows, cols)
	copyBlock(out.Data, 0, cols, m.Data, r0*m.Cols+c0, m.Cols, rows, cols)
	return out
}

// SetSubMatrix copies block into m with its top-left corner at (r0, c0).
func (m *Matrix) SetSubMatrix(r0, c0 int, block *Matrix) {
	if r0 < 0 || c0 < 0 || r0+block.Rows > m.Rows || c0+block.Cols > m.Cols {
		panic(fmt.Sprintf("tensor: SetSubMatrix (%d,%d)+%dx%d out of range for %dx%d", r0, c0, block.Rows, block.Cols, m.Rows, m.Cols)) // lint:invariant bounds precondition
	}
	copyBlock(m.Data, r0*m.Cols+c0, m.Cols, block.Data, 0, block.Cols, block.Rows, block.Cols)
}

// copyBlock copies a rows×cols block from src, starting at offset sOff with
// row stride sStride, into dst at offset dOff with row stride dStride. A
// block whose rows are whole rows on both sides (both strides equal cols)
// is one contiguous run and is copied at once; any other block row by row.
func copyBlock(dst []float64, dOff, dStride int, src []float64, sOff, sStride, rows, cols int) {
	if rows == 0 || cols == 0 {
		return
	}
	if dStride == cols && sStride == cols {
		n := rows * cols
		copy(dst[dOff:dOff+n], src[sOff:sOff+n])
		return
	}
	for r := 0; r < rows; r++ {
		d, s := dOff+r*dStride, sOff+r*sStride
		copy(dst[d:d+cols], src[s:s+cols])
	}
}
