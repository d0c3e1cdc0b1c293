package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The spec loops state, one output element at a time, the sequence of
// floating-point operations each GeMM variant documents. Every kernel — the
// public entry points and the …Rows kernels on any row strip — must
// reproduce it bit for bit (NaN matched as NaN: the payload a NaN operation
// keeps depends on operand order, which the language leaves open), so any
// tiling, packing or register blocking is free to change only what the spec
// does not pin.

// addFirst is x + y where the first operand is the running value that
// started from C: when both are NaN it returns x's NaN (quieted), as an
// x86 add does with its first operand. Go's compiler may swap the operands
// of a commutative +, so the spec states that order through addFirst
// instead of leaving it to the register allocator; every kernel keeps it.
func addFirst(x, y float64) float64 {
	if math.IsNaN(x) && math.IsNaN(y) {
		return math.Float64frombits(math.Float64bits(x) | 1<<51)
	}
	return x + y
}

// specNN: start from C, add a_ik·b_kj for ascending k, skipping an exactly
// zero a_ik.
func specNN(c, a, b *Matrix) {
	for i := 0; i < c.Rows; i++ {
		for j := 0; j < c.Cols; j++ {
			s := c.At(i, j)
			for k := 0; k < a.Cols; k++ {
				if aik := a.At(i, k); aik != 0 {
					s = addFirst(s, aik*b.At(k, j))
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
			c.Set(i, j, addFirst(c.At(i, j), s))
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
					s = addFirst(s, v0*b.At(k, j)+v1*b.At(k+1, j)+v2*b.At(k+2, j)+v3*b.At(k+3, j))
				}
				for ; k < ke; k++ {
					if v := a.At(k, i); v != 0 {
						s = addFirst(s, v*b.At(k, j))
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

// exactBits is BitEqual on one element: a NaN must keep its payload too.
func exactBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y)
}

// firstMismatch returns the first element where got and want differ under
// sameBits, or "" when they agree everywhere.
func firstMismatch(got, want *Matrix) string {
	return firstMismatchBy(got, want, sameBits)
}

// firstMismatchBy is firstMismatch under the element comparison same.
func firstMismatchBy(got, want *Matrix, same func(x, y float64) bool) string {
	for idx, v := range got.Data {
		if !same(v, want.Data[idx]) {
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

// detected records, before any test lowers vectorKernels, the highest
// kernel path this machine runs.
var detected = vectorKernels

// kernelPaths lists the kernel paths this machine runs, from the Go
// kernels up to the detected path: on an AVX-512 machine the AVX path is
// forced too.
func kernelPaths() []kernelPath {
	var paths []kernelPath
	for p := goPath; p <= detected; p++ {
		paths = append(paths, p)
	}
	return paths
}

// TestKernelPathsThisMachineRuns names the kernel paths every kernel test
// here runs on this machine, and skips, saying so, where the AVX-512 path
// is not among them: CI runs it with -v before the kernel fuzz smoke, so a
// runner without AVX-512 reports the wide tiles as untested.
func TestKernelPathsThisMachineRuns(t *testing.T) {
	t.Logf("kernel paths tested here: %v", kernelPaths())
	if detected < avx512Path {
		t.Skipf("the %v path is untested on this machine: its CPU or OS lacks AVX-512 (AVX512F and the opmask and ZMM state in XCR0)", avx512Path)
	}
}

// onPath runs f with vectorKernels set to p, then restores it.
func onPath(p kernelPath, f func()) {
	defer func(prev kernelPath) { vectorKernels = prev }(vectorKernels)
	vectorKernels = p
	f()
}

// forEachPath runs f once per kernel path this machine runs, each in a
// subtest named after the path, with vectorKernels set to it.
func forEachPath(t *testing.T, f func(t *testing.T)) {
	for _, p := range kernelPaths() {
		t.Run(p.String(), func(t *testing.T) { onPath(p, func() { f(t) }) })
	}
}

// checkAgainstSpec runs v's public kernel, and its row kernel over the
// strips cut at splits, on copies of c on the current kernel path, and
// compares both with the spec.
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

// TestMatMulKernelsMatchSpec pins every GeMM variant, on every kernel path
// (one subtest each, on the same operands), to its spec loop on shapes
// that straddle tileK, tileJ, tileI, the micro-kernel and both vector tile
// widths, the tile's four rows and odd row counts, with operands seeded
// with ±0, ±Inf and NaN.
func TestMatMulKernelsMatchSpec(t *testing.T) {
	shapes := [][3]int{ // m, n, k
		{1, 1, 1}, {3, 5, 7}, {2, microW, tileK}, {5, 9, tileK + 2},
		{7, 3, tileK - 1}, {3, tileJ + 5, 20}, {4, tileJ - 1, tileK + 3},
		{tileI + 1, 13, 33}, {tileI + 2, 6, 2*tileK + 1}, {9, 2*tileJ + 6, 3},
		{16, 16, 256}, {tileI + 3, 2*microW + 1, tileK + 5}, {33, tileJ + microW + 2, 17},
		{4, vecW, tileK}, {6, vecW - 1, tileK + 1}, {11, 3*vecW + 5, 2*tileK - 1},
		{2*tileI + 6, 2 * vecW, 9}, {13, tileJ + vecW + 3, tileK + 4},
		{5, wideW, tileK + 1}, {7, wideW + vecW, 19}, {6, 2*wideW + 3, tileK - 3},
		{9, wideW + vecW + 5, 2*tileK + 1}, {4*wideW + 1, wideW - 1, 33}, {11, tileJ + wideW + vecW + 1, 10},
	}
	forEachPath(t, func(t *testing.T) {
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
	})
}

// TestKernelPathsAtTileEdges places the values each kernel path treats
// specially at the vector tiles' edges, and pins every path to the spec. In
// the reduced operand (A's rows for NN and NT, its columns for TN), output
// rows 1 and 4 hold one exact zero, so NN's four-row groups mix dense and
// sparse rows and end in a partial group; row 2 has an all-zero quad (one
// of its zeros −0) at k 4…7 while neighbour row 3 has three zeros and a
// non-zero there; row 0 holds +Inf and the last row NaN. B holds ±Inf and
// NaN, and C a −0. Widths cross both tile widths: a whole 16-wide panel
// followed by an 8-wide one, by a column tail, or by both. NT then runs
// ntEdgeShapes with the same operands, its C the first rows of a matrix
// whose last row holds sentinels, so a padded lane of the last B panel
// stored past C's last row fails as well as one stored past any other row.
func TestKernelPathsAtTileEdges(t *testing.T) {
	forEachPath(t, testKernelPathsAtTileEdges)
}

// ntEdgeShapes are the NT kernel's panel edges: B rows 16n+1 (the last
// panel holds one real row) and 16n+8+3 (a 16-wide panel, then a whole
// 8-wide one, then 3 real rows of 8), C rows 4n+1 and 4n+3 (a partial
// group of four), and k from 1 across the pack's quads and tail to past
// two tileK blocks. Every n is at most 40, so FuzzMatMulKernels seeds them
// too.
var ntEdgeShapes = func() [][3]int {
	var shapes [][3]int
	for i, n := range []int{wideW + 1, wideW + vecW + 3, 2*wideW + 1} {
		for j, k := range []int{1, 3, 4, 5, tileK, tileK + 1, 2*tileK + 3} {
			shapes = append(shapes, [3]int{5 + 2*((i+j)%2), n, k})
		}
	}
	return shapes
}()

func testKernelPathsAtTileEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	negZero := math.Copysign(0, -1)
	shapes := [][3]int{ // m, n, k
		{7, 2*vecW + 1, tileK + 1}, {5, vecW - 1, 8}, {6, 3 * vecW, 2*tileK + 5},
		{9, vecW + 3, tileK - 1}, {5, vecW, tileK}, {10, 4*vecW + 7, 3*tileK + 2},
		{7, wideW + vecW, tileK + 1}, {6, 2*wideW + 3, 9}, {9, wideW + vecW + 3, 2*tileK + 1},
	}
	operands := func(v kernelVariant, m, n, k int) (a, b, c *Matrix) {
		aR, aC, bR, bC := v.shape(m, n, k)
		a, b, c = Random(aR, aC, rng), Random(bR, bC, rng), Random(m, n, rng)
		set := func(i, kk int, x float64) {
			if v.name == "TN" {
				a.Set(kk, i, x)
			} else {
				a.Set(i, kk, x)
			}
		}
		set(1, k/2, 0)
		set(4, 0, negZero)
		for q := 4; q < min(8, k); q++ {
			set(2, q, 0)
			set(3, q, 0)
		}
		set(2, min(5, k-1), negZero)
		set(3, min(7, k-1), 1.5)
		set(0, min(1, k-1), math.Inf(1))
		set(m-1, k-1, math.NaN())
		b.Data[0], b.Data[len(b.Data)/2], b.Data[len(b.Data)-1] = math.Inf(1), math.Inf(-1), math.NaN()
		c.Data[1] = negZero
		return a, b, c
	}
	for _, s := range shapes {
		m, n, k := s[0], s[1], s[2]
		for _, v := range kernelVariants {
			a, b, c := operands(v, m, n, k)
			checkAgainstSpec(t, v, c, a, b, []int{m / 2})
		}
	}
	nt := kernelVariants[slices.IndexFunc(kernelVariants, func(v kernelVariant) bool { return v.name == "NT" })]
	sentinel := 1234.5 // finite: a stray C + sum store changes it
	for _, s := range ntEdgeShapes {
		m, n, k := s[0], s[1], s[2]
		a, b, c := operands(nt, m, n, k)
		want := c.Clone()
		nt.spec(want, a, b)
		full := New(m+1, n)
		copy(full.Data, c.Data)
		for j := range full.Row(m) {
			full.Row(m)[j] = sentinel
		}
		got := FromSlice(m, n, full.Data[:m*n])
		nt.add(got, a, b)
		if at := firstMismatch(got, want); at != "" {
			t.Errorf("NT %dx%dx%d differs from spec at %s", m, n, k, at)
		}
		for j, x := range full.Row(m) {
			if !exactBits(x, sentinel) {
				t.Errorf("NT %dx%dx%d wrote %v past C's last row, column %d", m, n, k, x, j)
				break
			}
		}
	}
}

// TestZeroSkippingTilesAtEdges pins every kernel path to the spec where
// the vector paths skip zeros inside a tile: NN's masked tile (rows that hold
// a zero) and TN's per-row quad skip. In the reduced operand, output rows
// 0…3 form one four-row group in which only row 1 holds a zero (one +0);
// row 4's first k block is all zeros, half of them −0; row 5 mixes ±0 with
// a NaN and row 6 a NaN beside a −0 in the same quad; rows 6 and 7 share
// an all-zero quad at k 8…11 that row 5 does not have, and row 5 has one
// at k 12…15 that its neighbours do not. B holds +Inf, −Inf and NaN in the
// rows of k where rows 1 and 4 hold zeros, so a skip that leaks turns
// those rows to NaN; B's column 0 is all +0 and row 7, whose C starts at
// −0 there, skips k 0 and is otherwise negative. C widths are 16, 32,
// 8n+3, 16n+8 and 16n+3, row counts 4n+1…4n+3, and k is never a multiple
// of 4.
func TestZeroSkippingTilesAtEdges(t *testing.T) {
	forEachPath(t, testZeroSkippingTilesAtEdges)
}

func testZeroSkippingTilesAtEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	negZero := math.Copysign(0, -1)
	shapes := [][3]int{ // m, n, k
		{9, 16, 37}, {10, 32, tileK + 6}, {11, 19, 2*tileK + 3},
		{13, 2*vecW + 3, 21}, {14, 16, tileK - 1}, {15, 35, tileK + 1},
		{9, wideW + vecW, 23}, {10, 2*wideW + vecW, tileK + 2}, {11, wideW + 3, 2*tileK + 5},
	}
	for _, s := range shapes {
		m, n, k := s[0], s[1], s[2]
		for _, v := range kernelVariants {
			aR, aC, bR, bC := v.shape(m, n, k)
			a, b, c := Random(aR, aC, rng), Random(bR, bC, rng), Random(m, n, rng)
			atA := func(i, kk int) *float64 {
				if v.name == "TN" {
					return &a.Row(kk)[i]
				}
				return &a.Row(i)[kk]
			}
			setA := func(i, kk int, x float64) { *atA(i, kk) = x }
			setB := func(kk, j int, x float64) {
				if v.name == "NT" {
					b.Set(j, kk, x)
				} else {
					b.Set(kk, j, x)
				}
			}
			setA(1, k/3, 0)
			for kk := range min(k, tileK) {
				setA(4, kk, []float64{0, negZero}[kk%2])
			}
			setA(5, 2, negZero)
			setA(5, 3, math.NaN())
			setA(5, 17, 0)
			for q := 8; q < 12; q++ {
				setA(6, q, 0)
				setA(7, q, negZero)
			}
			setA(6, 1, math.NaN())
			setA(6, 0, negZero)
			for q := 12; q < 16; q++ {
				setA(5, q, 0)
			}
			for j := range n {
				setB(k/3, j, []float64{math.Inf(1), math.Inf(-1), math.NaN()}[j%3])
				setB(0, j, []float64{math.Inf(-1), math.NaN(), math.Inf(1)}[j%3])
			}
			// Row 7 skips k 0 and adds only −0 products to the −0 in its
			// column 0, so that element stays −0 only if a skip adds
			// nothing at all (adding +0 would turn it to +0).
			setA(7, 0, 0)
			for kk := 1; kk < k; kk++ {
				*atA(7, kk) = -math.Abs(*atA(7, kk))
			}
			for kk := range k {
				setB(kk, 0, 0)
			}
			c.Set(7, 0, negZero)
			c.Data[2] = negZero
			checkAgainstSpec(t, v, c, a, b, []int{m/2 + 1})
		}
	}
	// NN splits its rows with zeroFree, whose AVX scan takes groups of 16
	// values, then of 4, and leaves the last k mod 4 to Go. For every k
	// block length 1…19, row p holds a single zero at k = p (+0 on even p,
	// −0 on odd), so across the lengths a zero sits in every lane of a
	// 16-value block, of a 4-value group and of the Go tail; row k holds
	// NaN beside zeros; row k+1 is ±0 up to its tail and positive there;
	// row k+2 is all +0. A is positive elsewhere and B's column 0 is +Inf,
	// so a zero the scan misses sends its row to the dense tile, whose
	// 0·Inf turns that element from +Inf (or C, where every k is skipped)
	// to NaN.
	for k := 1; k <= 19; k++ {
		m, n := k+3, 2*vecW+3
		for _, v := range kernelVariants {
			aR, aC, bR, bC := v.shape(m, n, k)
			a, b, c := Random(aR, aC, rng), Random(bR, bC, rng), Random(m, n, rng)
			atA := func(i, kk int) *float64 {
				if v.name == "TN" {
					return &a.Row(kk)[i]
				}
				return &a.Row(i)[kk]
			}
			for i := range m {
				for kk := range k {
					*atA(i, kk) = math.Abs(*atA(i, kk)) + 0.5
				}
			}
			for p := range k {
				*atA(p, p) = []float64{0, negZero}[p%2]
				*atA(k, p) = []float64{0, math.NaN(), negZero}[p%3]
				if p < k&^3 {
					*atA(k+1, p) = []float64{negZero, 0}[p%2]
				}
				*atA(k+2, p) = 0
			}
			for kk := range k {
				if v.name == "NT" {
					b.Set(0, kk, math.Inf(1))
				} else {
					b.Set(kk, 0, math.Inf(1))
				}
			}
			checkAgainstSpec(t, v, c, a, b, []int{m / 2})
		}
	}
}

// TestZeroFreeFindsEveryZero holds zeroFree, on every kernel path, to the
// plain loop over x: one ±0 at every position of lengths 0…40 (every lane
// of the AVX scan's 16-value blocks and 4-value groups, and every place in
// the Go tail), ±0 beside NaN, NaN alone (not a zero) and all-zero slices.
func TestZeroFreeFindsEveryZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	want := func(x []float64) bool {
		for _, v := range x {
			if v == 0 { // lint:float-exact the spec of zeroFree
				return false
			}
		}
		return true
	}
	var cases [][]float64
	for n := 0; n <= 40; n++ {
		plain := make([]float64, n)
		for i := range plain {
			plain[i] = 1 + float64(i)
		}
		cases = append(cases, plain)
		nan := slices.Clone(plain)
		for i := range nan {
			nan[i] = math.NaN()
		}
		cases = append(cases, nan)
		zeros := make([]float64, n)
		cases = append(cases, zeros)
		for p := range n {
			for _, z := range []float64{0, negZero} {
				x := slices.Clone(plain)
				x[p] = z
				cases = append(cases, x)
				y := slices.Clone(nan)
				y[p] = z
				cases = append(cases, y)
			}
		}
	}
	forEachPath(t, func(t *testing.T) {
		for _, x := range cases {
			// Scan from an offset too, so the AVX loads are unaligned.
			for _, off := range []int{0, 1} {
				buf := append(make([]float64, off), x...)
				if got := zeroFree(buf[off:]); got != want(x) {
					t.Errorf("zeroFree(%v) = %v, want %v", x, got, want(x))
				}
			}
		}
	})
}

// TestNaNFromBKeepsItsBits holds every kernel path to the spec's exact
// bits, not just NaN for NaN, where an output element meets a single NaN:
// each column of B holds one NaN, with a payload and a sign that alternate
// by column, at a k that moves with the column (quads and per-k tails
// alike), and A is post-ReLU, so NN's rows all take the masked tile. A NaN
// meeting only finite values passes through every multiply and add with
// its sign and payload, so a path that flips its sign fails here.
func TestNaNFromBKeepsItsBits(t *testing.T) {
	nans := []float64{math.Float64frombits(0x7ff8000000000123), math.Float64frombits(0xfff8000000000456)}
	forEachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(4949))
		for _, s := range [][3]int{{9, 19, 37}, {12, 32, tileK + 5}, {5, 16, 2*tileK + 2}, {7, wideW + vecW + 3, 21}} {
			m, n, k := s[0], s[1], s[2]
			for _, v := range kernelVariants {
				aR, aC, bR, bC := v.shape(m, n, k)
				a, b, c := postReLU(aR, aC, rng), Random(bR, bC, rng), Random(m, n, rng)
				for j := range n {
					kk := (7 * j) % k
					if v.name == "NT" {
						b.Set(j, kk, nans[j%2])
					} else {
						b.Set(kk, j, nans[j%2])
					}
				}
				want := c.Clone()
				v.spec(want, a, b)
				got := c.Clone()
				v.add(got, a, b)
				for i, x := range got.Data {
					if math.Float64bits(x) != math.Float64bits(want.Data[i]) {
						t.Errorf("%s %dx%dx%d: element (%d,%d) = %#x, spec %#x", v.name, m, n, k, i/n, i%n, math.Float64bits(x), math.Float64bits(want.Data[i]))
						break
					}
				}
			}
		}
	})
}

// TestNaNInCKeepsItsBits holds the vector paths to the spec's exact bits
// where an element of C is already NaN and the sum that meets it is a NaN
// with another payload: of two NaNs an x86 add keeps its first operand's,
// and the spec puts C first (addFirst), so a tile that adds C to its sum,
// rather than its sum to C, fails here. Every even column of C is NaN,
// and B holds a NaN of another payload and sign in every column, at a k
// that moves with the column; A is ReLU-like, so NN meets its dense and
// masked tiles and TN its quad skips. NN and TN run only widths of whole
// vector panels, since the columns past the last panel run Go loops; NT's
// last panels hold 3 or 1 real rows, so its masked store is pinned too.
// AddSub, C += block, is held to the same order by checkAddSub. The Go
// path runs the same cases NaN for NaN (nanOrder).
func TestNaNInCKeepsItsBits(t *testing.T) {
	cNaN, bNaN := math.Float64frombits(0x7ff8000000000abc), math.Float64frombits(0xfff8000000000def)
	forEachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(5050))
		shapes := [][3]int{{9, 3 * vecW, 37}, {12, 2 * wideW, tileK + 5}, {7, wideW + vecW, 21}, {5, 2 * wideW, 2*tileK + 3}, {9, wideW + 3, 37}, {5, wideW + 1, 2*tileK + 3}}
		for _, s := range shapes {
			m, n, k := s[0], s[1], s[2]
			for _, v := range kernelVariants {
				if n%vecW != 0 && v.name != "NT" {
					continue
				}
				aR, aC, bR, bC := v.shape(m, n, k)
				a, b, c := reluOperand(aR, aC, rng), Random(bR, bC, rng), Random(m, n, rng)
				for j := range n {
					if v.name == "NT" {
						b.Set(j, (5*j)%k, bNaN)
					} else {
						b.Set((5*j)%k, j, bNaN)
					}
					for i := 0; j%2 == 0 && i < m; i++ {
						c.Set(i, j, cNaN)
					}
				}
				want := c.Clone()
				v.spec(want, a, b)
				got := c.Clone()
				v.add(got, a, b)
				if at := firstMismatchBy(got, want, nanOrder()); at != "" {
					t.Errorf("%s %dx%dx%d: differs from spec at %s", v.name, m, n, k, at)
				}
			}
		}
		checkAddSub(t, 3, wideW+3, 2, rng)
	})
}

// nanOrder is the element comparison that pins which of two NaNs an add
// keeps: exact bits on a vector path, where assembly does the add, and NaN
// for NaN on the Go path, where the operand order of a commutative + is
// the compiler's choice at each site (in some loops it folds the load of C
// into the add as its second operand, so the sum's payload is kept).
func nanOrder() func(x, y float64) bool {
	if vectorKernels == goPath {
		return sameBits
	}
	return exactBits
}

// TestAddSubMatchesLoop holds AddSub, on every kernel path, to the plain
// loop at every width 0…17 (each place in the vector add's steps of 16,
// 4 and 1 values) and nonzero column offsets (checkAddSub).
func TestAddSubMatchesLoop(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(5151))
		for w := 0; w <= 17; w++ {
			for _, c0 := range []int{1, 2, 5} {
				checkAddSub(t, 3, w, c0, rng)
			}
		}
	})
}

// checkAddSub adds the rows×w block of a random source at row 1, column
// c0 to a random rows×w matrix with AddSub, and requires the bits of the
// loop d[i] = addFirst(d[i], s[i]) under nanOrder, where NaNs of two
// payloads sit on both sides (so where both are NaN the destination's
// payload must stay), and that the values stored right after the matrix
// keep theirs.
func checkAddSub(t *testing.T, rows, w, c0 int, rng *rand.Rand) {
	t.Helper()
	dNaN, sNaN := math.Float64frombits(0x7ff8000000000abc), math.Float64frombits(0xfff8000000000def)
	src := Random(rows+2, w+c0+3, rng)
	buf := Random(rows+1, w, rng).Data
	for i := range src.Data {
		if i%3 == 0 {
			src.Data[i] = sNaN
		}
	}
	for i := range buf {
		if i%2 == 0 {
			buf[i] = dNaN
		}
	}
	tail := slices.Clone(buf[rows*w:])
	got := FromSlice(rows, w, buf[:rows*w])
	want := got.Clone()
	for r := range rows {
		for j := range w {
			want.Set(r, j, addFirst(want.At(r, j), src.At(1+r, c0+j)))
		}
	}
	got.AddSub(src, 1, c0)
	if at := firstMismatchBy(got, want, nanOrder()); at != "" {
		t.Errorf("AddSub %dx%d at column %d: differs from the loop at %s", rows, w, c0, at)
	}
	if !slices.EqualFunc(buf[rows*w:], tail, exactBits) {
		t.Errorf("AddSub %dx%d at column %d wrote past the matrix", rows, w, c0)
	}
}

// postReLU draws a rows×cols matrix of ReLU outputs: every negative value
// is clamped to +0, so about half of each row is zero and TN meets all-zero
// quads at random rows and k.
func postReLU(rows, cols int, rng *rand.Rand) *Matrix {
	m := Random(rows, cols, rng)
	for i, v := range m.Data {
		m.Data[i] = max(v, 0)
	}
	return m
}

// reluOperand draws a rows×cols matrix shaped like a ReLU activation: odd
// rows keep their negative values, even rows have them clamped to +0. The
// NN kernels meet dense and sparse rows, TN all-zero quads beside live ones.
func reluOperand(rows, cols int, rng *rand.Rand) *Matrix {
	m := Random(rows, cols, rng)
	for r := 0; r < rows; r += 2 {
		for j, v := range m.Row(r) {
			m.Row(r)[j] = max(v, 0)
		}
	}
	return m
}

// TestVectorKernelsMatchGoAtBenchmarkShapes holds every vector path
// bit-equal to the Go path at the kernel shapes the benchmark's GeMM
// workloads run: gemm_compute's per-chip tiles (NN 128³ and NT/TN 128³ on
// 4×4; NN 64×64×128, NT 64×128×64 and TN 128×64×64 on 8×8), gemm_fine's
// 16×16×256, 16×16×2048, 16×256×16 and 16×16×16 tiles, and the elastic
// MLP's steps (batch 64, 256→512→128: both forward products, dH, dW2 and
// dW1), serial and per chip on 2×4 and 2×2 meshes. Operands are ReLU-like
// (dense and sparse rows, zero quads), post-ReLU (every row sparse) or
// seeded with ±0, ±Inf and NaN.
func TestVectorKernelsMatchGoAtBenchmarkShapes(t *testing.T) {
	if detected == goPath {
		t.Skip("no AVX on this machine: the Go kernels are the only path")
	}
	shapes := []struct {
		variant string
		m, n, k int
	}{
		{"NN", 128, 128, 128}, {"NT", 128, 128, 128}, {"TN", 128, 128, 128},
		{"NN", 64, 64, 128}, {"NT", 64, 64, 128}, {"TN", 64, 64, 128},
		{"NT", 64, 128, 64}, {"TN", 128, 64, 64},
		{"NN", 16, 16, 256}, {"NN", 16, 16, 2048}, {"NT", 16, 256, 16}, {"NN", 16, 256, 16}, {"TN", 16, 256, 16}, {"NN", 16, 16, 16},
		{"NN", 64, 512, 256}, {"NN", 64, 128, 512}, {"NT", 64, 512, 128},
		{"TN", 512, 128, 64}, {"TN", 256, 512, 64},
		// The elastic step per chip on 2×4, then on 2×2.
		{"NN", 32, 128, 256}, {"NN", 32, 32, 512}, {"TN", 256, 32, 64}, {"NT", 32, 128, 128}, {"TN", 128, 128, 64},
		{"NN", 32, 256, 256}, {"NN", 32, 64, 512}, {"TN", 256, 64, 64}, {"NT", 32, 256, 128}, {"TN", 128, 256, 64},
	}
	for _, p := range kernelPaths()[1:] {
		t.Run(p.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(4848))
			for _, s := range shapes {
				i := slices.IndexFunc(kernelVariants, func(v kernelVariant) bool { return v.name == s.variant })
				v := kernelVariants[i]
				aR, aC, bR, bC := v.shape(s.m, s.n, s.k)
				for _, draw := range []func(rows, cols int, rng *rand.Rand) *Matrix{reluOperand, postReLU, specOperand} {
					a, b, c := draw(aR, aC, rng), draw(bR, bC, rng), draw(s.m, s.n, rng)
					want, got := c.Clone(), c.Clone()
					onPath(goPath, func() { v.add(want, a, b) })
					onPath(p, func() { v.add(got, a, b) })
					if at := firstMismatch(got, want); at != "" {
						t.Errorf("%s %dx%dx%d: differs from the Go path at %s", v.name, s.m, s.n, s.k, at)
					}
				}
			}
		})
	}
}
