package tensor

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

const gemmTol = 1e-9

func TestMatMulKnownValues(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	got := MatMul(a, b)
	want := FromSlice(2, 2, []float64{58, 64, 139, 154})
	if !got.Equal(want, gemmTol) {
		t.Errorf("MatMul = %v, want %v", got, want)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := Random(5, 5, rng)
	if !MatMul(a, Identity(5)).Equal(a, gemmTol) {
		t.Errorf("A·I != A")
	}
	if !MatMul(Identity(5), a).Equal(a, gemmTol) {
		t.Errorf("I·A != A")
	}
}

func TestMatMulAddAccumulates(t *testing.T) {
	a := FromSlice(1, 1, []float64{2})
	b := FromSlice(1, 1, []float64{3})
	c := FromSlice(1, 1, []float64{10})
	MatMulAdd(c, a, b)
	if c.At(0, 0) != 16 {
		t.Errorf("MatMulAdd = %v, want 16", c.At(0, 0))
	}
}

func TestMatMulDimMismatchPanics(t *testing.T) {
	defer expectPanic(t, "MatMul")
	MatMul(New(2, 3), New(4, 2))
}

func TestMatMulNTMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := Random(4, 6, rng)
	b := Random(5, 6, rng)
	got := MatMulNT(a, b)
	want := MatMul(a, b.T())
	if !got.Equal(want, gemmTol) {
		t.Errorf("A·Bᵀ mismatch: max diff %g", got.MaxAbsDiff(want))
	}
}

func TestMatMulTNMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := Random(6, 4, rng)
	b := Random(6, 5, rng)
	got := MatMulTN(a, b)
	want := MatMul(a.T(), b)
	if !got.Equal(want, gemmTol) {
		t.Errorf("Aᵀ·B mismatch: max diff %g", got.MaxAbsDiff(want))
	}
}

func TestMatMulAddNTShapePanics(t *testing.T) {
	defer expectPanic(t, "MatMulAddNT")
	MatMulAddNT(New(2, 2), New(2, 3), New(2, 4))
}

func TestMatMulAddTNShapePanics(t *testing.T) {
	defer expectPanic(t, "MatMulAddTN")
	MatMulAddTN(New(2, 2), New(3, 2), New(4, 2))
}

// Property: matrix multiplication is associative: (A·B)·C == A·(B·C).
func TestMatMulAssociativityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(m8, n8, k8, l8 uint8) bool {
		m, n, k, l := int(m8%6)+1, int(n8%6)+1, int(k8%6)+1, int(l8%6)+1
		a := Random(m, k, rng)
		b := Random(k, n, rng)
		c := Random(n, l, rng)
		left := MatMul(MatMul(a, b), c)
		right := MatMul(a, MatMul(b, c))
		return left.Equal(right, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ.
func TestMatMulTransposeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func(m8, n8, k8 uint8) bool {
		m, n, k := int(m8%7)+1, int(n8%7)+1, int(k8%7)+1
		a := Random(m, k, rng)
		b := Random(k, n, rng)
		return MatMul(a, b).T().Equal(MatMul(b.T(), a.T()), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: GeMM distributes over addition: A·(B+C) == A·B + A·C.
func TestMatMulDistributivityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(m8, n8, k8 uint8) bool {
		m, n, k := int(m8%7)+1, int(n8%7)+1, int(k8%7)+1
		a := Random(m, k, rng)
		b := Random(k, n, rng)
		c := Random(k, n, rng)
		sum := b.Clone()
		sum.Add(c)
		left := MatMul(a, sum)
		right := MatMul(a, b)
		right.Add(MatMul(a, c))
		return left.Equal(right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property (paper §3.1.1): C = A·B equals the sum of K outer products of
// A's columns with B's rows.
func TestOuterProductDecompositionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := func(m8, n8, k8 uint8) bool {
		m, n, k := int(m8%6)+1, int(n8%6)+1, int(k8%6)+1
		a := Random(m, k, rng)
		b := Random(k, n, rng)
		c := New(m, n)
		at := a.T() // row r of at is column r of a
		for kk := 0; kk < k; kk++ {
			OuterProductAdd(c, at.Row(kk), b.Row(kk))
		}
		return c.Equal(MatMul(a, b), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestOuterProductAddShapePanics(t *testing.T) {
	defer expectPanic(t, "OuterProductAdd")
	OuterProductAdd(New(2, 2), []float64{1, 2, 3}, []float64{1, 2})
}

func TestMatMulParallelMatchesSerial(t *testing.T) {
	// Above the fan-out threshold the row-partitioned parallel path must
	// produce bitwise-identical results to the serial kernel.
	rng := rand.New(rand.NewSource(321))
	a := Random(256, 256, rng) // 256³ = 16.7M FLOPs > threshold
	b := Random(256, 256, rng)
	for _, vec := range kernelPaths() {
		got, want := New(256, 256), New(256, 256)
		onPath(vec, func() {
			MatMulAdd(got, a, b)
			matMulAddRows(want, a, b, 0, 256)
		})
		if !got.Equal(want, 0) {
			t.Errorf("%s path: parallel result differs from serial: max diff %g", vec, got.MaxAbsDiff(want))
		}
	}
}

// TestMatMulKernelsAllocateNothing gates the serial kernels, on every
// kernel path, at zero heap allocations per call: the packed panels, the
// accumulator tiles and the row lists live on the stack, and the serial
// path builds no closure. Both shapes — the 128³ tile of gemm_compute and
// the 16×16×256 tile of fine slicing — are below parallelFLOPThreshold, so
// no worker goroutine is spawned.
func TestMatMulKernelsAllocateNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, s := range [][3]int{{128, 128, 128}, {16, 16, 256}} {
		m, n, k := s[0], s[1], s[2]
		if work := int64(m) * int64(n) * int64(k); work >= parallelFLOPThreshold {
			t.Fatalf("%dx%dx%d is not on the serial path", m, n, k)
		}
		for _, v := range kernelVariants {
			aR, aC, bR, bC := v.shape(m, n, k)
			a, b, c := Random(aR, aC, rng), Random(bR, bC, rng), New(m, n)
			for _, vec := range kernelPaths() {
				var allocs float64
				onPath(vec, func() { allocs = testing.AllocsPerRun(20, func() { v.add(c, a, b) }) })
				t.Logf("%s path, %s %dx%dx%d: %v allocs/call", vec, v.name, m, n, k, allocs)
				if allocs != 0 {
					t.Errorf("%s path: %s %dx%dx%d allocates %v objects per call, want 0", vec, v.name, m, n, k, allocs)
				}
			}
		}
	}
}

// OuterProductAdd accumulates C += a·b where a is a column vector (len m)
// and b is a row vector (len n). Used by the mathematical-description tests
// of §3.1.1: C_ij equals the sum of K outer products.
func OuterProductAdd(c *Matrix, a, b []float64) {
	if c.Rows != len(a) || c.Cols != len(b) {
		panic(fmt.Sprintf("tensor: OuterProductAdd output %dx%d for %d⊗%d", c.Rows, c.Cols, len(a), len(b)))
	}
	for i, av := range a {
		crow := c.Row(i)
		for j, bv := range b {
			crow[j] += av * bv
		}
	}
}
