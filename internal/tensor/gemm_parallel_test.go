package tensor

import (
	"math/rand"
	"runtime"
	"testing"
)

// The row-parallel fan-out must be bitwise deterministic: every GOMAXPROCS
// value partitions the output rows differently, but each element's reduction
// order is fixed by the shapes alone, so the results must match with
// tolerance zero — on each kernel path, and across the paths. 256³ is above
// parallelFLOPThreshold, so the fan-out is actually exercised whenever more
// than one proc is available.

func TestMatMulVariantsDeterministicAcrossGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const n = 256
	a := Random(n, n, rng)
	b := Random(n, n, rng)

	variants := []struct {
		name string
		run  func(c *Matrix)
	}{
		{"MatMulAdd", func(c *Matrix) { MatMulAdd(c, a, b) }},
		{"MatMulAddNT", func(c *Matrix) { MatMulAddNT(c, a, b) }},
		{"MatMulAddTN", func(c *Matrix) { MatMulAddTN(c, a, b) }},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			prev := runtime.GOMAXPROCS(0)
			defer runtime.GOMAXPROCS(prev)
			var want *Matrix
			for _, vec := range kernelPaths() {
				for _, procs := range []int{1, 2, 8} {
					runtime.GOMAXPROCS(procs)
					c := New(n, n)
					onPath(vec, func() { v.run(c) })
					if want == nil {
						want = c
						continue
					}
					if !want.Equal(c, 0) {
						t.Errorf("%s path, GOMAXPROCS=%d: result differs from Go path at GOMAXPROCS=1: max diff %g", vec, procs, c.MaxAbsDiff(want))
					}
				}
			}
		})
	}
}

func TestMatMulNTParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(322))
	const n = 256
	a := Random(n, n, rng)
	b := Random(n, n, rng)
	for _, vec := range kernelPaths() {
		got, want := New(n, n), New(n, n)
		onPath(vec, func() {
			MatMulAddNT(got, a, b)
			matMulAddNTRows(want, a, b, 0, n)
		})
		if !got.Equal(want, 0) {
			t.Errorf("%s path: parallel result differs from serial: max diff %g", vec, got.MaxAbsDiff(want))
		}
	}
}

func TestMatMulTNParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(323))
	const n = 256
	a := Random(n, n, rng)
	b := Random(n, n, rng)
	for _, vec := range kernelPaths() {
		got, want := New(n, n), New(n, n)
		onPath(vec, func() {
			MatMulAddTN(got, a, b)
			matMulAddTNRows(want, a, b, 0, n)
		})
		if !got.Equal(want, 0) {
			t.Errorf("%s path: parallel result differs from serial: max diff %g", vec, got.MaxAbsDiff(want))
		}
	}
}
