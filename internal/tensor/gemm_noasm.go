//go:build !amd64

package tensor

// Off amd64 the Go kernels are the only path.
var vectorKernels = false

func tile4x8(c, a *[4]*float64, p *[vecW * tileK]float64, kl int) {
	panic("tensor: tile4x8 is amd64 only") // lint:invariant unreachable: vectorKernels is false off amd64
}

func quadRow(c, b0, b1, b2, b3 []float64, v0, v1, v2, v3 float64) {
	panic("tensor: quadRow is amd64 only") // lint:invariant unreachable: vectorKernels is false off amd64
}
