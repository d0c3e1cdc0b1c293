//go:build !amd64

package tensor

// Off amd64 the Go kernels are the only path.
var vectorKernels = goPath

func anyZero(x *float64, n int) bool {
	panic("tensor: anyZero is amd64 only") // lint:invariant unreachable: vectorKernels is goPath off amd64
}

func tile4x8(c, a *[4]*float64, b *float64, bs, kl int) {
	panic("tensor: tile4x8 is amd64 only") // lint:invariant unreachable: vectorKernels is goPath off amd64
}

func maskTile4x8(c, a *[4]*float64, b *float64, bs, kl int) {
	panic("tensor: maskTile4x8 is amd64 only") // lint:invariant unreachable: vectorKernels is goPath off amd64
}

func tnTile4x8(c *[4]*float64, pa *[4 * tileK]float64, b *float64, bs, kl int) {
	panic("tensor: tnTile4x8 is amd64 only") // lint:invariant unreachable: vectorKernels is goPath off amd64
}

func tile4x16(c, a *[4]*float64, b *float64, bs, kl int) {
	panic("tensor: tile4x16 is amd64 only") // lint:invariant unreachable: vectorKernels is goPath off amd64
}

func maskTile4x16(c, a *[4]*float64, b *float64, bs, kl int) {
	panic("tensor: maskTile4x16 is amd64 only") // lint:invariant unreachable: vectorKernels is goPath off amd64
}

func tnTile4x16(c *[4]*float64, pa *[4 * tileK]float64, b *float64, bs, kl int) {
	panic("tensor: tnTile4x16 is amd64 only") // lint:invariant unreachable: vectorKernels is goPath off amd64
}

func ntTile4x16(c *float64, cs int, a *float64, as int, p *[wideW * tileK]float64, kl int, part *[4][wideW]float64, mode, nr int) {
	panic("tensor: ntTile4x16 is amd64 only") // lint:invariant unreachable: vectorKernels is goPath off amd64
}

func ntTile4x8(c *float64, cs int, a *float64, as int, p *[wideW * tileK]float64, kl int, part *[4][wideW]float64, mode, nr, nv int) {
	panic("tensor: ntTile4x8 is amd64 only") // lint:invariant unreachable: vectorKernels is goPath off amd64
}

func ntPack(p *[wideW * tileK]float64, b *float64, bs, w, nv, kl int) {
	panic("tensor: ntPack is amd64 only") // lint:invariant unreachable: vectorKernels is goPath off amd64
}

func addTo(d, s *float64, n int) {
	panic("tensor: addTo is amd64 only") // lint:invariant unreachable: vectorKernels is goPath off amd64
}
