package tensor

// vectorKernels selects the AVX kernels of gemm_amd64.s: it is set once at
// start-up from CPUID, and tests clear it to run the Go kernels. Assembly
// functions are never async-preempted, so no goroutine switch can see a
// live YMM register.
var vectorKernels = cpuHasAVX()

// cpuHasAVX reports whether the CPU has AVX and the OS saves the YMM state
// on a context switch: CPUID leaf 1 sets ECX bits 27 (OSXSAVE) and 28 (AVX),
// and XCR0 enables the SSE and AVX state (bits 1 and 2).
func cpuHasAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if cpuid1()&(osxsave|avx) != osxsave|avx {
		return false
	}
	const ymmState = 1<<1 | 1<<2
	return xgetbv0()&ymmState == ymmState
}

func cpuid1() (ecx uint32)

func xgetbv0() (eax uint32)

// anyZero reports whether one of the n values from x is ±0 (NaN is not);
// n must be a multiple of 4.
//
//go:noescape
func anyZero(x *float64, n int) bool

// tile4x8 adds to each of four rows of 8 C values, c[r][w] += a[r][k]·b[k*bs+w]
// over k = 0 … kl-1 in ascending order, holding the tile in registers. The
// C rows must hold 8 values, the A rows kl, and b kl rows of 8 values, bs
// apart.
//
//go:noescape
func tile4x8(c, a *[4]*float64, b *float64, bs, kl int)

// maskTile4x8 is tile4x8 for rows that hold zeros: a row skips every k
// whose a[r][k] is ±0, leaving its accumulators' bits untouched.
//
//go:noescape
func maskTile4x8(c, a *[4]*float64, b *float64, bs, kl int)

// tnTile4x8 adds one k block of Aᵀ·B to a 4-row × 8-column tile of C, the
// row r of the tile starting at c[r]. pa holds the block of A packed
// k-major (pa[4k+r] is row r's value at block row k), b points at the
// tile's first column in the block's first B row, and B rows are bs values
// apart. Each row adds its quads on the k grid, skipping a quad whose four
// values are all ±0, then the block's last kl mod 4 rows one at a time,
// skipping a ±0 value — the order matMulAddTNRows documents.
//
//go:noescape
func tnTile4x8(c *[4]*float64, pa *[4 * tileK]float64, b *float64, bs, kl int)
