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

// tile4x8 adds to each of four rows of 8 C values, c[r][w] += a[r][k]·p[k*8+w]
// over k = 0 … kl-1 in ascending order, holding the tile in registers. The
// C rows must hold 8 values, the A rows kl.
//
//go:noescape
func tile4x8(c, a *[4]*float64, p *[vecW * tileK]float64, kl int)

// quadRow adds v0·b0[j] + v1·b1[j] + v2·b2[j] + v3·b3[j], summed left to
// right, to c[j] for every j < len(c). Each b row must be as long as c.
//
//go:noescape
func quadRow(c, b0, b1, b2, b3 []float64, v0, v1, v2, v3 float64)
