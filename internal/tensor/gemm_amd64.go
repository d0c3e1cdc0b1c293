package tensor

// vectorKernels is the kernel path the GeMM kernels take: the highest that
// CPUID and XCR0 allow, chosen once at start-up. Tests lower it to run the
// paths below. Assembly functions are never async-preempted, so no
// goroutine switch can see a live YMM, ZMM or opmask register.
var vectorKernels = detectPath()

// detectPath returns the highest kernel path this CPU and OS run.
// avxPath needs CPUID leaf 1 ECX bits 27 (OSXSAVE) and 28 (AVX) and XCR0's
// SSE and AVX state (bits 1 and 2). avx512Path also needs CPUID leaf 7
// EBX bit 16 (AVX512F) and XCR0's opmask, ZMM_Hi256 and Hi16_ZMM state
// (bits 5–7): without them the OS does not save those registers on a
// context switch.
func detectPath() kernelPath {
	const osxsave, avx = 1 << 27, 1 << 28
	maxLeaf, _, _ := cpuid(0, 0)
	if _, _, ecx := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return goPath
	}
	const ymmState, zmmState = 1<<1 | 1<<2, 1<<5 | 1<<6 | 1<<7
	xcr0 := xgetbv0()
	if xcr0&ymmState != ymmState {
		return goPath
	}
	const avx512f = 1 << 16
	if maxLeaf < 7 || xcr0&zmmState != zmmState {
		return avxPath
	}
	if _, ebx, _ := cpuid(7, 0); ebx&avx512f == 0 {
		return avxPath
	}
	return avx512Path
}

// cpuid returns EAX, EBX and ECX of CPUID leaf, subleaf sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx uint32)

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

// tile4x16 is tile4x8 on 16 columns, in eight ZMM accumulators (AVX-512).
//
//go:noescape
func tile4x16(c, a *[4]*float64, b *float64, bs, kl int)

// maskTile4x16 is maskTile4x8 on 16 columns (AVX-512): a row's ±0 a[r][k]
// clears an opmask, and its adds at that k leave every lane as it was.
//
//go:noescape
func maskTile4x16(c, a *[4]*float64, b *float64, bs, kl int)

// tnTile4x16 is tnTile4x8 on 16 columns, in eight ZMM accumulators
// (AVX-512).
//
//go:noescape
func tnTile4x16(c *[4]*float64, pa *[4 * tileK]float64, b *float64, bs, kl int)

// ntTile4x16 sums, for r < nr ≤ 4 and x < 16, s[r][x] = Σ_k
// a[r][k]·p[16k+x] over k = 0 … kl-1 in ascending order, in registers
// from +0, or from part[r][x] when mode has ntResume. With ntSuspend it
// stores the sums to part; otherwise it ends with c[r][x] = c[r][x] +
// s[r][x], C the first operand. Row r of C starts at c[r*cs] and holds 16
// values, row r of A starts at a[r*as] and holds kl, and p holds kl
// packed rows of 16 (ntPack).
//
//go:noescape
func ntTile4x16(c *float64, cs int, a *float64, as int, p *[wideW * tileK]float64, kl int, part *[4][wideW]float64, mode, nr int)

// ntTile4x8 is ntTile4x16 on 8 columns, p holding 8 values per k. Only
// the first nv lanes of each sum reach C (nv ≤ 8); the rest of the C row
// is neither read nor written.
//
//go:noescape
func ntTile4x8(c *float64, cs int, a *float64, as int, p *[wideW * tileK]float64, kl int, part *[4][wideW]float64, mode, nr, nv int)

// ntPack packs w rows of B (w a multiple of 4, w·kl ≤ wideW·tileK), bs
// values apart from b on, transposed into p: p[k*w+x] is row x's value k,
// for k < kl. Rows x ≥ nv are packed as copies of row nv−1.
//
//go:noescape
func ntPack(p *[wideW * tileK]float64, b *float64, bs, w, nv, kl int)

// addTo sets d[i] = d[i] + s[i] for i < n, d the first operand.
//
//go:noescape
func addTo(d, s *float64, n int)
