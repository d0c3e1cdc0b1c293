package tensor

import (
	"fmt"
	"runtime"
	"sync"
)

// parallelFLOPThreshold is the work size above which the GeMM kernels fan
// out across cores; below it the goroutine overhead outweighs the gain.
const parallelFLOPThreshold = 1 << 22

// Cache-blocking parameters shared by the three GeMM variants. A tileK×tileJ
// block of B (512 KiB at float64) stays resident in L2 while a strip of A
// streams past it; tileBR plays the same role for the NT kernel, where the
// panel is tileBR rows of B. The NN kernel classifies its rows tileI at a
// time, and packs microW columns of B into a panel its micro-kernel sweeps.
// The AVX tiles cover vecW columns of C and the AVX-512 tiles wideW; the
// vector NT kernel packs that many rows of B and accumulates tileI rows of
// C at a time.
const (
	tileK  = 128
	tileJ  = 512
	tileBR = 64
	tileI  = 128
	microW = 4
	vecW   = 8
	wideW  = 16
)

// kernelPath is the level of kernel the GeMM kernels take. Each level runs
// the tiles of the ones below on the columns its own tiles leave over:
// avxPath adds the 8-column YMM tiles of gemm_amd64.s, avx512Path the
// 16-column ZMM tiles. Every level gives every element the same bits.
type kernelPath uint8

const (
	goPath     kernelPath = iota // the Go kernels of this file
	avxPath                      // YMM tiles, vecW columns
	avx512Path                   // ZMM tiles, wideW columns
)

func (p kernelPath) String() string {
	return [...]string{"Go", "AVX", "AVX-512"}[p]
}

// parallelRows partitions rows [0, rows) into one contiguous strip per
// worker and runs kernel on each strip concurrently. Strips are disjoint, so
// as long as the kernel's per-element reduction order does not depend on the
// strip boundaries the fan-out is race-free and bitwise identical to
// kernel(c, a, b, 0, rows). Small problems (work below
// parallelFLOPThreshold) run serially, and allocate nothing.
func parallelRows(c, a, b *Matrix, rows int, work int64, kernel func(c, a, b *Matrix, lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if work < parallelFLOPThreshold || workers < 2 || rows < 2*workers {
		kernel(c, a, b, 0, rows)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * rows / workers
		hi := (w + 1) * rows / workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			kernel(c, a, b, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// MatMul computes C = A·B and returns C as a new matrix.
// A is m×k and B is k×n, so C is m×n.
func MatMul(a, b *Matrix) *Matrix {
	c := New(a.Rows, b.Cols)
	MatMulAdd(c, a, b)
	return c
}

// MatMulAdd accumulates C += A·B in place. A is m×k, B is k×n, C is m×n.
//
// Every output element starts from its C value and adds a_ik·b_kj for k in
// ascending order, skipping the k whose a_ik is exactly zero. The kernel is
// cache-blocked and register-tiled (see matMulAddRows), and large products
// are partitioned by output rows across cores — each goroutine owns a
// disjoint strip of C. None of that changes any element's sequence of
// operations, so serial, tiled and row-parallel paths are bitwise identical.
func MatMulAdd(c, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulAdd inner dim mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)) // lint:invariant shape precondition
	}
	if c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulAdd output %dx%d for %dx%d · %dx%d", c.Rows, c.Cols, a.Rows, a.Cols, b.Rows, b.Cols)) // lint:invariant shape precondition
	}
	work := int64(a.Rows) * int64(a.Cols) * int64(b.Cols)
	parallelRows(c, a, b, a.Rows, work, matMulAddRows)
}

// matMulAddRows accumulates rows [lo, hi) of C += A·B.
//
// Loop order is kb → row block → jb → panel → row. For each tileK block of
// k, the rows of a tileI row block are split once: a row whose k block of A
// holds no exact zero is dense, any other row is sparse. For every microW
// columns of B, the dense rows then sweep one packed panel of B, each
// holding its 1×microW tile of C in registers across the whole k block
// (microKernel), so a C element is loaded and stored once per block rather
// than once per k; sparse rows stay on the plain i→k→j loop (axpyRows). On
// a vector path both kinds take the vector tiles instead, four rows at a
// time, reading B in place (vecTiles): dense rows tile4x16 or tile4x8,
// sparse rows maskTile4x16 or maskTile4x8. The columns of a tileJ block
// past its last whole vector panel stay on axpyRows.
//
// Every path gives an element the same sequence: start from C, add a_ik·b_kj
// for ascending k, skip an exactly-zero a_ik. The dense tiles have no zero
// test because a dense row has no zero to skip; the masked tile leaves a
// row's accumulators untouched at a zero a_ik. The k blocks ascend in the
// outer loop, so the element's reduction order is plain ascending k —
// independent of the tiles, the row split and lo/hi.
// lint:hotpath tile kernel: the per-row inner loops must stay allocation-free
func matMulAddRows(c, a, b *Matrix, lo, hi int) {
	var panel [microW * tileK]float64
	var dense, sparse [tileI]int32
	for kb := 0; kb < a.Cols; kb += tileK {
		ke := min(kb+tileK, a.Cols)
		for ib := lo; ib < hi; ib += tileI {
			nd, ns := 0, 0
			for i := ib; i < min(ib+tileI, hi); i++ {
				if zeroFree(a.Row(i)[kb:ke]) {
					dense[nd] = int32(i)
					nd++
				} else {
					sparse[ns] = int32(i)
					ns++
				}
			}
			for jb := 0; jb < b.Cols; jb += tileJ {
				je := min(jb+tileJ, b.Cols)
				jd, js := jb, jb // where the tiles left off, for dense and sparse rows
				switch {
				case vectorKernels != goPath:
					jd = vecTiles(c, a, b, dense[:nd], sparse[:ns], kb, ke, jb, je)
					js = jd
				case nd > 0:
					jd = je - (je-jb)%microW
					for jp := jb; jp < jd; jp += microW {
						packPanel(&panel, b, kb, ke, jp)
						for _, i := range dense[:nd] {
							microKernel(c.Row(int(i))[jp:jp+microW], a.Row(int(i))[kb:ke], &panel)
						}
					}
				}
				axpyRows(c, a, b, dense[:nd], kb, ke, jd, je)
				axpyRows(c, a, b, sparse[:ns], kb, ke, js, je)
			}
		}
	}
}

// zeroFree reports whether x holds no exact zero (±0). On a vector path
// the AVX scan (anyZero) tests every whole group of 4 values and this loop
// the last len(x) mod 4.
func zeroFree(x []float64) bool {
	if n := len(x) &^ 3; vectorKernels != goPath && n > 0 {
		if anyZero(&x[0], n) {
			return false
		}
		x = x[n:]
	}
	for _, v := range x {
		if v == 0 { // lint:float-exact the dense tiles may only take rows with no exact zero to skip
			return false
		}
	}
	return true
}

// packPanel copies columns [jp, jp+microW) of rows [kb, ke) of B into p,
// column after column: column w occupies p[w*tileK : w*tileK+ke-kb].
// lint:hotpath pack loop of the NN micro-kernel
func packPanel(p *[microW * tileK]float64, b *Matrix, kb, ke, jp int) {
	kl := ke - kb
	p0 := p[0*tileK : 0*tileK+kl]
	p1 := p[1*tileK : 1*tileK+kl]
	p2 := p[2*tileK : 2*tileK+kl]
	p3 := p[3*tileK : 3*tileK+kl]
	for k := range p0 {
		q := (*[microW]float64)(b.Data[(kb+k)*b.Cols+jp:])
		p0[k], p1[k], p2[k], p3[k] = q[0], q[1], q[2], q[3]
	}
}

// microKernel accumulates crow[w] += Σ_k arow[k]·p_w[k] for the microW
// columns of a packed panel, in ascending k, holding the four sums in
// registers: four independent chains, each loading its C element once.
// arow must hold no exact zero.
// lint:hotpath register micro-kernel of MatMulAdd
func microKernel(crow, arow []float64, p *[microW * tileK]float64) {
	kl := len(arow)
	b0 := p[0*tileK : 0*tileK+kl]
	b1 := p[1*tileK : 1*tileK+kl]
	b2 := p[2*tileK : 2*tileK+kl]
	b3 := p[3*tileK : 3*tileK+kl]
	c := (*[microW]float64)(crow)
	s0, s1, s2, s3 := c[0], c[1], c[2], c[3]
	for k, av := range arow {
		s0 += av * b0[k]
		s1 += av * b1[k]
		s2 += av * b2[k]
		s3 += av * b3[k]
	}
	c[0], c[1], c[2], c[3] = s0, s1, s2, s3
}

// panelWidth is the width of the vector panel that starts at column jp of
// columns ending at je: wideW on avx512Path while that many are left, else
// vecW. So the ZMM tiles take every whole 16-wide panel and the YMM tiles
// at most one 8-wide panel after them.
func panelWidth(jp, je int) int {
	if vectorKernels == avx512Path && je-jp >= wideW {
		return wideW
	}
	return vecW
}

// vecTiles accumulates columns [jb, jt) of the dense and sparse rows of
// C += A·B over k in [kb, ke) with the vector tiles and returns jt, the end
// of the last whole panel (panelWidth) in [jb, je). For every panel the
// tiles read B's k block in place, four rows at a time (tileRows): the
// dense rows on the plain tile, the sparse rows on the masked one. Dense
// rows keep the plain tile: the mask costs every k of a row that has
// nothing to skip.
// lint:hotpath AVX path of the NN kernel
func vecTiles(c, a, b *Matrix, dense, sparse []int32, kb, ke, jb, je int) int {
	jp := jb
	for w := panelWidth(jp, je); jp+w <= je; jp, w = jp+w, panelWidth(jp+w, je) {
		bp := &b.Data[kb*b.Cols+jp]
		tileRows(c, a, bp, b.Cols, dense, kb, ke, jp, w, false)
		tileRows(c, a, bp, b.Cols, sparse, kb, ke, jp, w, true)
	}
	return jp
}

// tileRows runs one vector tile per four listed rows over columns
// [jp, jp+w) of C, w being vecW or wideW, reading the k block of B from bp
// on, bs values per row: the masked tile when masked, else the plain one.
// The tile's accumulators point at C. A last group of one to three rows is
// padded with copies of its first row whose tile rows land in scratch.
// lint:hotpath AVX path of the NN kernel
func tileRows(c, a *Matrix, bp *float64, bs int, rows []int32, kb, ke, jp, w int, masked bool) {
	var scratch [wideW]float64
	for g := 0; g < len(rows); g += 4 {
		var ct, at [4]*float64
		for r := range ct {
			if g+r < len(rows) {
				i := int(rows[g+r])
				ct[r], at[r] = &c.Row(i)[jp], &a.Row(i)[kb]
			} else {
				ct[r], at[r] = &scratch[0], at[0]
			}
		}
		switch {
		case w == wideW && masked:
			maskTile4x16(&ct, &at, bp, bs, ke-kb)
		case w == wideW:
			tile4x16(&ct, &at, bp, bs, ke-kb)
		case masked:
			maskTile4x8(&ct, &at, bp, bs, ke-kb)
		default:
			tile4x8(&ct, &at, bp, bs, ke-kb)
		}
	}
}

// axpyRows accumulates columns [jb, je) of the listed rows of C += A·B over
// k in [kb, ke) with the plain i→k→j loop, skipping exactly-zero a_ik.
// lint:hotpath fallback of the NN micro-kernel
func axpyRows(c, a, b *Matrix, rows []int32, kb, ke, jb, je int) {
	if jb == je {
		return
	}
	for _, i := range rows {
		arow := a.Row(int(i))
		crow := c.Row(int(i))[jb:je]
		for k := kb; k < ke; k++ {
			aik := arow[k]
			if aik == 0 { // lint:float-exact sparsity fast path skips exact zeros only
				continue
			}
			brow := b.Row(k)[jb:je]
			for j, bv := range brow {
				crow[j] += aik * bv
			}
		}
	}
}

// MatMulNT computes C = A·Bᵀ. A is m×k and B is n×k, so C is m×n.
// This is the product computed locally by the LS dataflow (paper Fig. 5).
func MatMulNT(a, b *Matrix) *Matrix {
	c := New(a.Rows, b.Rows)
	MatMulAddNT(c, a, b)
	return c
}

// MatMulAddNT accumulates C += A·Bᵀ in place.
//
// Each output element is an independent dot product, accumulated in a
// private register over k in ascending order and added to C once. The j
// loop is register-blocked four wide (four concurrent dot products break
// the add latency chain) and the B rows are tiled so a tileBR-row panel
// stays in cache across the strip; on a vector path the sums run on the
// vector tiles instead (ntTiles). None of that changes any element's reduction
// order, so serial, tiled, vector and row-parallel paths are all bitwise
// identical.
func MatMulAddNT(c, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulAddNT inner dim mismatch %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols)) // lint:invariant shape precondition
	}
	if c.Rows != a.Rows || c.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulAddNT output %dx%d for %dx%d · (%dx%d)ᵀ", c.Rows, c.Cols, a.Rows, a.Cols, b.Rows, b.Cols)) // lint:invariant shape precondition
	}
	work := int64(a.Rows) * int64(a.Cols) * int64(b.Rows)
	parallelRows(c, a, b, a.Rows, work, matMulAddNTRows)
}

// matMulAddNTRows accumulates rows [lo, hi) of C += A·Bᵀ.
// lint:hotpath tile kernel: the per-row inner loops must stay allocation-free
func matMulAddNTRows(c, a, b *Matrix, lo, hi int) {
	if vectorKernels != goPath && a.Cols > 0 {
		if a.Cols > tileK {
			var part [tileI / 4][4][wideW]float64
			ntTiles(c, a, b, lo, hi, &part)
		} else {
			ntTiles(c, a, b, lo, hi, nil)
		}
		return
	}
	for jb := 0; jb < b.Rows; jb += tileBR {
		je := min(jb+tileBR, b.Rows)
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			crow := c.Row(i)
			j := jb
			for ; j+4 <= je; j += 4 {
				b0 := b.Row(j)[:len(arow)]
				b1 := b.Row(j + 1)[:len(arow)]
				b2 := b.Row(j + 2)[:len(arow)]
				b3 := b.Row(j + 3)[:len(arow)]
				var s0, s1, s2, s3 float64
				for k, av := range arow {
					s0 += av * b0[k]
					s1 += av * b1[k]
					s2 += av * b2[k]
					s3 += av * b3[k]
				}
				crow[j] += s0
				crow[j+1] += s1
				crow[j+2] += s2
				crow[j+3] += s3
			}
			for ; j < je; j++ {
				brow := b.Row(j)
				sum := 0.0
				for k, av := range arow {
					sum += av * brow[k]
				}
				crow[j] += sum
			}
		}
	}
}

// The NT tiles' modes where k spans several tileK blocks: ntResume starts
// from the tile's partial sums, not +0; ntSuspend stores them, not C + sum.
const (
	ntResume = 1 << iota
	ntSuspend
)

// ntTiles is matMulAddNTRows on the vector tiles, for k ≥ 1. Per w rows
// of B (panelWidth) and tileK block of k, ntPack packs the block
// transposed with 4×4 vector transposes, and each four rows of C sweep it
// with ntTile4x16 or ntTile4x8: a private sum per element from +0 over
// ascending k, in registers, added to C once, C first. The 8-wide tile
// stores only the nv lanes of real B rows. Where k spans several blocks,
// each tile's sums wait in part between them; part is nil otherwise.
// lint:hotpath AVX path of the NT kernel
func ntTiles(c, a, b *Matrix, lo, hi int, part *[tileI / 4][4][wideW]float64) {
	var panel [wideW * tileK]float64
	for ib := lo; ib < hi; ib += tileI {
		ie := min(ib+tileI, hi)
		for jp, w := 0, 0; jp < b.Rows; jp += w {
			w = panelWidth(jp, b.Rows)
			nv := min(w, b.Rows-jp)
			for kb := 0; kb < a.Cols; kb += tileK {
				ke := min(kb+tileK, a.Cols)
				ntPack(&panel, &b.Row(jp)[kb], b.Cols, w, nv, ke-kb)
				mode := 0
				if kb > 0 {
					mode |= ntResume
				}
				if ke < a.Cols {
					mode |= ntSuspend
				}
				for i := ib; i < ie; i += 4 {
					var s *[4][wideW]float64
					if part != nil {
						s = &part[(i-ib)/4]
					}
					cp, ap := &c.Data[i*c.Cols+jp], &a.Data[i*a.Cols+kb]
					if w == wideW {
						ntTile4x16(cp, c.Cols, ap, a.Cols, &panel, ke-kb, s, mode, min(4, ie-i))
					} else {
						ntTile4x8(cp, c.Cols, ap, a.Cols, &panel, ke-kb, s, mode, min(4, ie-i), nv)
					}
				}
			}
		}
	}
}

// MatMulTN computes C = Aᵀ·B. A is k×m and B is k×n, so C is m×n.
// This is the product computed locally by the RS dataflow (paper Fig. 5).
func MatMulTN(a, b *Matrix) *Matrix {
	c := New(a.Cols, b.Cols)
	MatMulAddTN(c, a, b)
	return c
}

// MatMulAddTN accumulates C += Aᵀ·B in place.
//
// The reduction runs over A's rows. They are consumed four at a time
// (grouping four rank-1 updates into one fused pass over the C row) inside
// tileK-deep blocks, with the quad boundaries fixed by the global k grid —
// never by the strip — so every element's reduction order is a function of
// the shapes alone and the row-parallel fan-out is bitwise identical to the
// serial kernel. The sparsity fast path skips a row's quad only when all
// four of its A values are exactly zero, so only exactly-zero contributions
// are ever dropped. On a vector path four C rows × wideW or vecW columns
// stay in registers across a k block (tnTile4x16, tnTile4x8), each element
// summing its four products in the same left-to-right order.
func MatMulAddTN(c, a, b *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulAddTN inner dim mismatch (%dx%d)ᵀ · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)) // lint:invariant shape precondition
	}
	if c.Rows != a.Cols || c.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulAddTN output %dx%d for (%dx%d)ᵀ · %dx%d", c.Rows, c.Cols, a.Rows, a.Cols, b.Rows, b.Cols)) // lint:invariant shape precondition
	}
	work := int64(a.Rows) * int64(a.Cols) * int64(b.Cols)
	parallelRows(c, a, b, a.Cols, work, matMulAddTNRows)
}

// matMulAddTNRows accumulates rows [lo, hi) of C += Aᵀ·B; rows of C
// correspond to columns of A. Each element gets: start from C; per tileK
// block, its quads on the k grid, each adding
// ((v0·b0 + v1·b1) + v2·b2) + v3·b3 unless v0…v3 are all exactly zero;
// then the block's rows past the last quad in ascending k, skipping an
// exactly-zero a_ki. On a vector path the rows take the vector tiles
// (tnTiles); the Go path is tnRows over whole C rows.
// lint:hotpath tile kernel: the per-row inner loops must stay allocation-free
func matMulAddTNRows(c, a, b *Matrix, lo, hi int) {
	if vectorKernels != goPath {
		tnTiles(c, a, b, lo, hi)
		return
	}
	for kb := 0; kb < a.Rows; kb += tileK {
		tnRows(c, a, b, lo, hi, kb, min(kb+tileK, a.Rows), 0)
	}
}

// tnRows adds the k block [kb, ke) of Aᵀ·B to columns [jb, C.Cols) of C
// rows [lo, hi), one row at a time: the block's quads on the k grid, a
// quad whose four A values are exact zeros skipped, then the rows past the
// last quad, an exact zero skipped.
// lint:hotpath row pass of the TN kernel
func tnRows(c, a, b *Matrix, lo, hi, kb, ke, jb int) {
	for i := lo; i < hi; i++ {
		crow := c.Row(i)[jb:]
		k := kb
		for ; k+4 <= ke; k += 4 {
			v0 := a.Row(k)[i]
			v1 := a.Row(k + 1)[i]
			v2 := a.Row(k + 2)[i]
			v3 := a.Row(k + 3)[i]
			if v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 { // lint:float-exact sparsity fast path skips exact zeros only
				continue
			}
			b0 := b.Row(k)[jb:][:len(crow)]
			b1 := b.Row(k + 1)[jb:][:len(crow)]
			b2 := b.Row(k + 2)[jb:][:len(crow)]
			b3 := b.Row(k + 3)[jb:][:len(crow)]
			for j := range crow {
				crow[j] += v0*b0[j] + v1*b1[j] + v2*b2[j] + v3*b3[j]
			}
		}
		for ; k < ke; k++ {
			av := a.Row(k)[i]
			if av == 0 { // lint:float-exact sparsity fast path skips exact zeros only
				continue
			}
			brow := b.Row(k)[jb:][:len(crow)]
			for j := range crow {
				crow[j] += av * brow[j]
			}
		}
	}
}

// tnTiles is matMulAddTNRows on the vector tiles. For each tileK block of
// k, the C rows go four at a time: their four columns of A's block are
// packed k-major into pa (a last group of one to three rows is padded with
// copies of its last column), so a quad's 4×4 block of A is one contiguous
// read instead of a strided read per row. tnTile4x16 or tnTile4x8 then
// adds the block to every whole panel (panelWidth) of the four rows,
// padded rows landing in scratch, and tnRows to the columns past the last
// panel.
// lint:hotpath AVX path of the TN kernel
func tnTiles(c, a, b *Matrix, lo, hi int) {
	var pa [4 * tileK]float64
	var scratch [wideW]float64
	for kb := 0; kb < a.Rows; kb += tileK {
		ke := min(kb+tileK, a.Rows)
		for i := lo; i < hi; i += 4 {
			nr := min(4, hi-i)
			for k := kb; k < ke; k++ {
				col := a.Row(k)[i:]
				q := (*[4]float64)(pa[4*(k-kb):])
				if nr == 4 {
					*q = [4]float64(col[:4])
					continue
				}
				for r := range q {
					q[r] = col[min(r, nr-1)]
				}
			}
			jp := 0
			for w := panelWidth(jp, b.Cols); jp+w <= b.Cols; jp, w = jp+w, panelWidth(jp+w, b.Cols) {
				var ct [4]*float64
				for r := range ct {
					if r < nr {
						ct[r] = &c.Row(i + r)[jp]
					} else {
						ct[r] = &scratch[0]
					}
				}
				if w == wideW {
					tnTile4x16(&ct, &pa, &b.Row(kb)[jp], b.Cols, ke-kb)
				} else {
					tnTile4x8(&ct, &pa, &b.Row(kb)[jp], b.Cols, ke-kb)
				}
			}
			if jp < b.Cols {
				tnRows(c, a, b, i, i+nr, kb, ke, jp)
			}
		}
	}
}
