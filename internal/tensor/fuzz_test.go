package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// Fuzz targets for the slicing algebra: arbitrary (dims, S, B, seed)
// combinations must either be rejected by the precondition or round-trip
// exactly and preserve the sliced-GeMM identity.

func FuzzSliceColRoundTrip(f *testing.F) {
	f.Add(2, 8, 2, 1, int64(1))
	f.Add(3, 24, 3, 2, int64(2))
	f.Add(1, 16, 4, 4, int64(3))
	f.Fuzz(func(t *testing.T, rows, cols, S, B int, seed int64) {
		if rows <= 0 || rows > 16 || cols <= 0 || cols > 64 ||
			S <= 0 || S > 8 || B <= 0 || B > 8 {
			t.Skip()
		}
		if cols%(S*B) != 0 {
			// Precondition violated: must panic, not corrupt.
			defer func() {
				if recover() == nil {
					t.Errorf("SliceCol accepted cols=%d S=%d B=%d", cols, S, B)
				}
			}()
			SliceCol(New(rows, cols), S, 0, B)
			return
		}
		x := Random(rows, cols, rand.New(rand.NewSource(seed)))
		rec := New(rows, cols)
		for s := 0; s < S; s++ {
			UnsliceColInto(rec, SliceCol(x, S, s, B), S, s, B)
		}
		if !rec.Equal(x, 0) {
			t.Errorf("round trip failed for rows=%d cols=%d S=%d B=%d", rows, cols, S, B)
		}
	})
}

func FuzzSlicedGeMMIdentity(f *testing.F) {
	f.Add(2, 3, 8, 2, 1, int64(1))
	f.Add(4, 4, 12, 3, 2, int64(2))
	f.Fuzz(func(t *testing.T, m, n, k, S, B int, seed int64) {
		if m <= 0 || m > 8 || n <= 0 || n > 8 || k <= 0 || k > 32 ||
			S <= 0 || S > 6 || B <= 0 || B > 4 || k%(S*B) != 0 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		a := Random(m, k, rng)
		b := Random(k, n, rng)
		c := New(m, n)
		for s := 0; s < S; s++ {
			MatMulAdd(c, SliceCol(a, S, s, B), SliceRow(b, S, s, B))
		}
		if !c.Equal(MatMul(a, b), 1e-9) {
			t.Errorf("sliced GeMM identity failed for m=%d n=%d k=%d S=%d B=%d", m, n, k, S, B)
		}
	})
}

// FuzzMatMulKernels is the differential target behind the kernel spec test:
// bytes become a shape (m, n ≤ 40, k ≤ 300), a row-strip split and operand
// values that include ±0, ±Inf and NaN, and every GeMM variant — public
// kernel and row kernel on the strips, on every kernel path — must match
// its spec loop bit for bit, NaN matched as NaN. Each kernel path runs in a
// subtest named after it.
//
// Layout: data[0..3] give m, n and k (two bytes); data[4] marks which rows
// (i mod 8) of the reduced operand hold no exact zero, so the NN
// micro-kernel gets rows to take; data[5] sets how often a value is special;
// data[6] places the strip split. The rest, cycled, are the values.
func FuzzMatMulKernels(f *testing.F) {
	f.Add([]byte{16, 16, 1, 0, 0xff, 0, 5, 1, 2, 3, 250, 9, 77})
	f.Add([]byte{7, 5, 0, 129, 0x0f, 40, 3, 0, 128, 200, 17, 33, 4, 90})
	f.Add([]byte{40, 9, 1, 44, 0xaa, 255, 20, 3, 1, 4, 1, 5, 9, 2, 6})
	f.Add([]byte{6, 16, 0, 129, 0x5a, 30, 3, 7, 1, 250, 3, 9, 128, 64}) // 7×17×130: partial AVX tiles both ways, dense and sparse rows mixed
	// The 16-wide panel's edges: widths 16n+8 (a ZMM panel, then a YMM
	// one) and 16n+3 (then a column tail), rows 4n+1 … 4n+3.
	f.Add([]byte{4, 23, 0, 130, 0x55, 40, 2, 9, 200, 3, 77, 140, 1, 66})   // 5×24×131
	f.Add([]byte{5, 34, 0, 18, 0x0f, 60, 3, 250, 4, 31, 129, 8, 222, 17})  // 6×35×19
	f.Add([]byte{6, 39, 1, 4, 0xf0, 90, 4, 1, 13, 180, 2, 99, 254, 40})    // 7×40×261
	f.Add([]byte{10, 18, 0, 37, 0x33, 30, 5, 60, 7, 201, 5, 150, 33, 128}) // 11×19×38
	// The NT kernel's panel edges (ntEdgeShapes): a last B panel of 1 or
	// 3 real rows, a partial group of C rows, k from 1 to 2·tileK+3.
	for _, s := range ntEdgeShapes {
		m, n, k := s[0], s[1], s[2]
		f.Add([]byte{byte(m - 1), byte(n - 1), byte((k - 1) >> 8), byte(k - 1), 0x5a, 40, 2, 9, 200, 3, 77, 140, 1, 66})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			t.Skip()
		}
		m, n := 1+int(data[0])%40, 1+int(data[1])%40
		k := 1 + (int(data[2])<<8|int(data[3]))%300
		zeroFree, specialRate, split := data[4], data[5], int(data[6])%m
		vals := data[7:]
		next := 0
		value := func() float64 {
			x := vals[next%len(vals)] + byte(next/len(vals)*37)
			next++
			if x < specialRate/4 {
				return specialValues[int(x)%len(specialValues)]
			}
			// Inexact magnitudes over a few binades, so a reordered sum
			// rounds differently.
			v := math.Ldexp(1+float64(x)/257, int(x%7)-3)
			if x&1 == 1 {
				v = -v
			}
			return v
		}
		fill := func(rows, cols int, reduced bool) *Matrix {
			mat := New(rows, cols)
			for i := range mat.Data {
				mat.Data[i] = value()
			}
			if reduced { // the NN/NT row operand: honour the zero-free mask
				for r := 0; r < rows; r++ {
					if zeroFree>>(r%8)&1 == 1 {
						for j, v := range mat.Row(r) {
							if v == 0 {
								mat.Row(r)[j] = 1.5
							}
						}
					}
				}
			}
			return mat
		}
		var operands [][3]*Matrix // c, a and b of each variant
		for _, v := range kernelVariants {
			aR, aC, bR, bC := v.shape(m, n, k)
			a := fill(aR, aC, v.name != "TN")
			b := fill(bR, bC, false)
			operands = append(operands, [3]*Matrix{fill(m, n, false), a, b})
		}
		forEachPath(t, func(t *testing.T) {
			for i, v := range kernelVariants {
				checkAgainstSpec(t, v, operands[i][0], operands[i][1], operands[i][2], []int{split})
			}
		})
	})
}
