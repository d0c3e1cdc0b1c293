package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// The copy paths (SubMatrix, CopySub, SetSubMatrix and the slicing ops)
// copy a whole block at once when its rows are contiguous and row by row
// otherwise. The tests below hold every shape class against per-element
// reference loops: full-width and partial-width blocks, empty matrices and
// blocks, B = 1, and S·B equal to the whole dimension (one group).

// poisoned returns a rows×cols matrix of NaNs, so an element a copy path
// forgets to write shows up in BitEqual against the reference.
func poisoned(rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = math.NaN()
	}
	return m
}

// refBlock is the per-element reference of SubMatrix.
func refBlock(x *Matrix, r0, c0, rows, cols int) *Matrix {
	out := New(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			out.Data[r*cols+c] = x.Data[(r0+r)*x.Cols+c0+c]
		}
	}
	return out
}

// refSetBlock is the per-element reference of SetSubMatrix on a copy of m.
func refSetBlock(m *Matrix, r0, c0 int, block *Matrix) *Matrix {
	out := m.Clone()
	for r := 0; r < block.Rows; r++ {
		for c := 0; c < block.Cols; c++ {
			out.Data[(r0+r)*out.Cols+c0+c] = block.Data[r*block.Cols+c]
		}
	}
	return out
}

// blockCase is one block of an R×C matrix.
type blockCase struct{ R, C, r0, c0, rows, cols int }

func blockCases() []blockCase {
	return []blockCase{
		{6, 8, 0, 0, 6, 8},   // the whole matrix
		{6, 8, 2, 0, 3, 8},   // full-width rows in the middle
		{6, 8, 5, 0, 1, 8},   // the last row, full width
		{6, 8, 1, 2, 4, 5},   // partial width
		{6, 8, 0, 7, 6, 1},   // one column
		{6, 8, 3, 0, 3, 3},   // partial width starting at column 0
		{6, 8, 6, 0, 0, 8},   // 0 rows at the bottom edge
		{6, 8, 6, 5, 0, 3},   // 0 rows past the last row, partial width
		{6, 8, 2, 8, 4, 0},   // 0 columns at the right edge
		{0, 0, 0, 0, 0, 0},   // 0×0 matrix
		{0, 5, 0, 0, 0, 5},   // 0-row matrix
		{4, 0, 1, 0, 3, 0},   // 0-col matrix
		{1, 16, 0, 0, 1, 16}, // one row
	}
}

func TestBlockCopiesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, bc := range blockCases() {
		name := fmt.Sprintf("%dx%d block (%d,%d)+%dx%d", bc.R, bc.C, bc.r0, bc.c0, bc.rows, bc.cols)
		x := Random(bc.R, bc.C, rng)
		want := refBlock(x, bc.r0, bc.c0, bc.rows, bc.cols)
		if got := x.SubMatrix(bc.r0, bc.c0, bc.rows, bc.cols); !got.BitEqual(want) {
			t.Errorf("%s: SubMatrix %v, want %v", name, got, want)
		}
		dst := poisoned(bc.rows, bc.cols)
		if dst.CopySub(x, bc.r0, bc.c0); !dst.BitEqual(want) {
			t.Errorf("%s: CopySub %v, want %v", name, dst, want)
		}
		block := Random(bc.rows, bc.cols, rng)
		wantSet := refSetBlock(x, bc.r0, bc.c0, block)
		if x.SetSubMatrix(bc.r0, bc.c0, block); !x.BitEqual(wantSet) {
			t.Errorf("%s: SetSubMatrix %v, want %v", name, x, wantSet)
		}
	}
}

// refSliceCol and refSliceRow are the per-element references of paper
// Algorithm 2: element b of group g of sub-shard s is element
// g·S·B + s·B + b of the sliced dimension.
func refSliceCol(x *Matrix, S, s, B int) *Matrix {
	out := New(x.Rows, x.Cols/S)
	for r := 0; r < x.Rows; r++ {
		for g := 0; g < x.Cols/(S*B); g++ {
			for b := 0; b < B; b++ {
				out.Data[r*out.Cols+g*B+b] = x.Data[r*x.Cols+g*S*B+s*B+b]
			}
		}
	}
	return out
}

func refSliceRow(x *Matrix, S, s, B int) *Matrix {
	out := New(x.Rows/S, x.Cols)
	for g := 0; g < x.Rows/(S*B); g++ {
		for b := 0; b < B; b++ {
			for c := 0; c < x.Cols; c++ {
				out.Data[(g*B+b)*x.Cols+c] = x.Data[(g*S*B+s*B+b)*x.Cols+c]
			}
		}
	}
	return out
}

// sliceCase slices an R×C matrix S ways with block B along the dimension
// the test names.
type sliceCase struct{ R, C, S, B int }

func TestSliceCopiesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	// Each case is used for both directions: SliceCol cuts C, SliceRow
	// cuts the transposed shape's rows, so both see the same S·B cases.
	cases := []sliceCase{
		{3, 24, 3, 2},  // several groups
		{3, 24, 4, 1},  // B = 1: strided slicing
		{3, 24, 24, 1}, // B = 1 and S·B = the dimension
		{3, 24, 3, 8},  // S·B = the dimension: one group
		{3, 24, 1, 24}, // S = 1: the whole matrix
		{0, 24, 3, 2},  // 0 rows (0 columns for SliceRow)
		{5, 0, 2, 3},   // 0 in the sliced dimension
		{1, 8, 2, 2},   // one row
	}
	for _, sc := range cases {
		for s := 0; s < sc.S; s++ {
			name := fmt.Sprintf("%dx%d S=%d s=%d B=%d", sc.R, sc.C, sc.S, s, sc.B)

			x := Random(sc.R, sc.C, rng)
			want := refSliceCol(x, sc.S, s, sc.B)
			if got := SliceCol(x, sc.S, s, sc.B); !got.BitEqual(want) {
				t.Errorf("%s: SliceCol %v, want %v", name, got, want)
			}
			dst := poisoned(sc.R, sc.C/sc.S)
			if got := SliceColInto(dst, x, sc.S, s, sc.B); got != dst || !dst.BitEqual(want) {
				t.Errorf("%s: SliceColInto %v, want %v in dst", name, got, want)
			}
			sub := Random(sc.R, sc.C/sc.S, rng)
			back := x.Clone()
			UnsliceColInto(back, sub, sc.S, s, sc.B)
			wantBack := x.Clone()
			for r := 0; r < sc.R; r++ {
				for g := 0; g < sc.C/(sc.S*sc.B); g++ {
					for b := 0; b < sc.B; b++ {
						wantBack.Data[r*sc.C+g*sc.S*sc.B+s*sc.B+b] = sub.Data[r*sub.Cols+g*sc.B+b]
					}
				}
			}
			if !back.BitEqual(wantBack) {
				t.Errorf("%s: UnsliceColInto %v, want %v", name, back, wantBack)
			}

			xt := Random(sc.C, sc.R, rng)
			wantT := refSliceRow(xt, sc.S, s, sc.B)
			if got := SliceRow(xt, sc.S, s, sc.B); !got.BitEqual(wantT) {
				t.Errorf("%s: SliceRow %v, want %v", name, got, wantT)
			}
			dstT := poisoned(sc.C/sc.S, sc.R)
			if got := SliceRowInto(dstT, xt, sc.S, s, sc.B); got != dstT || !dstT.BitEqual(wantT) {
				t.Errorf("%s: SliceRowInto %v, want %v in dst", name, got, wantT)
			}
			subT := Random(sc.C/sc.S, sc.R, rng)
			backT := xt.Clone()
			UnsliceRowInto(backT, subT, sc.S, s, sc.B)
			wantBackT := xt.Clone()
			for g := 0; g < sc.C/(sc.S*sc.B); g++ {
				for b := 0; b < sc.B; b++ {
					copy(wantBackT.Data[(g*sc.S*sc.B+s*sc.B+b)*sc.R:][:sc.R], subT.Data[(g*sc.B+b)*sc.R:][:sc.R])
				}
			}
			if !backT.BitEqual(wantBackT) {
				t.Errorf("%s: UnsliceRowInto %v, want %v", name, backT, wantBackT)
			}
		}
	}
}

// TestSliceIntoShapePanics: a destination of the wrong shape is refused
// with the slicing-precondition message, before anything is written.
func TestSliceIntoShapePanics(t *testing.T) {
	x := New(4, 8)
	for name, f := range map[string]func(){
		"SliceColInto": func() { SliceColInto(New(4, 3), x, 2, 0, 2) },
		"SliceRowInto": func() { SliceRowInto(New(2, 7), x, 2, 0, 1) },
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "tensor: "+name+" sub ") {
					t.Errorf("%s with a mis-shaped dst panicked with %q, want the shape message", name, msg)
				}
			}()
			f()
		}()
	}
}

// TestRowPanicMessage: Row's panic value is a small type so Row inlines,
// but what it says is the message it always said.
func TestRowPanicMessage(t *testing.T) {
	for _, tc := range []struct {
		m    *Matrix
		r    int
		want string
	}{
		{New(3, 4), -1, "tensor: row -1 out of range for 3x4"},
		{New(3, 4), 3, "tensor: row 3 out of range for 3x4"},
		{New(0, 0), 0, "tensor: row 0 out of range for 0x0"},
	} {
		func() {
			defer func() {
				v := recover()
				err, ok := v.(error)
				if !ok || err.Error() != tc.want || fmt.Sprint(v) != tc.want {
					t.Errorf("Row(%d) on %dx%d panicked with %v, want %q", tc.r, tc.m.Rows, tc.m.Cols, v, tc.want)
				}
			}()
			tc.m.Row(tc.r)
			t.Errorf("Row(%d) on %dx%d did not panic", tc.r, tc.m.Rows, tc.m.Cols)
		}()
	}
}
