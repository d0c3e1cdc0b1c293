package tensor

import "fmt"

// This file implements the slicing operations at the core of the MeshSlice
// algorithm (paper §3.1). slice_col(X, S, s) selects every S-th group of
// columns of X, and slice_row selects every S-th group of rows. With block
// size B=1 this is the strided slicing of the mathematical description
// (§3.1.1); with B>1 it is the blocked variant of Algorithm 2 that keeps
// memory accesses contiguous (the paper uses B=8 for TPUs, matching the
// TPU's 2D 128×8 memory chunks).

// SliceCol returns the s-th column sub-shard of X for slice count S with
// block size B (paper Algorithm 2).
//
// X's columns are viewed as C/(S·B) groups of S·B columns; within each group
// the s-th run of B contiguous columns is selected. The result has shape
// R × C/S. X.Cols must be divisible by S·B and 0 ≤ s < S.
func SliceCol(x *Matrix, S, s, B int) *Matrix {
	checkSliceArgs("SliceCol", x.Cols, S, s, B)
	return SliceColInto(New(x.Rows, x.Cols/S), x, S, s, B)
}

// SliceColInto writes SliceCol(x, S, s, B) into dst, which must be
// x.Rows × x.Cols/S, and returns dst. Every element of dst is overwritten.
func SliceColInto(dst, x *Matrix, S, s, B int) *Matrix {
	checkSliceArgs("SliceColInto", x.Cols, S, s, B)
	checkSubShape("SliceColInto", dst, x.Rows, x.Cols/S, x, S)
	groups := x.Cols / (S * B)
	for r := 0; r < x.Rows; r++ {
		src := x.Row(r)
		out := dst.Row(r)
		for g := 0; g < groups; g++ {
			copy(out[g*B:(g+1)*B], src[g*S*B+s*B:g*S*B+(s+1)*B])
		}
	}
	return dst
}

// UnsliceColInto writes sub (the s-th column sub-shard for slice count S and
// block size B) back into its source positions inside x. It is the inverse
// of SliceCol: applying it for every s reconstructs x exactly.
func UnsliceColInto(x, sub *Matrix, S, s, B int) {
	checkSliceArgs("UnsliceColInto", x.Cols, S, s, B)
	checkSubShape("UnsliceColInto", sub, x.Rows, x.Cols/S, x, S)
	groups := x.Cols / (S * B)
	for r := 0; r < x.Rows; r++ {
		dst := x.Row(r)
		src := sub.Row(r)
		for g := 0; g < groups; g++ {
			copy(dst[g*S*B+s*B:g*S*B+(s+1)*B], src[g*B:(g+1)*B])
		}
	}
}

// SliceRow returns the s-th row sub-shard of X for slice count S with block
// size B: every S-th run of B contiguous rows. The result has shape R/S × C.
// X.Rows must be divisible by S·B and 0 ≤ s < S.
func SliceRow(x *Matrix, S, s, B int) *Matrix {
	checkSliceArgs("SliceRow", x.Rows, S, s, B)
	return SliceRowInto(New(x.Rows/S, x.Cols), x, S, s, B)
}

// SliceRowInto writes SliceRow(x, S, s, B) into dst, which must be
// x.Rows/S × x.Cols, and returns dst. Each run of B rows is contiguous in
// both matrices and is copied at once.
func SliceRowInto(dst, x *Matrix, S, s, B int) *Matrix {
	checkSliceArgs("SliceRowInto", x.Rows, S, s, B)
	checkSubShape("SliceRowInto", dst, x.Rows/S, x.Cols, x, S)
	run := B * x.Cols
	for g := 0; g < x.Rows/(S*B); g++ {
		from := (g*S + s) * run
		copy(dst.Data[g*run:(g+1)*run], x.Data[from:from+run])
	}
	return dst
}

// UnsliceRowInto writes sub (the s-th row sub-shard for slice count S and
// block size B) back into its source rows inside x; the inverse of SliceRow.
func UnsliceRowInto(x, sub *Matrix, S, s, B int) {
	checkSliceArgs("UnsliceRowInto", x.Rows, S, s, B)
	checkSubShape("UnsliceRowInto", sub, x.Rows/S, x.Cols, x, S)
	run := B * x.Cols
	for g := 0; g < x.Rows/(S*B); g++ {
		to := (g*S + s) * run
		copy(x.Data[to:to+run], sub.Data[g*run:(g+1)*run])
	}
}

// checkSubShape panics unless sub, the sub-shard side of a slicing op on x
// with slice count S, is rows×cols.
func checkSubShape(op string, sub *Matrix, rows, cols int, x *Matrix, S int) {
	if sub.Rows != rows || sub.Cols != cols {
		panic(fmt.Sprintf("tensor: %s sub %dx%d for target %dx%d S=%d", op, sub.Rows, sub.Cols, x.Rows, x.Cols, S)) // lint:invariant slicing precondition
	}
}

func checkSliceArgs(op string, dim, S, s, B int) {
	if S <= 0 || B <= 0 {
		panic(fmt.Sprintf("tensor: %s with S=%d B=%d", op, S, B)) // lint:invariant slicing precondition
	}
	if s < 0 || s >= S {
		panic(fmt.Sprintf("tensor: %s slice index %d out of range for S=%d", op, s, S)) // lint:invariant slicing precondition
	}
	if dim%(S*B) != 0 {
		panic(fmt.Sprintf("tensor: %s dimension %d not divisible by S·B=%d·%d", op, dim, S, B)) // lint:invariant slicing precondition
	}
}
