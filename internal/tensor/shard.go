package tensor

import "fmt"

// Sharding helpers: a global matrix is partitioned into Pr×Pc equal shards
// assigned to the chips of a 2D mesh (paper §2.3.1); shard (i,j) lives on
// chip (i,j). These functions move between the global view used by tests and
// the per-chip view used by the distributed algorithms.

// Partition splits global into pr×pc equal shards. Shard (i,j) is returned
// at index i*pc+j. global.Rows must divide by pr and global.Cols by pc.
func Partition(global *Matrix, pr, pc int) []*Matrix {
	if pr <= 0 || pc <= 0 || global.Rows%pr != 0 || global.Cols%pc != 0 {
		panic(fmt.Sprintf("tensor: Partition %dx%d into %dx%d shards", global.Rows, global.Cols, pr, pc)) // lint:invariant shape precondition
	}
	sr, sc := global.Rows/pr, global.Cols/pc
	shards := make([]*Matrix, pr*pc)
	for i := 0; i < pr; i++ {
		for j := 0; j < pc; j++ {
			shards[i*pc+j] = global.SubMatrix(i*sr, j*sc, sr, sc)
		}
	}
	return shards
}

// Assemble reconstructs the global matrix from pr×pc shards produced by
// Partition (shard (i,j) at index i*pc+j). All shards must share one shape.
func Assemble(shards []*Matrix, pr, pc int) *Matrix {
	if len(shards) != pr*pc {
		panic(fmt.Sprintf("tensor: Assemble got %d shards for %dx%d mesh", len(shards), pr, pc)) // lint:invariant shape precondition
	}
	sr, sc := shards[0].Rows, shards[0].Cols
	global := New(pr*sr, pc*sc)
	for i := 0; i < pr; i++ {
		for j := 0; j < pc; j++ {
			s := shards[i*pc+j]
			if s.Rows != sr || s.Cols != sc {
				panic(fmt.Sprintf("tensor: Assemble shard (%d,%d) is %dx%d, want %dx%d", i, j, s.Rows, s.Cols, sr, sc)) // lint:invariant shape precondition
			}
			global.SetSubMatrix(i*sr, j*sc, s)
		}
	}
	return global
}

// ConcatRows stacks the matrices vertically in order. All must have the
// same column count.
func ConcatRows(parts []*Matrix) *Matrix {
	cols := 0
	rows := 0
	if len(parts) > 0 {
		cols = parts[0].Cols
	}
	for _, p := range parts {
		rows += p.Rows
	}
	out := New(rows, cols)
	ConcatRowsInto(out, parts)
	return out
}

// ConcatRowsInto stacks the matrices vertically in order into dst, which
// must already have the combined shape. All parts must have dst's column
// count.
func ConcatRowsInto(dst *Matrix, parts []*Matrix) {
	rows := 0
	for _, p := range parts {
		if p.Cols != dst.Cols {
			panic(fmt.Sprintf("tensor: ConcatRows column mismatch %d vs %d", p.Cols, dst.Cols)) // lint:invariant shape precondition
		}
		rows += p.Rows
	}
	if rows != dst.Rows {
		panic(fmt.Sprintf("tensor: ConcatRowsInto %d rows into %dx%d", rows, dst.Rows, dst.Cols)) // lint:invariant shape precondition
	}
	r0 := 0
	for _, p := range parts {
		dst.SetSubMatrix(r0, 0, p)
		r0 += p.Rows
	}
}

// ConcatCols stacks the matrices horizontally in order. All must have the
// same row count.
// lint:allow unused collective's and gemm's tests assemble column shards with it
func ConcatCols(parts []*Matrix) *Matrix {
	rows := 0
	cols := 0
	if len(parts) > 0 {
		rows = parts[0].Rows
	}
	for _, p := range parts {
		cols += p.Cols
	}
	out := New(rows, cols)
	ConcatColsInto(out, parts)
	return out
}

// ConcatColsInto stacks the matrices horizontally in order into dst, which
// must already have the combined shape. All parts must have dst's row
// count.
func ConcatColsInto(dst *Matrix, parts []*Matrix) {
	cols := 0
	for _, p := range parts {
		if p.Rows != dst.Rows {
			panic(fmt.Sprintf("tensor: ConcatCols row mismatch %d vs %d", p.Rows, dst.Rows)) // lint:invariant shape precondition
		}
		cols += p.Cols
	}
	if cols != dst.Cols {
		panic(fmt.Sprintf("tensor: ConcatColsInto %d cols into %dx%d", cols, dst.Rows, dst.Cols)) // lint:invariant shape precondition
	}
	c0 := 0
	for _, p := range parts {
		dst.SetSubMatrix(0, c0, p)
		c0 += p.Cols
	}
}

// SplitRows divides m into n equal horizontal strips (m.Rows % n == 0).
func SplitRows(m *Matrix, n int) []*Matrix {
	if n <= 0 || m.Rows%n != 0 {
		panic(fmt.Sprintf("tensor: SplitRows %dx%d into %d", m.Rows, m.Cols, n)) // lint:invariant shape precondition
	}
	h := m.Rows / n
	out := make([]*Matrix, n)
	for i := range out {
		out[i] = m.SubMatrix(i*h, 0, h, m.Cols)
	}
	return out
}

// SplitCols divides m into n equal vertical strips (m.Cols % n == 0).
func SplitCols(m *Matrix, n int) []*Matrix {
	if n <= 0 || m.Cols%n != 0 {
		panic(fmt.Sprintf("tensor: SplitCols %dx%d into %d", m.Rows, m.Cols, n)) // lint:invariant shape precondition
	}
	w := m.Cols / n
	out := make([]*Matrix, n)
	for i := range out {
		out[i] = m.SubMatrix(0, i*w, m.Rows, w)
	}
	return out
}
