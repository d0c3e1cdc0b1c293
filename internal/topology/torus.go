// Package topology models the interconnect shapes used by the MeshSlice
// reproduction: rings (for 1D baselines and for the rows/columns of a mesh)
// and 2D tori (the TPUv4 ICI network, paper §2.2 and Fig. 8).
//
// A chip in a Pr×Pc torus is addressed by (row, col) or by its linear rank
// row*Pc + col. Every row of chips forms a horizontal ring and every column
// a vertical ring, which is what makes ring collectives (AllGather,
// ReduceScatter, Broadcast, Reduce) the natural communication primitives.
package topology

import "fmt"

// Direction distinguishes the two communication directions of a 2D mesh.
// Following the paper's vocabulary: inter-row communication travels
// vertically along a column of chips; inter-column communication travels
// horizontally along a row of chips.
type Direction int

const (
	// InterRow is vertical traffic: chips in the same column exchange data
	// across mesh rows (the paper's "row" subscript communications move
	// along these links when gathering down a column... see Torus.Ring).
	InterRow Direction = iota
	// InterCol is horizontal traffic: chips in the same row exchange data
	// across mesh columns.
	InterCol
)

func (d Direction) String() string {
	switch d {
	case InterRow:
		return "inter-row"
	case InterCol:
		return "inter-col"
	case InterDepth:
		return "inter-depth"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Coord is a chip position in a 2D mesh.
type Coord struct {
	Row, Col int
}

func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.Row, c.Col) }

// Torus is a Pr×Pc 2D torus of chips.
type Torus struct {
	Rows, Cols int
}

// NewTorus returns a torus with the given shape. Both dimensions must be
// positive.
func NewTorus(rows, cols int) Torus {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("topology: invalid torus shape %dx%d", rows, cols)) // lint:invariant shape precondition
	}
	return Torus{Rows: rows, Cols: cols}
}

// Size returns the total chip count.
func (t Torus) Size() int { return t.Rows * t.Cols }

// Rank returns the linear rank of coordinate c (row-major).
func (t Torus) Rank(c Coord) int {
	t.check(c)
	return c.Row*t.Cols + c.Col
}

// Coord returns the coordinate of linear rank r.
func (t Torus) Coord(r int) Coord {
	if r < 0 || r >= t.Size() {
		panic(fmt.Sprintf("topology: rank %d out of range for %dx%d torus", r, t.Rows, t.Cols)) // lint:invariant bounds precondition
	}
	return Coord{Row: r / t.Cols, Col: r % t.Cols}
}

func (t Torus) check(c Coord) {
	if c.Row < 0 || c.Row >= t.Rows || c.Col < 0 || c.Col >= t.Cols {
		panic(fmt.Sprintf("topology: coord %v out of range for %dx%d torus", c, t.Rows, t.Cols)) // lint:invariant bounds precondition
	}
}

// RingSize returns the number of chips in a ring of the given direction:
// a vertical (inter-row) ring has Rows chips, a horizontal (inter-col)
// ring has Cols chips.
func (t Torus) RingSize(d Direction) int {
	if d == InterRow {
		return t.Rows
	}
	return t.Cols
}

// RingPosition returns the position of chip c within its ring of the given
// direction: its row index for vertical rings, column index for horizontal.
func (t Torus) RingPosition(c Coord, d Direction) int {
	t.check(c)
	if d == InterRow {
		return c.Row
	}
	return c.Col
}

// RingPeer returns the chip at position pos in the same ring as c for the
// given direction.
func (t Torus) RingPeer(c Coord, d Direction, pos int) Coord {
	t.check(c)
	if d == InterRow {
		if pos < 0 || pos >= t.Rows {
			panic(fmt.Sprintf("topology: ring position %d out of range for %d rows", pos, t.Rows)) // lint:invariant bounds precondition
		}
		return Coord{Row: pos, Col: c.Col}
	}
	if pos < 0 || pos >= t.Cols {
		panic(fmt.Sprintf("topology: ring position %d out of range for %d cols", pos, t.Cols)) // lint:invariant bounds precondition
	}
	return Coord{Row: c.Row, Col: pos}
}

// Ring returns the chips of c's ring in the given direction, ordered by
// ring position. For InterRow this is c's entire column; for InterCol it is
// c's entire row.
func (t Torus) Ring(c Coord, d Direction) []Coord {
	t.check(c)
	n := t.RingSize(d)
	out := make([]Coord, n)
	for i := 0; i < n; i++ {
		out[i] = t.RingPeer(c, d, i)
	}
	return out
}

// Next returns c's downstream ring neighbour in the given direction
// (wrapping torus links).
func (t Torus) Next(c Coord, d Direction) Coord {
	t.check(c)
	if d == InterRow {
		return Coord{Row: (c.Row + 1) % t.Rows, Col: c.Col}
	}
	return Coord{Row: c.Row, Col: (c.Col + 1) % t.Cols}
}

// IsSquare reports whether the torus has equal dimensions (required by
// Cannon's algorithm, paper §2.3.2).
func (t Torus) IsSquare() bool { return t.Rows == t.Cols }

func (t Torus) String() string { return fmt.Sprintf("%dx%d torus", t.Rows, t.Cols) }

// MeshShapes enumerates every Pr×Pc factorisation of n chips, ordered by
// increasing Pr. These are the candidate cluster shapes the autotuner
// searches over (paper §3.2.2). Shapes with Pr==1 or Pc==1 degenerate to
// rings; they are included because the autotuner may legitimately pick them
// for extremely skewed matrices, and the 1D baselines use them.
// lint:allow unused costmodel's tests sweep every shape, rings included, with it
func MeshShapes(n int) []Torus { return meshShapes(n, 1) }

// MeshShapes2D is MeshShapes restricted to proper 2D shapes (both
// dimensions at least 2), the shapes a physical 2D torus can realise.
func MeshShapes2D(n int) []Torus { return meshShapes(n, 2) }

// meshShapes enumerates the factorisations Pr×Pc = n with both dimensions
// at least minDim, by increasing Pr, or nil when there are none. Divisors
// pair up as s ≤ √n ≤ n/s, so one O(√n) pass counts them and a second fills
// the small Pr from the front and their partners from the back.
func meshShapes(n, minDim int) []Torus {
	if n <= 0 {
		return nil
	}
	count := 0
	for s := minDim; s*s <= n; s++ {
		if n%s == 0 {
			count += 2
			if s*s == n {
				count--
			}
		}
	}
	if count == 0 {
		return nil
	}
	out := make([]Torus, count)
	lo, hi := 0, count-1
	for s := minDim; s*s <= n; s++ {
		if n%s == 0 {
			out[lo] = Torus{Rows: s, Cols: n / s}
			out[hi] = Torus{Rows: n / s, Cols: s}
			lo, hi = lo+1, hi-1
		}
	}
	return out
}
