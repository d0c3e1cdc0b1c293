package topology

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestRankCoordRoundTrip(t *testing.T) {
	tor := NewTorus(3, 4)
	for r := 0; r < tor.Size(); r++ {
		if got := tor.Rank(tor.Coord(r)); got != r {
			t.Errorf("Rank(Coord(%d)) = %d", r, got)
		}
	}
}

func TestCoordLayoutRowMajor(t *testing.T) {
	tor := NewTorus(2, 3)
	if c := tor.Coord(4); c != (Coord{Row: 1, Col: 1}) {
		t.Errorf("Coord(4) = %v, want (1,1)", c)
	}
	if r := tor.Rank(Coord{Row: 1, Col: 2}); r != 5 {
		t.Errorf("Rank((1,2)) = %d, want 5", r)
	}
}

func TestNewTorusPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("NewTorus(0,3) should panic")
		}
	}()
	NewTorus(0, 3)
}

func TestRingSizeAndPosition(t *testing.T) {
	tor := NewTorus(3, 5)
	if tor.RingSize(InterRow) != 3 {
		t.Errorf("vertical ring size = %d, want 3", tor.RingSize(InterRow))
	}
	if tor.RingSize(InterCol) != 5 {
		t.Errorf("horizontal ring size = %d, want 5", tor.RingSize(InterCol))
	}
	c := Coord{Row: 2, Col: 4}
	if tor.RingPosition(c, InterRow) != 2 {
		t.Errorf("InterRow position = %d, want 2", tor.RingPosition(c, InterRow))
	}
	if tor.RingPosition(c, InterCol) != 4 {
		t.Errorf("InterCol position = %d, want 4", tor.RingPosition(c, InterCol))
	}
}

func TestRingMembers(t *testing.T) {
	tor := NewTorus(2, 3)
	row := tor.Ring(Coord{Row: 1, Col: 0}, InterCol)
	want := []Coord{{1, 0}, {1, 1}, {1, 2}}
	if len(row) != len(want) {
		t.Fatalf("Ring length = %d, want %d", len(row), len(want))
	}
	for i := range want {
		if row[i] != want[i] {
			t.Errorf("Ring[%d] = %v, want %v", i, row[i], want[i])
		}
	}
	col := tor.Ring(Coord{Row: 0, Col: 2}, InterRow)
	wantCol := []Coord{{0, 2}, {1, 2}}
	for i := range wantCol {
		if col[i] != wantCol[i] {
			t.Errorf("column Ring[%d] = %v, want %v", i, col[i], wantCol[i])
		}
	}
}

func TestNextPrevWrapAround(t *testing.T) {
	tor := NewTorus(3, 3)
	if n := tor.Next(Coord{2, 1}, InterRow); n != (Coord{0, 1}) {
		t.Errorf("Next wraps to %v, want (0,1)", n)
	}
	if p := tor.Prev(Coord{0, 1}, InterRow); p != (Coord{2, 1}) {
		t.Errorf("Prev wraps to %v, want (2,1)", p)
	}
	if n := tor.Next(Coord{1, 2}, InterCol); n != (Coord{1, 0}) {
		t.Errorf("Next wraps to %v, want (1,0)", n)
	}
}

// Property: Prev(Next(c)) == c for every chip and direction.
func TestNextPrevInverseProperty(t *testing.T) {
	f := func(rows8, cols8, rank8 uint8) bool {
		rows, cols := int(rows8%6)+1, int(cols8%6)+1
		tor := NewTorus(rows, cols)
		c := tor.Coord(int(rank8) % tor.Size())
		for _, d := range []Direction{InterRow, InterCol} {
			if tor.Prev(tor.Next(c, d), d) != c || tor.Next(tor.Prev(c, d), d) != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: following Next around a ring visits exactly RingSize distinct
// chips and returns to the start.
func TestRingClosureProperty(t *testing.T) {
	f := func(rows8, cols8, rank8, dir8 uint8) bool {
		rows, cols := int(rows8%5)+1, int(cols8%5)+1
		tor := NewTorus(rows, cols)
		c := tor.Coord(int(rank8) % tor.Size())
		d := Direction(int(dir8) % 2)
		seen := map[Coord]bool{}
		cur := c
		for i := 0; i < tor.RingSize(d); i++ {
			if seen[cur] {
				return false
			}
			seen[cur] = true
			cur = tor.Next(cur, d)
		}
		return cur == c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRingPeer(t *testing.T) {
	tor := NewTorus(4, 2)
	if p := tor.RingPeer(Coord{1, 1}, InterRow, 3); p != (Coord{3, 1}) {
		t.Errorf("RingPeer = %v, want (3,1)", p)
	}
	if p := tor.RingPeer(Coord{1, 1}, InterCol, 0); p != (Coord{1, 0}) {
		t.Errorf("RingPeer = %v, want (1,0)", p)
	}
}

func TestIsSquare(t *testing.T) {
	if !NewTorus(4, 4).IsSquare() {
		t.Errorf("4x4 should be square")
	}
	if NewTorus(4, 2).IsSquare() {
		t.Errorf("4x2 should not be square")
	}
}

func TestMeshShapes(t *testing.T) {
	got := MeshShapes(12)
	want := []Torus{{1, 12}, {2, 6}, {3, 4}, {4, 3}, {6, 2}, {12, 1}}
	if len(got) != len(want) {
		t.Fatalf("MeshShapes(12) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("MeshShapes(12)[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if MeshShapes(0) != nil {
		t.Errorf("MeshShapes(0) should be nil")
	}
}

func TestMeshShapes2DExcludesDegenerate(t *testing.T) {
	for _, s := range MeshShapes2D(256) {
		if s.Rows < 2 || s.Cols < 2 {
			t.Errorf("MeshShapes2D returned degenerate %v", s)
		}
		if s.Size() != 256 {
			t.Errorf("shape %v has wrong size", s)
		}
	}
	if n := len(MeshShapes2D(256)); n != 7 { // 2x128..128x2
		t.Errorf("MeshShapes2D(256) count = %d, want 7", n)
	}
}

// TestMeshShapesMatchesTrialDivision checks the O(√n) divisor-pair walk
// against the trial division over every Pr ≤ n it replaced, order included.
func TestMeshShapesMatchesTrialDivision(t *testing.T) {
	for n := 1; n <= 5000; n++ {
		var all, twoD []Torus
		for pr := 1; pr <= n; pr++ {
			if n%pr == 0 {
				all = append(all, Torus{Rows: pr, Cols: n / pr})
				if pr >= 2 && n/pr >= 2 {
					twoD = append(twoD, Torus{Rows: pr, Cols: n / pr})
				}
			}
		}
		if got := MeshShapes(n); !reflect.DeepEqual(got, all) {
			t.Fatalf("MeshShapes(%d) = %v, want %v", n, got, all)
		}
		if got := MeshShapes2D(n); !reflect.DeepEqual(got, twoD) {
			t.Fatalf("MeshShapes2D(%d) = %v, want %v", n, got, twoD)
		}
	}
	want := []Torus{{2, 32}, {4, 16}, {8, 8}, {16, 4}, {32, 2}}
	if got := MeshShapes2D(64); !reflect.DeepEqual(got, want) {
		t.Errorf("MeshShapes2D(64) = %v, want %v", got, want)
	}
}

func TestDirectionHelpers(t *testing.T) {
	if InterRow.String() != "inter-row" || InterCol.String() != "inter-col" {
		t.Errorf("String broken: %q %q", InterRow, InterCol)
	}
	if Direction(9).String() == "" {
		t.Errorf("unknown direction should still render")
	}
}

func TestStringRenderings(t *testing.T) {
	if got := NewTorus(4, 8).String(); got != "4x8 torus" {
		t.Errorf("Torus.String = %q", got)
	}
	if got := (Coord{Row: 1, Col: 2}).String(); got != "(1,2)" {
		t.Errorf("Coord.String = %q", got)
	}
}

func TestCoordOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("Coord out of range should panic")
		}
	}()
	NewTorus(2, 2).Coord(4)
}

// Prev returns c's upstream ring neighbour in the given direction.
func (t Torus) Prev(c Coord, d Direction) Coord {
	t.check(c)
	if d == InterRow {
		return Coord{Row: (c.Row - 1 + t.Rows) % t.Rows, Col: c.Col}
	}
	return Coord{Row: c.Row, Col: (c.Col - 1 + t.Cols) % t.Cols}
}
