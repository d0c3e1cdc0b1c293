package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSliceColStrided(t *testing.T) {
	// B=1, S=2 over 4 columns: sub-shard 0 takes cols {0,2}, 1 takes {1,3}.
	x := FromSlice(2, 4, []float64{
		0, 1, 2, 3,
		10, 11, 12, 13,
	})
	s0 := SliceCol(x, 2, 0, 1)
	want0 := FromSlice(2, 2, []float64{0, 2, 10, 12})
	if !s0.Equal(want0, 0) {
		t.Errorf("SliceCol s=0 = %v, want %v", s0, want0)
	}
	s1 := SliceCol(x, 2, 1, 1)
	want1 := FromSlice(2, 2, []float64{1, 3, 11, 13})
	if !s1.Equal(want1, 0) {
		t.Errorf("SliceCol s=1 = %v, want %v", s1, want1)
	}
}

func TestSliceColBlocked(t *testing.T) {
	// B=2, S=2 over 8 columns: groups of 4; s=0 takes cols {0,1,4,5}.
	x := New(1, 8)
	for c := 0; c < 8; c++ {
		x.Set(0, c, float64(c))
	}
	s0 := SliceCol(x, 2, 0, 2)
	want := FromSlice(1, 4, []float64{0, 1, 4, 5})
	if !s0.Equal(want, 0) {
		t.Errorf("blocked SliceCol s=0 = %v, want %v", s0, want)
	}
	s1 := SliceCol(x, 2, 1, 2)
	want1 := FromSlice(1, 4, []float64{2, 3, 6, 7})
	if !s1.Equal(want1, 0) {
		t.Errorf("blocked SliceCol s=1 = %v, want %v", s1, want1)
	}
}

func TestSliceRowStrided(t *testing.T) {
	x := FromSlice(4, 1, []float64{0, 1, 2, 3})
	s1 := SliceRow(x, 2, 1, 1)
	want := FromSlice(2, 1, []float64{1, 3})
	if !s1.Equal(want, 0) {
		t.Errorf("SliceRow s=1 = %v, want %v", s1, want)
	}
}

func TestSliceRowBlocked(t *testing.T) {
	x := New(8, 1)
	for r := 0; r < 8; r++ {
		x.Set(r, 0, float64(r))
	}
	s1 := SliceRow(x, 2, 1, 2)
	want := FromSlice(4, 1, []float64{2, 3, 6, 7})
	if !s1.Equal(want, 0) {
		t.Errorf("blocked SliceRow s=1 = %v, want %v", s1, want)
	}
}

// Property: unslicing every column sub-shard reconstructs the original
// matrix exactly, for both strided (B=1) and blocked (B>1) slicing.
func TestSliceColRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(rows8, sSel, bSel uint8) bool {
		rows := int(rows8%5) + 1
		B := []int{1, 2, 4}[int(bSel)%3]
		S := []int{1, 2, 3, 4}[int(sSel)%4]
		cols := S * B * (int(sSel%3) + 1)
		x := Random(rows, cols, rng)
		rec := New(rows, cols)
		for s := 0; s < S; s++ {
			UnsliceColInto(rec, SliceCol(x, S, s, B), S, s, B)
		}
		return rec.Equal(x, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSliceRowRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	f := func(cols8, sSel, bSel uint8) bool {
		cols := int(cols8%5) + 1
		B := []int{1, 2, 4}[int(bSel)%3]
		S := []int{1, 2, 3, 4}[int(sSel)%4]
		rows := S * B * (int(sSel%3) + 1)
		x := Random(rows, cols, rng)
		rec := New(rows, cols)
		for s := 0; s < S; s++ {
			UnsliceRowInto(rec, SliceRow(x, S, s, B), S, s, B)
		}
		return rec.Equal(x, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property (the algebra behind MeshSlice, §3.1.1): summing the partial
// products of column-sliced A and row-sliced B over all s recovers A·B,
// for any block size. This is the single-chip version of the MeshSlice
// partial-GeMM identity.
func TestSlicedGeMMIdentityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	f := func(m8, n8, sSel, bSel uint8) bool {
		m, n := int(m8%5)+1, int(n8%5)+1
		B := []int{1, 2}[int(bSel)%2]
		S := []int{1, 2, 3}[int(sSel)%3]
		k := S * B * (int(sSel%2) + 1)
		a := Random(m, k, rng)
		b := Random(k, n, rng)
		c := New(m, n)
		for s := 0; s < S; s++ {
			MatMulAdd(c, SliceCol(a, S, s, B), SliceRow(b, S, s, B))
		}
		return c.Equal(MatMul(a, b), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSliceColS1IsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	x := Random(3, 8, rng)
	if !SliceCol(x, 1, 0, 2).Equal(x, 0) {
		t.Errorf("SliceCol with S=1 must return the whole matrix")
	}
}

func TestSlicePanics(t *testing.T) {
	x := New(4, 4)
	cases := []func(){
		func() { SliceCol(x, 3, 0, 1) },  // 4 % 3 != 0
		func() { SliceCol(x, 2, 2, 1) },  // s out of range
		func() { SliceCol(x, 0, 0, 1) },  // S <= 0
		func() { SliceCol(x, 2, 0, 0) },  // B <= 0
		func() { SliceRow(x, 2, -1, 1) }, // s < 0
		func() { SliceRow(x, 2, 0, 4) },  // 4 % (2*4) != 0
		func() { UnsliceColInto(x, New(4, 4), 2, 0, 1) },
		func() { UnsliceRowInto(x, New(4, 4), 2, 0, 1) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d should panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestPartitionAssembleRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	g := Random(6, 8, rng)
	shards := Partition(g, 3, 2)
	if len(shards) != 6 {
		t.Fatalf("Partition returned %d shards, want 6", len(shards))
	}
	if shards[0].Rows != 2 || shards[0].Cols != 4 {
		t.Fatalf("shard shape = %dx%d, want 2x4", shards[0].Rows, shards[0].Cols)
	}
	if !Assemble(shards, 3, 2).Equal(g, 0) {
		t.Errorf("Assemble(Partition(g)) != g")
	}
}

func TestPartitionPanicsOnIndivisible(t *testing.T) {
	defer expectPanic(t, "Partition")
	Partition(New(5, 4), 2, 2)
}

func TestConcatSplitRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	m := Random(6, 4, rng)
	if !ConcatRows(SplitRows(m, 3)).Equal(m, 0) {
		t.Errorf("ConcatRows(SplitRows) != identity")
	}
	if !ConcatCols(SplitCols(m, 2)).Equal(m, 0) {
		t.Errorf("ConcatCols(SplitCols) != identity")
	}
}

func TestConcatEmpty(t *testing.T) {
	if m := ConcatRows(nil); m.Rows != 0 || m.Cols != 0 {
		t.Errorf("ConcatRows(nil) = %dx%d", m.Rows, m.Cols)
	}
	if m := ConcatCols(nil); m.Rows != 0 || m.Cols != 0 {
		t.Errorf("ConcatCols(nil) = %dx%d", m.Rows, m.Cols)
	}
}

func TestConcatMismatchPanics(t *testing.T) {
	defer expectPanic(t, "ConcatRows")
	ConcatRows([]*Matrix{New(1, 2), New(1, 3)})
}

func TestSplitPanics(t *testing.T) {
	defer expectPanic(t, "SplitCols")
	SplitCols(New(2, 5), 2)
}
