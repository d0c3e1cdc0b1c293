package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewZeroInitialised(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 {
		t.Fatalf("shape = %dx%d, want 3x4", m.Rows, m.Cols)
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("Data[%d] = %v, want 0", i, v)
		}
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	m := New(4, 5)
	m.Set(2, 3, 7.5)
	if got := m.At(2, 3); got != 7.5 {
		t.Errorf("At(2,3) = %v, want 7.5", got)
	}
	if got := m.At(3, 2); got != 0 {
		t.Errorf("At(3,2) = %v, want 0", got)
	}
}

func TestFromSliceAliases(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6}
	m := FromSlice(2, 3, data)
	data[4] = 99
	if got := m.At(1, 1); got != 99 {
		t.Errorf("FromSlice should alias data, At(1,1) = %v, want 99", got)
	}
}

func TestFromSlicePanicsOnBadLength(t *testing.T) {
	defer expectPanic(t, "FromSlice")
	FromSlice(2, 3, []float64{1, 2, 3})
}

func TestIdentity(t *testing.T) {
	id := Identity(3)
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			want := 0.0
			if r == c {
				want = 1
			}
			if got := id.At(r, c); got != want {
				t.Errorf("I(%d,%d) = %v, want %v", r, c, got, want)
			}
		}
	}
}

func TestCloneIsIndependent(t *testing.T) {
	m := FromSlice(2, 2, []float64{1, 2, 3, 4})
	c := m.Clone()
	c.Set(0, 0, 42)
	if m.At(0, 0) != 1 {
		t.Errorf("Clone must not share storage")
	}
}

func TestTranspose(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("Tᵀ shape = %dx%d, want 3x2", tr.Rows, tr.Cols)
	}
	for r := 0; r < 2; r++ {
		for c := 0; c < 3; c++ {
			if m.At(r, c) != tr.At(c, r) {
				t.Errorf("T mismatch at (%d,%d)", r, c)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := Random(7, 11, rng)
	if !m.T().T().Equal(m, 0) {
		t.Errorf("(Mᵀ)ᵀ != M")
	}
}

func TestAddAndScale(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	b := FromSlice(2, 2, []float64{10, 20, 30, 40})
	a.Add(b)
	want := FromSlice(2, 2, []float64{11, 22, 33, 44})
	if !a.Equal(want, 0) {
		t.Errorf("Add = %v, want %v", a, want)
	}
	a.Scale(0.5)
	want2 := FromSlice(2, 2, []float64{5.5, 11, 16.5, 22})
	if !a.Equal(want2, 1e-12) {
		t.Errorf("Scale = %v, want %v", a, want2)
	}
}

func TestAddShapeMismatchPanics(t *testing.T) {
	defer expectPanic(t, "Add")
	New(2, 2).Add(New(2, 3))
}

func TestEqualToleranceBoundary(t *testing.T) {
	a := FromSlice(1, 2, []float64{1, 2})
	b := FromSlice(1, 2, []float64{1.05, 2})
	if a.Equal(b, 0.01) {
		t.Errorf("Equal should fail outside tolerance")
	}
	if !a.Equal(b, 0.1) {
		t.Errorf("Equal should pass inside tolerance")
	}
	if a.Equal(New(2, 1), 100) {
		t.Errorf("Equal must reject shape mismatch")
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := FromSlice(1, 3, []float64{1, 2, 3})
	b := FromSlice(1, 3, []float64{1, 2.5, 2})
	if got := a.MaxAbsDiff(b); got != 1 {
		t.Errorf("MaxAbsDiff = %v, want 1", got)
	}
}

// Equal and MaxAbsDiff must not be NaN-blind: a NaN against a number is an
// infinite difference, so both `<= tol` and `> tol` checks see the failure,
// while two NaNs, or two identical infinities, agree.
func TestEqualAndMaxAbsDiffSeeNaN(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name      string
		x, y      float64
		diff      float64
		equalTol1 bool // Equal(·, 1)
	}{
		{"numbers", 1, 2.5, 1.5, false},
		{"signed zeros", 0, math.Copysign(0, -1), 0, true},
		{"NaN vs number", 2, nan, inf, false},
		{"number vs NaN", nan, 2, inf, false},
		{"NaN vs NaN", nan, nan, 0, true},
		{"NaN payloads", nan, math.Float64frombits(0x7ff8000000000001), 0, true},
		{"NaN vs Inf", nan, inf, inf, false},
		{"Inf vs Inf", inf, inf, 0, true},
		{"Inf vs -Inf", inf, -inf, inf, false},
		{"Inf vs number", inf, 1, inf, false},
	}
	for _, tc := range cases {
		a := FromSlice(1, 2, []float64{1, tc.x})
		b := FromSlice(1, 2, []float64{1, tc.y})
		if got := a.MaxAbsDiff(b); math.Float64bits(got) != math.Float64bits(tc.diff) {
			t.Errorf("%s: MaxAbsDiff = %v, want %v", tc.name, got, tc.diff)
		}
		if got := a.Equal(b, 1); got != tc.equalTol1 {
			t.Errorf("%s: Equal(tol 1) = %v, want %v", tc.name, got, tc.equalTol1)
		}
		if got := a.Equal(b, 0); got != (tc.diff == 0) {
			t.Errorf("%s: Equal(tol 0) = %v, want %v", tc.name, got, tc.diff == 0)
		}
	}
}

func TestSubMatrixAndSetSubMatrix(t *testing.T) {
	m := FromSlice(3, 3, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9})
	sub := m.SubMatrix(1, 1, 2, 2)
	want := FromSlice(2, 2, []float64{5, 6, 8, 9})
	if !sub.Equal(want, 0) {
		t.Fatalf("SubMatrix = %v, want %v", sub, want)
	}
	sub.Set(0, 0, 50)
	if m.At(1, 1) != 5 {
		t.Errorf("SubMatrix must copy, not alias")
	}
	m.SetSubMatrix(0, 1, FromSlice(2, 2, []float64{20, 30, 50, 60}))
	wantM := FromSlice(3, 3, []float64{1, 20, 30, 4, 50, 60, 7, 8, 9})
	if !m.Equal(wantM, 0) {
		t.Errorf("SetSubMatrix = %v, want %v", m, wantM)
	}
}

func TestSubMatrixOutOfRangePanics(t *testing.T) {
	defer expectPanic(t, "SubMatrix")
	New(3, 3).SubMatrix(2, 2, 2, 2)
}

func TestRowAliases(t *testing.T) {
	m := New(2, 3)
	m.Row(1)[2] = 9
	if m.At(1, 2) != 9 {
		t.Errorf("Row must alias storage")
	}
}

func TestZero(t *testing.T) {
	m := FromSlice(2, 2, []float64{1, 2, 3, 4})
	m.Zero()
	if !m.Equal(New(2, 2), 0) {
		t.Errorf("Zero left non-zero entries: %v", m)
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := Random(4, 4, rand.New(rand.NewSource(7)))
	b := Random(4, 4, rand.New(rand.NewSource(7)))
	if !a.Equal(b, 0) {
		t.Errorf("Random with same seed must be deterministic")
	}
	for _, v := range a.Data {
		if v < -1 || v >= 1 {
			t.Errorf("Random value %v outside [-1,1)", v)
		}
	}
}

func TestStringSmallAndLarge(t *testing.T) {
	small := FromSlice(1, 2, []float64{1, 2})
	if small.String() == "" {
		t.Errorf("String should render small matrices")
	}
	large := New(100, 100)
	if got := large.String(); got != "Matrix(100x100)" {
		t.Errorf("String(large) = %q", got)
	}
}

func expectPanic(t *testing.T, op string) {
	t.Helper()
	if recover() == nil {
		t.Errorf("%s should panic", op)
	}
}
