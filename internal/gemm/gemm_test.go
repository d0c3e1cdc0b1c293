package gemm

import (
	"math/rand"
	"testing"

	"meshslice/internal/mesh"
	"meshslice/internal/tensor"
	"meshslice/internal/topology"
)

const tol = 1e-9

// makeProblem builds random global operands for p and returns them with
// the reference result.
func makeProblem(p Problem, seed int64) (a, b, want *tensor.Matrix) {
	rng := rand.New(rand.NewSource(seed))
	aR, aC, bR, bC := p.OperandShapes()
	a = tensor.Random(aR, aC, rng)
	b = tensor.Random(bR, bC, rng)
	return a, b, p.Reference(a, b)
}

// checkAlgorithm runs fn on the torus and verifies the assembled global
// result against the reference.
func checkAlgorithm(t *testing.T, name string, p Problem, tor topology.Torus, fn ChipFunc) {
	t.Helper()
	checkShardable(p, tor)
	a, b, want := makeProblem(p, int64(p.M*31+p.N*7+p.K))
	got := Multiply(tor, fn, a, b)
	if !got.Equal(want, tol) {
		t.Errorf("%s on %v for M=%d N=%d K=%d %v: max diff %g",
			name, tor, p.M, p.N, p.K, p.Dataflow, got.MaxAbsDiff(want))
	}
}

func TestProblemOperandShapes(t *testing.T) {
	cases := []struct {
		df             Dataflow
		aR, aC, bR, bC int
	}{
		{OS, 4, 6, 6, 8},
		{LS, 4, 6, 8, 6},
		{RS, 6, 4, 6, 8},
	}
	for _, c := range cases {
		p := Problem{M: 4, N: 8, K: 6, Dataflow: c.df}
		aR, aC, bR, bC := p.OperandShapes()
		if aR != c.aR || aC != c.aC || bR != c.bR || bC != c.bC {
			t.Errorf("%v shapes = A %dx%d B %dx%d, want A %dx%d B %dx%d",
				c.df, aR, aC, bR, bC, c.aR, c.aC, c.bR, c.bC)
		}
	}
}

func TestDataflowString(t *testing.T) {
	if OS.String() != "OS" || LS.String() != "LS" || RS.String() != "RS" {
		t.Errorf("Dataflow strings wrong: %v %v %v", OS, LS, RS)
	}
	if Dataflow(7).String() == "" {
		t.Errorf("unknown dataflow must render")
	}
}

func TestReferenceMatchesDataflowSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	a := tensor.Random(2, 3, rng)
	b := tensor.Random(3, 4, rng)
	if !(Problem{Dataflow: OS}).Reference(a, b).Equal(tensor.MatMul(a, b), 0) {
		t.Errorf("OS reference wrong")
	}
	bLS := tensor.Random(4, 3, rng)
	if !(Problem{Dataflow: LS}).Reference(a, bLS).Equal(tensor.MatMul(a, bLS.T()), tol) {
		t.Errorf("LS reference wrong")
	}
	aRS := tensor.Random(3, 2, rng)
	if !(Problem{Dataflow: RS}).Reference(aRS, b).Equal(tensor.MatMul(aRS.T(), b), tol) {
		t.Errorf("RS reference wrong")
	}
}

// --- MeshSlice ---

func TestMeshSliceAllDataflowsAllShapes(t *testing.T) {
	meshes := []topology.Torus{
		topology.NewTorus(1, 1),
		topology.NewTorus(2, 2),
		topology.NewTorus(2, 4),
		topology.NewTorus(4, 2),
		topology.NewTorus(3, 2),
		topology.NewTorus(1, 4),
	}
	for _, tor := range meshes {
		for _, df := range []Dataflow{OS, LS, RS} {
			for _, s := range []int{1, 2, 4} {
				cfg := MeshSliceConfig{S: s, Block: 2}
				// Dimensions chosen so every sliced local dimension
				// divides S·B for all mesh shapes and S values above.
				p := Problem{M: 96, N: 96, K: 96, Dataflow: df}
				if err := cfg.Validate(p, tor); err != nil {
					t.Fatalf("unexpected invalid config: %v", err)
				}
				checkAlgorithm(t, "MeshSlice", p, tor, MeshSlice(df, cfg))
			}
		}
	}
}

func TestMeshSliceRectangularProblem(t *testing.T) {
	// Skewed matrix shapes: M >> N (the shape of LLM FC layers).
	tor := topology.NewTorus(4, 2)
	cfg := MeshSliceConfig{S: 2, Block: 2}
	for _, df := range []Dataflow{OS, LS, RS} {
		p := Problem{M: 64, N: 16, K: 32, Dataflow: df}
		if err := cfg.Validate(p, tor); err != nil {
			t.Fatalf("config invalid: %v", err)
		}
		checkAlgorithm(t, "MeshSlice-rect", p, tor, MeshSlice(df, cfg))
	}
}

func TestMeshSliceStridedSlicing(t *testing.T) {
	// Block=1 exercises the mathematical description (§3.1.1) directly.
	tor := topology.NewTorus(2, 2)
	for _, df := range []Dataflow{OS, LS, RS} {
		p := Problem{M: 24, N: 24, K: 24, Dataflow: df}
		checkAlgorithm(t, "MeshSlice-B1", p, tor, MeshSlice(df, MeshSliceConfig{S: 3, Block: 1}))
	}
}

func TestMeshSliceS1EqualsCollective(t *testing.T) {
	// With S=1, MeshSlice degenerates to Collective 2D GeMM (the paper
	// notes MeshSlice "can fall back to Collective by setting S=1").
	tor := topology.NewTorus(2, 2)
	for _, df := range []Dataflow{OS, LS, RS} {
		p := Problem{M: 16, N: 16, K: 16, Dataflow: df}
		a, b, _ := makeProblem(p, 99)
		ms := Multiply(tor, MeshSlice(df, MeshSliceConfig{S: 1, Block: 1}), a, b)
		col := Multiply(tor, Collective2D(df), a, b)
		if !ms.Equal(col, tol) {
			t.Errorf("%v: MeshSlice(S=1) != Collective, max diff %g", df, ms.MaxAbsDiff(col))
		}
	}
}

func TestMeshSliceConfigValidate(t *testing.T) {
	tor := topology.NewTorus(2, 4)
	p := Problem{M: 64, N: 64, K: 64, Dataflow: OS}
	if err := (MeshSliceConfig{S: 2, Block: 4}).Validate(p, tor); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	// K/Pc = 16; S·B = 32 does not divide it.
	if err := (MeshSliceConfig{S: 8, Block: 4}).Validate(p, tor); err == nil {
		t.Errorf("invalid OS slicing accepted")
	}
	if err := (MeshSliceConfig{S: 0, Block: 1}).Validate(p, tor); err == nil {
		t.Errorf("S=0 accepted")
	}
	if err := (MeshSliceConfig{S: 1, Block: 0}).Validate(p, tor); err == nil {
		t.Errorf("Block=0 accepted")
	}
	// LS slices N; N/Pr = 8 with S·B = 16 must fail even though K is fine.
	pLS := Problem{M: 64, N: 16, K: 64, Dataflow: LS}
	if err := (MeshSliceConfig{S: 4, Block: 4}).Validate(pLS, tor); err == nil {
		t.Errorf("invalid LS slicing accepted")
	}
	// RS slices M.
	pRS := Problem{M: 16, N: 64, K: 64, Dataflow: RS}
	if err := (MeshSliceConfig{S: 4, Block: 4}).Validate(pRS, tor); err == nil {
		t.Errorf("invalid RS slicing accepted")
	}
}

// --- Collective 2D ---

func TestCollective2DAllDataflows(t *testing.T) {
	for _, tor := range []topology.Torus{
		topology.NewTorus(2, 2), topology.NewTorus(2, 3), topology.NewTorus(4, 2),
	} {
		for _, df := range []Dataflow{OS, LS, RS} {
			p := Problem{M: 24, N: 36, K: 12, Dataflow: df}
			checkAlgorithm(t, "Collective", p, tor, Collective2D(df))
		}
	}
}

// --- SUMMA ---

func TestSUMMAAllDataflows(t *testing.T) {
	for _, tor := range []topology.Torus{
		topology.NewTorus(2, 2), topology.NewTorus(2, 4), topology.NewTorus(3, 2),
	} {
		for _, df := range []Dataflow{OS, LS, RS} {
			p := Problem{M: 24, N: 24, K: 24, Dataflow: df}
			if err := (SUMMAConfig{}).Validate(p, tor); err != nil {
				t.Fatalf("SUMMA config invalid: %v", err)
			}
			checkAlgorithm(t, "SUMMA", p, tor, SUMMA(df, SUMMAConfig{}))
		}
	}
}

func TestSUMMAExplicitIterations(t *testing.T) {
	tor := topology.NewTorus(2, 2)
	for _, iters := range []int{2, 4, 8} {
		for _, df := range []Dataflow{OS, LS, RS} {
			p := Problem{M: 16, N: 16, K: 16, Dataflow: df}
			cfg := SUMMAConfig{Iterations: iters}
			if err := cfg.Validate(p, tor); err != nil {
				t.Fatalf("iters=%d: %v", iters, err)
			}
			checkAlgorithm(t, "SUMMA-iters", p, tor, SUMMA(df, cfg))
		}
	}
}

func TestSUMMAValidateRejectsBadIterations(t *testing.T) {
	tor := topology.NewTorus(2, 3)
	p := Problem{M: 12, N: 12, K: 12, Dataflow: OS}
	if err := (SUMMAConfig{Iterations: 4}).Validate(p, tor); err == nil {
		t.Errorf("iterations not a common multiple accepted")
	}
	if err := (SUMMAConfig{Iterations: 36}).Validate(Problem{M: 12, N: 12, K: 12, Dataflow: OS}, tor); err == nil {
		t.Errorf("K not divisible by iterations accepted")
	}
}

// --- Cannon ---

func TestCannonSquareMeshes(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4} {
		tor := topology.NewTorus(p, p)
		prob := Problem{M: 12 * p, N: 12 * p, K: 12 * p, Dataflow: OS}
		checkAlgorithm(t, "Cannon", prob, tor, Cannon())
	}
}

func TestCannonRejectsRectangularMesh(t *testing.T) {
	if err := CannonValidate(Problem{M: 8, N: 8, K: 8, Dataflow: OS}, topology.NewTorus(2, 4)); err == nil {
		t.Errorf("CannonValidate accepted a rectangular mesh")
	}
	if err := CannonValidate(Problem{M: 8, N: 8, K: 8, Dataflow: LS}, topology.NewTorus(2, 2)); err == nil {
		t.Errorf("CannonValidate accepted LS dataflow")
	}
	defer func() {
		if recover() == nil {
			t.Errorf("Cannon on rectangular mesh should panic")
		}
	}()
	p := Problem{M: 8, N: 8, K: 8, Dataflow: OS}
	a, b, _ := makeProblem(p, 5)
	Multiply(topology.NewTorus(2, 4), Cannon(), a, b)
}

// --- Wang ---

func TestWangVariousMeshes(t *testing.T) {
	for _, tor := range []topology.Torus{
		topology.NewTorus(2, 2), topology.NewTorus(2, 4), topology.NewTorus(4, 2), topology.NewTorus(1, 3),
	} {
		p := Problem{M: 24, N: 24, K: 24, Dataflow: OS}
		checkAlgorithm(t, "Wang", p, tor, WangDataflow(OS))
	}
}

func TestWangValidate(t *testing.T) {
	if err := WangValidate(Problem{M: 8, N: 8, K: 8, Dataflow: OS}, topology.NewTorus(2, 4)); err != nil {
		t.Errorf("WangValidate rejected valid setup: %v", err)
	}
	if err := WangValidate(Problem{M: 8, N: 8, K: 8, Dataflow: Dataflow(9)}, topology.NewTorus(2, 2)); err == nil {
		t.Errorf("WangValidate accepted unknown dataflow")
	}
	if err := WangValidate(Problem{M: 8, N: 8, K: 9, Dataflow: OS}, topology.NewTorus(2, 2)); err == nil {
		t.Errorf("WangValidate accepted indivisible K")
	}
}

// --- Cross-algorithm agreement ---

// All OS-capable algorithms must produce identical results on a square
// mesh, the only configuration Cannon supports.
func TestAllOSAlgorithmsAgree(t *testing.T) {
	tor := topology.NewTorus(2, 2)
	p := Problem{M: 16, N: 16, K: 16, Dataflow: OS}
	a, b, want := makeProblem(p, 123)
	algos := map[string]ChipFunc{
		"MeshSlice":  MeshSlice(OS, MeshSliceConfig{S: 2, Block: 2}),
		"Collective": Collective2D(OS),
		"SUMMA":      SUMMA(OS, SUMMAConfig{}),
		"Cannon":     Cannon(),
		"Wang":       WangDataflow(OS),
	}
	for name, fn := range algos {
		got := Multiply(tor, fn, a, b)
		if !got.Equal(want, tol) {
			t.Errorf("%s disagrees with reference: max diff %g", name, got.MaxAbsDiff(want))
		}
	}
}

// --- 1D baselines ---

func TestOneDTPAllGather(t *testing.T) {
	const p, m, n, k = 4, 8, 12, 4
	rng := rand.New(rand.NewSource(50))
	x := tensor.Random(m, k, rng)
	w := tensor.Random(k, n, rng)
	want := tensor.MatMul(x, w)
	xs := tensor.SplitRows(x, p)
	ws := tensor.SplitCols(w, p)
	got := RunOneD(p, OneDTPAllGather, xs, ws)
	if !tensor.ConcatCols(got).Equal(want, tol) {
		t.Errorf("1D TP AllGather mismatch")
	}
}

func TestOneDTPReduceScatter(t *testing.T) {
	const p, m, n, k = 4, 8, 12, 8
	rng := rand.New(rand.NewSource(51))
	x := tensor.Random(m, k, rng)
	w := tensor.Random(k, n, rng)
	want := tensor.MatMul(x, w)
	xs := tensor.SplitCols(x, p)
	ws := tensor.SplitRows(w, p)
	got := RunOneD(p, OneDTPReduceScatter, xs, ws)
	if !tensor.ConcatRows(got).Equal(want, tol) {
		t.Errorf("1D TP ReduceScatter mismatch")
	}
}

func TestFSDP(t *testing.T) {
	const p, m, n, k = 4, 8, 12, 8
	rng := rand.New(rand.NewSource(52))
	x := tensor.Random(m, k, rng)
	w := tensor.Random(k, n, rng)
	want := tensor.MatMul(x, w)
	xs := tensor.SplitRows(x, p)
	ws := tensor.SplitRows(w, p)
	got := RunOneD(p, FSDP, xs, ws)
	if !tensor.ConcatRows(got).Equal(want, tol) {
		t.Errorf("FSDP mismatch")
	}
}

func TestOneDValidate(t *testing.T) {
	if err := OneDValidate(8, 8, 8, 4); err != nil {
		t.Errorf("valid 1D setup rejected: %v", err)
	}
	if err := OneDValidate(8, 8, 9, 4); err == nil {
		t.Errorf("indivisible K accepted")
	}
	if err := OneDValidate(8, 8, 8, 0); err == nil {
		t.Errorf("P=0 accepted")
	}
}

func TestRunShardCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("Run with wrong shard counts should panic")
		}
	}()
	Run(mesh.New(topology.NewTorus(2, 2)), nil, make([]*tensor.Matrix, 3), make([]*tensor.Matrix, 4))
}

func TestLcmGcd(t *testing.T) {
	// SUMMAPanels defaults to lcm(Pr, Pc) and rounds up to its multiples.
	if SUMMAPanels(topology.NewTorus(4, 6), 0) != 12 || SUMMAPanels(topology.NewTorus(3, 5), 0) != 15 ||
		SUMMAPanels(topology.NewTorus(8, 8), 0) != 8 {
		t.Errorf("lcm broken")
	}
	for _, c := range [][2]int{{-3, 12}, {1, 12}, {12, 12}, {13, 24}, {24, 24}, {25, 36}} {
		if got := SUMMAPanels(topology.NewTorus(4, 6), c[0]); got != c[1] {
			t.Errorf("SUMMAPanels(4x6, %d) = %d, want %d", c[0], got, c[1])
		}
	}
	if gcd(12, 18) != 6 || gcd(7, 13) != 1 {
		t.Errorf("gcd broken")
	}
}

// TestMeshRules pins the shard, sliced-dimension and slice-count rules
// that the autotuner, the trainers and the simulator harness share.
func TestMeshRules(t *testing.T) {
	tor := topology.NewTorus(2, 4)
	if _, ok := (Problem{M: 8, N: 8, K: 8, Dataflow: OS}).Shardable(tor); !ok {
		t.Errorf("8³ OS rejected on %v", tor)
	}
	// A is K×M for RS: its 6 columns do not split over 4 mesh columns.
	if d, ok := (Problem{M: 6, N: 8, K: 8, Dataflow: RS}).Shardable(tor); ok || d != 6 {
		t.Errorf("RS with M=6 on %v: dim %d ok %v, want dim 6 rejected", tor, d, ok)
	}
	for _, c := range []struct {
		df     Dataflow
		d1, d2 int
	}{{OS, 64 / 4, 64 / 2}, {LS, 32 / 2, 32 / 4}, {RS, 16 / 4, 16 / 2}} {
		if d1, d2 := (Problem{M: 16, N: 32, K: 64, Dataflow: c.df}).SlicedDims(tor); d1 != c.d1 || d2 != c.d2 {
			t.Errorf("%v sliced dims = %d, %d, want %d, %d", c.df, d1, d2, c.d1, c.d2)
		}
	}
	sq := topology.NewTorus(2, 2)
	for _, c := range []struct {
		k, block, g int
		ok          bool
	}{
		{1024, 8, 64, true},     // 512/8 on both rings
		{1000, 8, 500, true},    // 500 % 8 != 0: element-granular slicing
		{1001, 8, 0, false},     // K does not shard
		{1024, 1, 512, true},    // strided slicing
		{1000, 3, 500, true},    // 500 % 3 != 0
		{1000, 500, 1, true},    // one block per chip
		{1000, 1000, 500, true}, // a block larger than the dimension
	} {
		g, ok := (Problem{M: 64, N: 64, K: c.k, Dataflow: OS}).MaxSliceCount(sq, c.block)
		if g != c.g || ok != c.ok {
			t.Errorf("K=%d block %d: MaxSliceCount = %d, %v, want %d, %v", c.k, c.block, g, ok, c.g, c.ok)
		}
	}
}

func TestWangDataflowLSRS(t *testing.T) {
	for _, tor := range []topology.Torus{
		topology.NewTorus(2, 2), topology.NewTorus(2, 4), topology.NewTorus(4, 2),
	} {
		for _, df := range []Dataflow{OS, LS, RS} {
			p := Problem{M: 32, N: 32, K: 32, Dataflow: df}
			if err := WangValidate(p, tor); err != nil {
				t.Fatalf("WangValidate(%v,%v): %v", df, tor, err)
			}
			checkAlgorithm(t, "WangDataflow", p, tor, WangDataflow(df))
		}
	}
}

func TestWangValidatePerDataflow(t *testing.T) {
	tor := topology.NewTorus(4, 4)
	if err := WangValidate(Problem{M: 9, N: 16, K: 16, Dataflow: RS}, tor); err == nil {
		t.Errorf("RS with indivisible M accepted")
	}
	if err := WangValidate(Problem{M: 16, N: 9, K: 16, Dataflow: LS}, tor); err == nil {
		t.Errorf("LS with indivisible N accepted")
	}
}

// Cross-dataflow identities: the three dataflows are the same computation
// with renamed operands — LS(A,B) = OS(A,Bᵀ) and RS(A,B) = OS(Aᵀ,B).
func TestDataflowEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	tor := topology.NewTorus(2, 2)
	for trial := 0; trial < 10; trial++ {
		m, n, k := 8*(trial%3+1), 8*(trial%2+1), 8
		a := tensor.Random(m, k, rng)
		bT := tensor.Random(n, k, rng) // LS right operand (N×K)
		ls := Multiply(tor, Collective2D(LS), a, bT)
		os := Multiply(tor, Collective2D(OS), a, bT.T())
		if !ls.Equal(os, tol) {
			t.Fatalf("trial %d: LS(A,B) != OS(A,Bᵀ): %g", trial, ls.MaxAbsDiff(os))
		}
		aT := tensor.Random(k, m, rng) // RS left operand (K×M)
		b := tensor.Random(k, n, rng)
		rs := Multiply(tor, Collective2D(RS), aT, b)
		os2 := Multiply(tor, Collective2D(OS), aT.T(), b)
		if !rs.Equal(os2, tol) {
			t.Fatalf("trial %d: RS(A,B) != OS(Aᵀ,B): %g", trial, rs.MaxAbsDiff(os2))
		}
	}
}

// MeshSlice results must be bit-independent of S (the slicing is an exact
// reordering of the same accumulation up to floating-point association).
func TestMeshSliceSInvarianceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	tor := topology.NewTorus(2, 2)
	p := Problem{M: 24, N: 24, K: 24, Dataflow: OS}
	a := tensor.Random(p.M, p.K, rng)
	b := tensor.Random(p.K, p.N, rng)
	base := Multiply(tor, MeshSlice(OS, MeshSliceConfig{S: 1, Block: 1}), a, b)
	for _, s := range []int{2, 3, 4, 6, 12} {
		got := Multiply(tor, MeshSlice(OS, MeshSliceConfig{S: s, Block: 1}), a, b)
		if !got.Equal(base, 1e-9) {
			t.Errorf("S=%d diverges from S=1 by %g", s, got.MaxAbsDiff(base))
		}
	}
}

// Property: SUMMA's result is invariant to its iteration count (more
// panels = same accumulation, finer grain).
func TestSUMMAIterationInvarianceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	tor := topology.NewTorus(2, 2)
	for _, df := range []Dataflow{OS, LS, RS} {
		p := Problem{M: 24, N: 24, K: 24, Dataflow: df}
		aR, aC, bR, bC := p.OperandShapes()
		a := tensor.Random(aR, aC, rng)
		b := tensor.Random(bR, bC, rng)
		base := Multiply(tor, SUMMA(df, SUMMAConfig{Iterations: 2}), a, b)
		for _, iters := range []int{4, 6, 12} {
			got := Multiply(tor, SUMMA(df, SUMMAConfig{Iterations: iters}), a, b)
			if !got.Equal(base, 1e-9) {
				t.Errorf("%v iters=%d diverges by %g", df, iters, got.MaxAbsDiff(base))
			}
		}
	}
}

// Property: Wang's unrolled schedules compute the same result as the
// functional Wang for the same inputs (the timing-side unrolling never
// changes the data; this pins the functional side).
func TestWang25DAgreeOnSquare(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	a := tensor.Random(16, 16, rng)
	b := tensor.Random(16, 16, rng)
	wang := Multiply(topology.NewTorus(4, 4), WangDataflow(OS), a, b)
	g25 := TwoPointFiveD(Grid3D{P: 4, C: 2}, a, b)
	if !wang.Equal(g25, 1e-9) {
		t.Errorf("Wang and 2.5D disagree: %g", wang.MaxAbsDiff(g25))
	}
}
