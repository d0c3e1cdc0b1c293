package train

import (
	"fmt"
	"testing"

	"meshslice/internal/autotune"
	"meshslice/internal/gemm"
	"meshslice/internal/topology"
)

func TestEvaluateGeMMSearchesShapes(t *testing.T) {
	prob := gemm.Problem{M: 1 << 14, N: 8192, K: 8192, Dataflow: gemm.OS}
	r, err := EvaluateGeMM(prob, 16, testHW, MeshSliceAlgo, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Shape.Size() != 16 {
		t.Errorf("shape %v", r.Shape)
	}
	// The search must beat or match any individual shape.
	for _, shape := range topology.MeshShapes2D(16) {
		alt, ok := EvaluateGeMMOnShape(prob, shape, 16, testHW, MeshSliceAlgo, Options{})
		if ok && alt.Time < r.Time-1e-12 {
			t.Errorf("shape %v (%v) beats searched result %v (%v)", shape, alt.Time, r.Shape, r.Time)
		}
	}
}

func TestEvaluateGeMMRejects1D(t *testing.T) {
	prob := gemm.Problem{M: 64, N: 64, K: 64, Dataflow: gemm.OS}
	if _, err := EvaluateGeMM(prob, 16, testHW, OneDTPAlgo, Options{}); err == nil {
		t.Errorf("1D baseline accepted by EvaluateGeMM")
	}
}

func TestEvaluateGeMMOnShapeMismatchedChips(t *testing.T) {
	prob := gemm.Problem{M: 64, N: 64, K: 64, Dataflow: gemm.OS}
	if _, ok := EvaluateGeMMOnShape(prob, topology.NewTorus(4, 4), 32, testHW, MeshSliceAlgo, Options{}); ok {
		t.Errorf("shape of 16 accepted for 32 chips")
	}
}

func TestEvaluateGeMMUnshardable(t *testing.T) {
	prob := gemm.Problem{M: 63, N: 65, K: 67, Dataflow: gemm.OS}
	if _, err := EvaluateGeMM(prob, 16, testHW, MeshSliceAlgo, Options{}); err == nil {
		t.Errorf("unshardable problem accepted")
	}
}

func TestEvaluateGeMMAllDataflows(t *testing.T) {
	for _, df := range []gemm.Dataflow{gemm.OS, gemm.LS, gemm.RS} {
		prob := gemm.Problem{M: 1 << 13, N: 8192, K: 8192, Dataflow: df}
		for _, algo := range TwoDAlgos {
			r, err := EvaluateGeMM(prob, 16, testHW, algo, Options{})
			if err != nil {
				t.Errorf("%v %v: %v", algo, df, err)
				continue
			}
			if r.Time <= 0 {
				t.Errorf("%v %v: degenerate time", algo, df)
			}
		}
	}
}

func TestNetsimDeterminism(t *testing.T) {
	// The simulator must be fully deterministic: identical runs produce
	// identical results.
	prob := gemm.Problem{M: 1 << 14, N: 8192, K: 8192, Dataflow: gemm.LS}
	a, _ := EvaluateGeMMOnShape(prob, topology.NewTorus(4, 4), 16, testHW, MeshSliceAlgo, Options{})
	b, _ := EvaluateGeMMOnShape(prob, topology.NewTorus(4, 4), 16, testHW, MeshSliceAlgo, Options{})
	if a.Time != b.Time || a.Comm != b.Comm || a.ExposedComm != b.ExposedComm {
		t.Errorf("nondeterministic simulation: %+v vs %+v", a, b)
	}
}

// TestTunedSliceCountIsSimulated builds the program EvaluateFC simulates for
// a problem whose sliced dimensions (K/2 = 500) the slice block 8 does not
// divide. The tuner then slices element by element and prices S > 1; the
// simulated program must run that S, not fall back to S=1.
func TestTunedSliceCountIsSimulated(t *testing.T) {
	prob := gemm.Problem{M: 4096, N: 4096, K: 1000, Dataflow: gemm.OS}
	shape := topology.NewTorus(2, 2)
	pc, ok := autotune.TunePass(prob, shape, testHW, 0)
	if !ok || pc.S < 2 {
		t.Fatalf("TunePass = S %d (ok %v); the test needs a tuned S > 1", pc.S, ok)
	}
	// A forced S is checked by the same rule: 4 divides 500, 3 does not.
	for _, c := range []struct{ fixed, want int }{{0, pc.S}, {4, 4}, {3, 1}} {
		prog, ok := buildProgram(MeshSliceAlgo, prob, shape, testHW, Options{FixedS: c.fixed})
		if !ok {
			t.Fatalf("FixedS %d: no program", c.fixed)
		}
		if want := fmt.Sprintf("MeshSlice-OS S=%d", c.want); prog.Label != want {
			t.Errorf("FixedS %d: program %q, want %q", c.fixed, prog.Label, want)
		}
	}
}
