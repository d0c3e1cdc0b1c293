package gemm

import (
	"testing"

	"meshslice/internal/mesh"
	"meshslice/internal/topology"
)

func TestAlgorithmsRegistry(t *testing.T) {
	algs := Algorithms()
	if len(algs) != 5 {
		t.Fatalf("registry has %d algorithms, want 5", len(algs))
	}
	names := map[string]bool{}
	for _, a := range algs {
		names[a.Name] = true
		if len(a.Dataflows) == 0 || a.Build == nil || a.Validate == nil {
			t.Errorf("%s incomplete", a.Name)
		}
	}
	for _, want := range []string{"MeshSlice", "Collective", "SUMMA", "Cannon", "Wang"} {
		if !names[want] {
			t.Errorf("missing %s", want)
		}
	}
}

func TestAlgorithmByName(t *testing.T) {
	if _, ok := AlgorithmByName("meshslice"); !ok {
		t.Errorf("case-insensitive lookup failed")
	}
	if _, ok := AlgorithmByName("SUMMA"); !ok {
		t.Errorf("exact lookup failed")
	}
	if _, ok := AlgorithmByName("strassen"); ok {
		t.Errorf("unknown algorithm resolved")
	}
}

func TestSupports(t *testing.T) {
	cannon, _ := AlgorithmByName("Cannon")
	if cannon.Supports(LS) || !cannon.Supports(OS) {
		t.Errorf("Cannon dataflow support wrong")
	}
	ms, _ := AlgorithmByName("MeshSlice")
	for _, df := range []Dataflow{OS, LS, RS} {
		if !ms.Supports(df) {
			t.Errorf("MeshSlice should support %v", df)
		}
	}
}

func TestVerifyAlgorithmsAllPassOnSquare(t *testing.T) {
	p := Problem{M: 32, N: 32, K: 32, Dataflow: OS}
	results := VerifyAlgorithmsOn(mesh.New(topology.NewTorus(4, 4)), p, AlgOptions{S: 2, Block: 2}, 7, 1e-9)
	if len(results) != 5 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if r.Skipped != "" {
			t.Errorf("%s skipped on a square mesh: %s", r.Algorithm, r.Skipped)
			continue
		}
		if !r.OK {
			t.Errorf("%s failed verification: max diff %g", r.Algorithm, r.MaxDiff)
		}
	}
}

func TestVerifyAlgorithmsSkipsAppropriately(t *testing.T) {
	// Rectangular mesh: Cannon must be skipped, everyone else passes.
	p := Problem{M: 32, N: 32, K: 32, Dataflow: LS}
	results := VerifyAlgorithmsOn(mesh.New(topology.NewTorus(2, 4)), p, AlgOptions{S: 2, Block: 2}, 8, 1e-9)
	for _, r := range results {
		switch r.Algorithm {
		case "Cannon":
			if r.Skipped == "" {
				t.Errorf("Cannon ran LS on a rectangular mesh")
			}
		default:
			if r.Skipped != "" {
				t.Errorf("%s skipped: %s", r.Algorithm, r.Skipped)
			} else if !r.OK {
				t.Errorf("%s failed: %g", r.Algorithm, r.MaxDiff)
			}
		}
	}
}

func TestAlgOptionsDefaults(t *testing.T) {
	o := AlgOptions{}.withDefaults()
	if o.S != 1 || o.Block != 1 {
		t.Errorf("defaults = %+v", o)
	}
}
