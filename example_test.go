package meshslice_test

import (
	"fmt"
	"math/rand"

	meshslice "meshslice"
	"meshslice/internal/tensor"
)

// Example is the quickstart: run the MeshSlice 2D GeMM algorithm on a
// functional 4×2 mesh with real data, verify it against a single-node
// reference multiplication, and estimate its execution time on a simulated
// TPUv4 cluster.
func Example() {
	// A 4×2 mesh of chips computing C = A·B with the output-stationary
	// dataflow, slicing each collective into S=4 partial collectives.
	tor := meshslice.NewTorus(4, 2)
	prob := meshslice.Problem{M: 64, N: 32, K: 64, Dataflow: meshslice.OS}
	cfg := meshslice.MeshSliceConfig{S: 4, Block: 2}

	rng := rand.New(rand.NewSource(42))
	a := tensor.Random(prob.M, prob.K, rng)
	b := tensor.Random(prob.K, prob.N, rng)

	// Functional run: every chip is a goroutine, the collectives move real
	// sub-shards, and the assembled result must equal the reference.
	got, err := meshslice.Multiply(prob, tor, cfg, a, b)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("MeshSlice on %v, S=%d: max |Δ| vs reference = %.2e\n",
		tor, cfg.S, got.MaxAbsDiff(prob.Reference(a, b)))

	// Timing run: the same algorithm as a schedule on the TPUv4 cluster
	// model, at LLM scale (a GPT-3 attention-projection GeMM, 8 chips).
	chip := meshslice.TPUv4()
	big := meshslice.Problem{M: 1 << 14, N: 12288, K: 12288, Dataflow: meshslice.OS}
	for _, s := range []int{1, 2, 4, 8} {
		r := meshslice.Simulate(big, tor, chip, s, meshslice.SimOptions{})
		est := meshslice.EstimateCost(big, tor, chip, s)
		fmt.Printf("S=%-2d simulated %.3fms (cost model %.3fms), exposed comm %.3fms\n",
			s, r.Makespan*1e3, est.Total()*1e3, r.ExposedComm*1e3)
	}
	fmt.Println("slicing (S>1) hides communication under the partial GeMMs.")
	// Output:
	// MeshSlice on 4x2 torus, S=4: max |Δ| vs reference = 7.11e-15
	// S=1  simulated 4.749ms (cost model 4.749ms), exposed comm 2.275ms
	// S=2  simulated 3.791ms (cost model 3.617ms), exposed comm 1.162ms
	// S=4  simulated 3.138ms (cost model 3.051ms), exposed comm 0.502ms
	// S=8  simulated 2.811ms (cost model 2.768ms), exposed comm 0.172ms
	// slicing (S>1) hides communication under the partial GeMMs.
}

// ExampleMultiply runs the MeshSlice algorithm functionally on a 2×2 mesh
// and verifies the result against a single-node multiplication.
func ExampleMultiply() {
	rng := rand.New(rand.NewSource(1))
	a := tensor.Random(16, 16, rng)
	b := tensor.Random(16, 16, rng)
	p := meshslice.Problem{M: 16, N: 16, K: 16, Dataflow: meshslice.OS}

	c, err := meshslice.Multiply(p, meshslice.NewTorus(2, 2),
		meshslice.MeshSliceConfig{S: 2, Block: 2}, a, b)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("matches reference: %v\n", c.Equal(tensor.MatMul(a, b), 1e-9))
	// Output: matches reference: true
}

// ExampleSimulate estimates a distributed GeMM's execution on the TPUv4
// cluster model and reports how much communication slicing exposes.
func ExampleSimulate() {
	p := meshslice.Problem{M: 1 << 16, N: 12288, K: 12288, Dataflow: meshslice.OS}
	tor := meshslice.NewTorus(8, 8)
	chip := meshslice.TPUv4()

	noSlice := meshslice.Simulate(p, tor, chip, 1, meshslice.SimOptions{})
	sliced := meshslice.Simulate(p, tor, chip, 8, meshslice.SimOptions{})
	fmt.Printf("slicing speeds up the GeMM: %v\n", sliced.Makespan < noSlice.Makespan)
	fmt.Printf("slicing hides more communication: %v\n", sliced.ExposedComm < noSlice.ExposedComm)
	// Output:
	// slicing speeds up the GeMM: true
	// slicing hides more communication: true
}

// ExampleTune runs the LLM autotuner for GPT-3 on 64 chips.
func ExampleTune() {
	cfg := meshslice.GPT3()
	choice, err := meshslice.Tune(cfg, cfg.WeakScalingTokens(64), 64, meshslice.TPUv4())
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("chosen mesh: %v\n", choice.Shape)
	// Output: chosen mesh: 8x8 torus
}

// ExampleEstimateCost evaluates the analytical cost model's
// prologue/steady-state/epilogue decomposition (paper §3.2.2).
func ExampleEstimateCost() {
	p := meshslice.Problem{M: 1 << 18, N: 49152, K: 12288, Dataflow: meshslice.OS}
	e := meshslice.EstimateCost(p, meshslice.NewTorus(32, 8), meshslice.TPUv4(), 8)
	fmt.Printf("iterations: %d\n", e.Iterations)
	fmt.Printf("total = prologue + %d×steady + epilogue: %v\n",
		e.Iterations, e.Total() == e.Prologue+float64(e.Iterations)*e.SteadyState+e.Epilogue)
	// Output:
	// iterations: 7
	// total = prologue + 7×steady + epilogue: true
}
