package gemm_test

import (
	"fmt"
	"math/rand"

	"meshslice/internal/gemm"
	"meshslice/internal/hw"
	"meshslice/internal/netsim"
	"meshslice/internal/sched"
	"meshslice/internal/tensor"
	"meshslice/internal/topology"
)

// Example_algorithms is the algorithm zoo: all five 2D GeMM algorithms
// compute the same product on the functional mesh and agree with the
// reference, then their simulated timelines on a communication-bound
// problem contrast how much communication each exposes — a textual
// version of the paper's Fig. 4.
func Example_algorithms() {
	// Functional agreement on a square mesh (the only shape Cannon
	// supports), OS dataflow, real data.
	tor := topology.NewTorus(4, 4)
	prob := gemm.Problem{M: 64, N: 64, K: 64, Dataflow: gemm.OS}
	rng := rand.New(rand.NewSource(7))
	a := tensor.Random(prob.M, prob.K, rng)
	b := tensor.Random(prob.K, prob.N, rng)
	want := prob.Reference(a, b)

	funcs := []struct {
		name string
		fn   gemm.ChipFunc
	}{
		{"MeshSlice", gemm.MeshSlice(gemm.OS, gemm.MeshSliceConfig{S: 4, Block: 2})},
		{"Collective", gemm.Collective2D(gemm.OS)},
		{"SUMMA", gemm.SUMMA(gemm.OS, gemm.SUMMAConfig{})},
		{"Cannon", gemm.Cannon()},
		{"Wang", gemm.WangDataflow(gemm.OS)},
	}
	fmt.Printf("functional check on %v (C = A·B, 64×64×64):\n", tor)
	for _, f := range funcs {
		got := gemm.Multiply(tor, f.fn, a, b)
		fmt.Printf("  %-10s max |Δ| = %.2e\n", f.name, got.MaxAbsDiff(want))
	}

	// Simulated timelines at LLM scale: who exposes how much
	// communication (Fig. 4 in numbers).
	chip := hw.TPUv4()
	big := gemm.Problem{M: 1 << 16, N: 12288, K: 12288, Dataflow: gemm.OS}
	simTor := topology.NewTorus(8, 8)
	progs := []*sched.Program{
		sched.MeshSliceProgram(big, simTor, chip, 8),
		sched.CollectiveProgram(big, simTor, chip),
		sched.SUMMAProgram(big, simTor, chip, 8),
		sched.CannonProgram(big, simTor, chip),
		sched.WangProgram(big, simTor, chip, 8),
	}
	fmt.Printf("\nsimulated timelines on %v (M=%d N=%d K=%d):\n", simTor, big.M, big.N, big.K)
	fmt.Printf("  %-18s %-10s %-10s %-10s %s\n", "algorithm", "makespan", "compute", "comm", "exposed comm")
	for _, p := range progs {
		r := netsim.Simulate(p, chip, netsim.Options{})
		fmt.Printf("  %-18s %-10s %-10s %-10s %s\n",
			p.Label,
			fmt.Sprintf("%.3fms", r.Makespan*1e3),
			fmt.Sprintf("%.3fms", r.ComputeBusy*1e3),
			fmt.Sprintf("%.3fms", r.Comm.Total()*1e3),
			fmt.Sprintf("%.3fms", r.ExposedComm*1e3))
	}
	fmt.Println("\nMeshSlice overlaps both directions; Wang exposes one; Collective exposes both;")
	fmt.Println("SUMMA pays bcast bubbles and syncs; Cannon pays skewing traffic.")
	// Output:
	// functional check on 4x4 torus (C = A·B, 64×64×64):
	//   MeshSlice  max |Δ| = 7.11e-15
	//   Collective max |Δ| = 0.00e+00
	//   SUMMA      max |Δ| = 0.00e+00
	//   Cannon     max |Δ| = 6.22e-15
	//   Wang       max |Δ| = 6.22e-15
	//
	// simulated timelines on 8x8 torus (M=65536 N=12288 K=12288):
	//   algorithm          makespan   compute    comm       exposed comm
	//   MeshSlice-OS S=8   3.852ms    1.292ms    4.448ms    2.559ms
	//   Collective-OS      4.777ms    1.237ms    4.217ms    3.540ms
	//   SUMMA-OS P=8       6.003ms    1.237ms    7.199ms    4.766ms
	//   Cannon             5.756ms    1.237ms    6.704ms    4.519ms
	//   Wang-OS U=8        3.730ms    1.237ms    4.253ms    2.493ms
	//
	// MeshSlice overlaps both directions; Wang exposes one; Collective exposes both;
	// SUMMA pays bcast bubbles and syncs; Cannon pays skewing traffic.
}
