package gemm

import (
	"runtime"
	"slices"
	"testing"

	"meshslice/internal/mesh"
	"meshslice/internal/tensor"
	"meshslice/internal/topology"
)

// raceDetector reports whether the tests run under -race (set in
// race_on_test.go), whose instrumentation allocates on its own and so moves
// absolute allocation counts.
var raceDetector bool

// TestFineGeMMAllocationGate holds a warm gemm.Run on one persistent 4×4
// mesh at the gemm_fine shapes (S=32, Block=8) to a fixed allocation count
// per run. The MeshSlice schedules slice into their stream buffers, and
// Wang OS reads its B panels as views of the gathered block and forwards
// the A panels it receives, so nothing is allocated per slice or per ring
// step: what is left is per-run set-up (output shard, stream buffers, the
// gathered B) plus the mesh's own per-run cost (chip goroutines and, at
// depth 1, comm lanes and handles). When every slice and panel was a fresh
// copy the counts were 2,325 (MeshSlice OS at depth 0), 2,843 (OS, depth
// 1), 1,349 (LS, depth 0), 1,867 (LS, depth 1) and 437 (Wang OS, depth 0).
// Each gate holds the mean of 20 single runs bar the highest.
func TestFineGeMMAllocationGate(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates on its own; the gate runs without -race")
	}
	tor := topology.NewTorus(4, 4)
	m := mesh.New(tor)
	deepK := Problem{M: 64, N: 64, K: 8192, Dataflow: OS}
	wideN := Problem{M: 64, N: 8192, K: 64, Dataflow: LS}
	fine := func(pipelined bool) MeshSliceConfig { return MeshSliceConfig{S: 32, Block: 8, Pipelined: pipelined} }
	for _, tc := range []struct {
		name string
		prob Problem
		fn   ChipFunc
		max  float64
	}{
		{"meshslice/OS/serial", deepK, MeshSlice(OS, fine(false)), 373},
		{"meshslice/OS/pipelined", deepK, MeshSlice(OS, fine(true)), 955},
		{"meshslice/LS/serial", wideN, MeshSlice(LS, fine(false)), 373},
		{"meshslice/LS/pipelined", wideN, MeshSlice(LS, fine(true)), 923},
		{"wang/OS/serial", deepK, WangDataflow(OS), 261},
	} {
		a, b, _ := makeProblem(tc.prob, 3)
		as := tensor.Partition(a, tor.Rows, tor.Cols)
		bs := tensor.Partition(b, tor.Rows, tor.Cols)
		Run(m, tc.fn, as, bs) // warm the mesh's arenas and comm lanes
		got, counts := allocsBarHighest(20, func() { Run(m, tc.fn, as, bs) })
		t.Logf("%s: %v allocations per gemm.Run", tc.name, got)
		if got > tc.max {
			t.Errorf("%s: %v allocations per gemm.Run, gate is %v (single runs, sorted: %v)", tc.name, got, tc.max, counts)
		}
	}
}

// allocsBarHighest runs f n times on one P, as testing.AllocsPerRun does,
// counting each run's allocations, and returns the mean over all runs but
// the one that allocated most, and the sorted counts. A run that a busy
// machine's scheduling charged a few extra objects is dropped; an
// allocation present in two of the n runs still lifts the mean above the
// exact count. Ten warm-up runs come first: a persistent mesh grows an
// edge queue or creates a receiver's wait condition the first time an
// interleaving needs it, once, and a single warm-up left enough of those
// to fail 2 of 75 gates under a loaded full-suite run (0 of 75 with ten).
func allocsBarHighest(n int, f func()) (float64, []uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for range 10 {
		f()
	}
	counts := make([]uint64, n)
	var before, after runtime.MemStats
	for i := range counts {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		counts[i] = after.Mallocs - before.Mallocs
	}
	slices.Sort(counts)
	var sum uint64
	for _, c := range counts[:n-1] {
		sum += c
	}
	return float64(sum) / float64(n-1), counts
}
