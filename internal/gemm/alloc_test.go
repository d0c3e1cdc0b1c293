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

// fineOp is a named GeMM schedule and the problem it runs.
type fineOp struct {
	name string
	prob Problem
	fn   ChipFunc
}

// fineOps returns the six ops of the gemm_fine benchmark workload, in its
// order: MeshSlice and Wang schedules at S=32, Block=8 on a 4×4 mesh.
func fineOps() []fineOp {
	deepK := Problem{M: 64, N: 64, K: 8192, Dataflow: OS}
	wideN := Problem{M: 64, N: 8192, K: 64, Dataflow: LS}
	fine := func(pipelined bool) MeshSliceConfig { return MeshSliceConfig{S: 32, Block: 8, Pipelined: pipelined} }
	return []fineOp{
		{"meshslice/OS/serial", deepK, MeshSlice(OS, fine(false))},
		{"meshslice/OS/pipelined", deepK, MeshSlice(OS, fine(true))},
		{"meshslice/LS/serial", wideN, MeshSlice(LS, fine(false))},
		{"meshslice/LS/pipelined", wideN, MeshSlice(LS, fine(true))},
		{"wang/OS/serial", deepK, WangDataflow(OS)},
		{"wang/OS/pipelined", deepK, WangPipelined(OS)},
	}
}

// shards partitions the op's operands (drawn from seed) onto the torus.
func (o fineOp) shards(t topology.Torus, seed int64) (as, bs []*tensor.Matrix) {
	a, b, _ := makeProblem(o.prob, seed)
	return tensor.Partition(a, t.Rows, t.Cols), tensor.Partition(b, t.Rows, t.Cols)
}

// TestFineGeMMAllocationGate holds a warm gemm.Run on one persistent 4×4
// mesh at the gemm_fine shapes (S=32, Block=8) to a fixed allocation count
// per run. The MeshSlice schedules slice into their stream buffers, Wang OS
// reads its B panels as views of the gathered block and forwards the A
// panels it receives, and every buffer besides the output shard comes from
// the mesh's scratch arena, so nothing is allocated per slice or per ring
// step and a warm run allocates no buffer but its output: what is left is
// the output shard plus the mesh's own per-run cost (chip goroutines and,
// at depth 1, comm lanes and handles). When every slice and panel was a
// fresh copy the counts were 2,325 (MeshSlice OS at depth 0), 2,843 (OS,
// depth 1), 1,349 (LS, depth 0), 1,867 (LS, depth 1) and 437 (Wang OS,
// depth 0); with the stream buffers, gathered B and landing buffers still
// allocated per run they were 373, 955, 373, 923, 261 and 570 (Wang OS,
// depth 1). Each gate holds the mean of 20 single runs bar the highest.
func TestFineGeMMAllocationGate(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates on its own; the gate runs without -race")
	}
	tor := topology.NewTorus(4, 4)
	m := mesh.New(tor)
	gate := map[string]float64{
		"meshslice/OS/serial":    181,
		"meshslice/OS/pipelined": 635,
		"meshslice/LS/serial":    181,
		"meshslice/LS/pipelined": 603,
		"wang/OS/serial":         197,
		"wang/OS/pipelined":      378,
	}
	for _, o := range fineOps() {
		as, bs := o.shards(tor, 3)
		Run(m, o.fn, as, bs) // warm the mesh's arenas and comm lanes
		got, counts := barHighest(20, mallocs, func() { Run(m, o.fn, as, bs) })
		t.Logf("%s: %v allocations per gemm.Run", o.name, got)
		if max := gate[o.name]; got > max {
			t.Errorf("%s: %v allocations per gemm.Run, gate is %v (single runs, sorted: %v)", o.name, got, max, counts)
		}
	}
}

// fineRunSlack is what a warm gemm_fine run may allocate beyond its output
// shards: the mesh's per-run bookkeeping (chip views, comm lanes, handles,
// the result slice), 11–40 KB per 4×4 run when this gate was set. A
// buffer allocated per run is far larger: MeshSlice OS's stream buffers
// were 1.3 MB per run, Wang OS's gathered B 16 MB.
const fineRunSlack = 64 << 10

// TestWarmFineGeMMAllocatesOnlyItsOutput holds a warm gemm.Run of each
// gemm_fine op on one persistent mesh to the bytes of the output shards it
// returns plus fineRunSlack: every other buffer a run uses comes from the
// mesh's scratch arena, so the second run of an op allocates none of them.
// The bytes are the mean of 10 single runs bar the highest.
func TestWarmFineGeMMAllocatesOnlyItsOutput(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates on its own; the gate runs without -race")
	}
	tor := topology.NewTorus(4, 4)
	m := mesh.New(tor)
	for _, o := range fineOps() {
		as, bs := o.shards(tor, 3)
		var out []*tensor.Matrix
		got, _ := barHighest(10, totalAlloc, func() { out = Run(m, o.fn, as, bs) })
		outBytes := 0
		for _, c := range out {
			outBytes += 8 * len(c.Data)
		}
		t.Logf("%s: %.0f bytes per gemm.Run, %d of them output shards", o.name, got, outBytes)
		if got > float64(outBytes+fineRunSlack) {
			t.Errorf("%s: a warm gemm.Run allocates %.0f bytes, more than its %d bytes of output shards + %d", o.name, got, outBytes, fineRunSlack)
		}
	}
}

// mallocs and totalAlloc are the MemStats counters barHighest reads:
// objects and bytes allocated.
func mallocs(s *runtime.MemStats) uint64    { return s.Mallocs }
func totalAlloc(s *runtime.MemStats) uint64 { return s.TotalAlloc }

// barHighest runs f n times on one P, as testing.AllocsPerRun does,
// reading stat's growth over each run, and returns the mean over all runs
// but the one that grew it most, and the sorted counts. A run that a busy
// machine's scheduling charged a few extra objects is dropped; an
// allocation present in two of the n runs still lifts the mean above the
// exact count. Ten warm-up runs come first: a persistent mesh grows an
// edge queue or creates a receiver's wait condition the first time an
// interleaving needs it, once, and a single warm-up left enough of those
// to fail 2 of 75 gates under a loaded full-suite run (0 of 75 with ten).
func barHighest(n int, stat func(*runtime.MemStats) uint64, f func()) (float64, []uint64) {
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
		counts[i] = stat(&after) - stat(&before)
	}
	slices.Sort(counts)
	var sum uint64
	for _, c := range counts[:n-1] {
		sum += c
	}
	return float64(sum) / float64(n-1), counts
}

// multiplyChipSlack is what a warm gemm.Multiply may allocate per chip
// beyond its result, its output shards and an idle mesh.
const multiplyChipSlack = 2 << 10

// TestMultiplyAllocatesOnlyItsResult holds a warm gemm.Multiply, which
// makes, runs and closes a fresh mesh per call, to the bytes of its result
// and of its chips' output shards plus what mesh.New and an idle run cost,
// plus multiplyChipSlack per chip for the run's bookkeeping (chip views,
// communicators, the headers of carved matrices: 0.7 KB per chip on 4×4
// and 1.1 KB on 8×8 when the gate was set). The operand shards and every
// arena buffer are carved from the slab the last closed mesh gave back.
// The 4×4 and 8×8 calls take turns, so one slab serves both sizes. At 512³
// on 4×4 a call allocated 14.8 MB before the slab and 4.26 MB after.
func TestMultiplyAllocatesOnlyItsResult(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates on its own; the gate runs without -race")
	}
	p := Problem{M: 512, N: 512, K: 512, Dataflow: OS}
	a, b, _ := makeProblem(p, 7)
	fn := MeshSlice(OS, MeshSliceConfig{S: 4, Block: 2})
	tors := []topology.Torus{topology.NewTorus(4, 4), topology.NewTorus(8, 8)}
	for _, tor := range tors {
		Multiply(tor, fn, a, b) // the slab grows to the larger mesh's need
	}
	result := 8 * p.M * p.N // bytes of the result, and of the output shards
	for _, tor := range tors {
		idle, _ := barHighest(5, totalAlloc, func() {
			m := mesh.New(tor)
			m.Run(func(*mesh.Chip) {})
			m.Close()
		})
		got, counts := barHighest(5, totalAlloc, func() { Multiply(tor, fn, a, b) })
		t.Logf("%v: %.0f bytes per gemm.Multiply; result and shards %d, idle mesh %.0f", tor, got, 2*result, idle)
		slack := multiplyChipSlack * tor.Size()
		if limit := float64(2*result+slack) + idle; got > limit {
			t.Errorf("%v: a warm gemm.Multiply allocates %.0f bytes, more than its result and output shards (%d) + an idle mesh (%.0f) + %d (single runs, sorted: %v)",
				tor, got, 2*result, idle, slack, counts)
		}
	}
}
