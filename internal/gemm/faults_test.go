package gemm

import (
	"runtime"
	"testing"

	"meshslice/internal/fault"
	"meshslice/internal/mesh"
	"meshslice/internal/obs/recorder"
	"meshslice/internal/tensor"
	"meshslice/internal/topology"
)

// TestDelayOnlyFaultsLeaveGeMMNumericsUnchanged is the resilience
// acceptance criterion on real algorithms: scheduler-yield delays on
// degraded edges reorder goroutine interleavings but every distributed
// GeMM still produces bit-identical output shards.
func TestDelayOnlyFaultsLeaveGeMMNumericsUnchanged(t *testing.T) {
	tor := topology.NewTorus(4, 4)
	p := Problem{M: 64, N: 64, K: 64, Dataflow: OS}
	rng := newRand(11)
	a := randomMatrix(64, 64, rng)
	b := randomMatrix(64, 64, rng)
	as := tensor.Partition(a, tor.Rows, tor.Cols)
	bs := tensor.Partition(b, tor.Rows, tor.Cols)
	// Chip 5's inter-col edges (to and from chips 4 and 6) and chip 10's
	// inter-row edges (to and from chips 6 and 14) are degraded.
	delays := fault.MeshFaults{Delays: []fault.EdgeDelay{
		{From: 4, To: 5, Yields: 6}, {From: 5, To: 4, Yields: 6},
		{From: 5, To: 6, Yields: 6}, {From: 6, To: 5, Yields: 6},
		{From: 6, To: 10, Yields: 4}, {From: 10, To: 6, Yields: 4},
		{From: 10, To: 14, Yields: 4}, {From: 14, To: 10, Yields: 4},
	}}
	opts := AlgOptions{S: 2, Block: 2}
	for _, alg := range Algorithms() {
		for _, df := range alg.Dataflows {
			if alg.Validate != nil && alg.Validate(p, tor, opts) != nil {
				continue
			}
			fn := alg.Build(df, opts)
			healthy := Run(mesh.New(tor), fn, as, bs)
			faulty := mesh.New(tor)
			faulty.SetFaults(delays)
			degraded := Run(faulty, fn, as, bs)
			for rank := range healthy {
				if diff := healthy[rank].MaxAbsDiff(degraded[rank]); diff != 0 { // lint:float-exact acceptance criterion: delay-only faults change nothing, bit for bit
					t.Errorf("%s/%v chip %d: delay-only faults changed the result by %g",
						alg.Name, df, rank, diff)
				}
			}
		}
	}
}

// TestChipFailKillsTheSameSend runs the schedule of `meshslice record
// -pipelined -s 4 -fail 1:3` (MeshSlice OS, 64³ on 4×4, S=4, recorder
// attached) 20 times at GOMAXPROCS 1, 2 and 8, and once serially. Chip 1's
// sends are numbered in its issue order, an async gather's when it is
// started, so its send number 3, the column gather's first ring step, is
// the one that dies every time, at either depth.
func TestChipFailKillsTheSameSend(t *testing.T) {
	const want = "mesh: chip 1 fail-stopped after 3 sends during allgather (ring step 0)"
	tor := topology.NewTorus(4, 4)
	a, b, _ := makeProblem(Problem{M: 64, N: 64, K: 64, Dataflow: OS}, 1)
	as, bs := tensor.Partition(a, 4, 4), tensor.Partition(b, 4, 4)
	run := func(pipelined bool) error {
		m := mesh.New(tor)
		m.SetRecorder(recorder.New(tor.Size(), 0))
		m.SetFaults(fault.MeshFaults{ChipFails: []fault.MeshChipFail{{Chip: 1, AfterSends: 3}}})
		fn := MeshSlice(OS, MeshSliceConfig{S: 4, Block: 2, Pipelined: pipelined})
		return m.RunE(func(c *mesh.Chip) { fn(c, as[c.Rank], bs[c.Rank]) })
	}
	if err := run(false); err == nil || err.Error() != want {
		t.Fatalf("serial: err = %v, want %q", err, want)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for i := 0; i < 20; i++ {
			if err := run(true); err == nil || err.Error() != want {
				t.Fatalf("GOMAXPROCS %d, run %d: err = %v, want %q", procs, i, err, want)
			}
		}
	}
}
