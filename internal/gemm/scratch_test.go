package gemm

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"meshslice/internal/fault"
	"meshslice/internal/mesh"
	"meshslice/internal/tensor"
	"meshslice/internal/topology"
)

// The scratch arena (mesh.Chip.Scratch) hands a warm mesh's schedules the
// buffers the last run used, stale contents and all. These tests run the
// schedules on persistent meshes and hold every result to the bits a fresh
// mesh gives: after failed runs, with the arena poisoned, and with the
// gemm_fine ops in either order.

// warmCase is an op with its operand shards and the output shards a fresh
// mesh computes from them.
type warmCase struct {
	name   string
	fn     ChipFunc
	as, bs []*tensor.Matrix
	want   []*tensor.Matrix
}

func newWarmCase(t topology.Torus, o fineOp, seed int64) *warmCase {
	w := &warmCase{name: o.name, fn: o.fn}
	w.as, w.bs = o.shards(t, seed)
	w.want = Run(mesh.New(t), o.fn, w.as, w.bs)
	return w
}

// fineCases returns the six gemm_fine ops on the 4×4 mesh.
func fineCases() []*warmCase {
	tor := topology.NewTorus(4, 4)
	var cs []*warmCase
	for i, o := range fineOps() {
		cs = append(cs, newWarmCase(tor, o, int64(53+i)))
	}
	return cs
}

// check runs w on m and requires every output shard to be BitEqual to a
// fresh mesh's.
func (w *warmCase) check(t *testing.T, m *mesh.Mesh, when string) {
	t.Helper()
	got := Run(m, w.fn, w.as, w.bs)
	for rank := range got {
		if !got[rank].BitEqual(w.want[rank]) {
			t.Errorf("%s, %s: chip %d's shard differs from a fresh mesh's (max diff %g)", w.name, when, rank, got[rank].MaxAbsDiff(w.want[rank]))
			return
		}
	}
}

// TestScratchPoisonCannotChangeTheBits poisons the arena with NaN before
// each run and runs the six gemm_fine ops twice in the workload's order and
// twice in reverse, each order on its own mesh: an op then draws buffers
// another op of other shapes left, or its own from the last round. A
// schedule that read a scratch element before writing it would turn its
// result to NaN.
func TestScratchPoisonCannotChangeTheBits(t *testing.T) {
	cs := fineCases()
	for _, reverse := range []bool{false, true} {
		m := mesh.New(topology.NewTorus(4, 4))
		for round := range 2 {
			for i := range cs {
				w := cs[i]
				if reverse {
					w = cs[len(cs)-1-i]
				}
				m.PoisonScratch()
				w.check(t, m, fmt.Sprintf("round %d (reverse order: %v)", round+1, reverse))
			}
		}
	}
}

// TestScratchPoisonEveryDataflow is the poisoned-arena check for every
// MeshSlice and Wang schedule, all three dataflows at both depths, on one
// persistent non-square mesh: each op runs twice with the arena poisoned
// before each run, so the second run draws its own poisoned buffers, and
// both must give a fresh mesh's bits.
func TestScratchPoisonEveryDataflow(t *testing.T) {
	tor := topology.NewTorus(2, 4)
	m := mesh.New(tor)
	for _, df := range []Dataflow{OS, LS, RS} {
		p := Problem{M: 64, N: 64, K: 64, Dataflow: df}
		for _, pipelined := range []bool{false, true} {
			wang := WangDataflow(df)
			if pipelined {
				wang = WangPipelined(df)
			}
			for _, w := range []*warmCase{
				newWarmCase(tor, fineOp{fmt.Sprintf("meshslice/%v/pipelined=%v", df, pipelined), p, MeshSlice(df, MeshSliceConfig{S: 2, Block: 4, Pipelined: pipelined})}, 530),
				newWarmCase(tor, fineOp{fmt.Sprintf("wang/%v/pipelined=%v", df, pipelined), p, wang}, 531),
			} {
				for run := range 2 {
					m.PoisonScratch()
					w.check(t, m, fmt.Sprintf("run %d", run+1))
				}
			}
		}
	}
}

// TestFailedRunsLeaveTheMeshClean kills depth-1 Wang OS and MeshSlice OS
// runs on a warm persistent mesh at the gemm_fine shapes, once with a chip
// that fail-stops mid-run and once with a dropped message. Both kill Wang's
// run while a scratch matrix is on the wire (its shift sends each panel in
// a scratch copy), and the dropped or unsent message keeps its in-flight
// tag until the run ends. Each failed run must return its typed error, and
// the next clean runs on that mesh, which draw the same matrices again,
// must give a fresh mesh's bits. No goroutine may outlive the runs.
func TestFailedRunsLeaveTheMeshClean(t *testing.T) {
	cs := fineCases()
	wangOS, meshSliceOS := cs[5], cs[1]
	base := runtime.NumGoroutine()
	// Chip 5 sits at row 1, column 1. Wang's shift sends leftwards, to
	// chip 4; the MeshSlice row gathers send rightwards, to chip 6. Chip
	// 5's fifth send is Wang's second shift (its three column-gather sends
	// come first), and falls in MeshSlice's gathers of slice 0 or 1.
	chipFail := fault.MeshFaults{ChipFails: []fault.MeshChipFail{{Chip: 5, AfterSends: 4}}}
	for _, tc := range []struct {
		w      *warmCase
		faults fault.MeshFaults
		stall  bool
	}{
		{wangOS, chipFail, false},
		{wangOS, fault.MeshFaults{Drops: []fault.EdgeDrop{{From: 5, To: 4, Nth: 1}}}, true},
		{meshSliceOS, chipFail, false},
		{meshSliceOS, fault.MeshFaults{Drops: []fault.EdgeDrop{{From: 5, To: 6, Nth: 1}}}, true},
	} {
		w := tc.w
		m := mesh.New(topology.NewTorus(4, 4))
		w.check(t, m, "warm-up")
		m.SetFaults(tc.faults)
		err := m.RunE(func(c *mesh.Chip) { w.fn(c, w.as[c.Rank], w.bs[c.Rank]) })
		var stall *mesh.RecvStallError
		var failed *mesh.ChipFailedError
		switch {
		case tc.stall && !errors.As(err, &stall):
			t.Errorf("%s under %+v: got %T (%v), want *mesh.RecvStallError", w.name, tc.faults, err, err)
		case !tc.stall && !errors.As(err, &failed):
			t.Errorf("%s under %+v: got %T (%v), want *mesh.ChipFailedError", w.name, tc.faults, err, err)
		case failed != nil && failed.Chip != 5:
			t.Errorf("%s: chip %d failed, want chip 5", w.name, failed.Chip)
		}
		m.SetFaults(fault.MeshFaults{})
		w.check(t, m, "first run after a failed run")
		w.check(t, m, "second run after a failed run")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after the runs, %d before: a chip, comm lane or receiver leaked", n, base)
	}
}
