package collective

import (
	"strings"
	"testing"

	"meshslice/internal/mesh"
	"meshslice/internal/obs/recorder"
	"meshslice/internal/tensor"
	"meshslice/internal/topology"
)

// TestStartCollectivesMatchSync pins the Start*/Wait contract: the async
// forms run the exact ring loops of their synchronous counterparts on a
// background lane, so the results must be bit-identical.
func TestStartCollectivesMatchSync(t *testing.T) {
	const p = 4
	runRow(p, func(c *mesh.Chip, cm *mesh.Comm) {
		local := patterned(6, 4, cm.Pos)
		wide := patterned(6, 4*p, 100+cm.Pos)

		wantRows := AllGatherRows(cm, local)
		gotRows := tensor.New(6*p, 4)
		StartAllGatherRowsInto(cm, local, gotRows).Wait()
		if !gotRows.BitEqual(wantRows) {
			t.Errorf("pos %d: StartAllGatherRowsInto differs from sync", cm.Pos)
		}

		wantCols := AllGatherCols(cm, local)
		gotCols := tensor.New(6, 4*p)
		StartAllGatherColsInto(cm, local, gotCols).Wait()
		if !gotCols.BitEqual(wantCols) {
			t.Errorf("pos %d: StartAllGatherColsInto differs from sync", cm.Pos)
		}

		wantRS := ReduceScatterCols(cm, wide)
		gotRS := tensor.New(6, 4)
		StartReduceScatterColsInto(cm, wide, gotRS).Wait()
		if !gotRS.BitEqual(wantRS) {
			t.Errorf("pos %d: StartReduceScatterColsInto differs from sync", cm.Pos)
		}

		wideR := patterned(6*p, 4, 200+cm.Pos)
		wantRSR := ReduceScatterRows(cm, wideR)
		gotRSR := tensor.New(6, 4)
		StartReduceScatterRowsInto(cm, wideR, gotRSR).Wait()
		if !gotRSR.BitEqual(wantRSR) {
			t.Errorf("pos %d: StartReduceScatterRowsInto differs from sync", cm.Pos)
		}

		wantShift := cm.Shift(-1, local)
		gotShift := tensor.New(6, 4)
		StartShiftInto(cm, -1, local, gotShift).Wait()
		if !gotShift.BitEqual(wantShift) {
			t.Errorf("pos %d: StartShiftInto differs from Comm.Shift", cm.Pos)
		}
	})
}

// TestStartCollectivesTwoInFlight pins the two-ops-in-flight discipline the
// pipelined GeMM schedules rely on: an AllGather and a ReduceScatter issued
// back-to-back on the same ring execute serially in issue order and both
// land correctly.
func TestStartCollectivesTwoInFlight(t *testing.T) {
	const p = 4
	runRow(p, func(c *mesh.Chip, cm *mesh.Comm) {
		local := patterned(6, 4, cm.Pos)
		wide := patterned(6, 4*p, 50+cm.Pos)
		wantRows := AllGatherRows(cm, local)
		wantRS := ReduceScatterCols(cm, wide)

		gotRows := tensor.New(6*p, 4)
		gotRS := tensor.New(6, 4)
		h1 := StartAllGatherRowsInto(cm, local, gotRows)
		h2 := StartReduceScatterColsInto(cm, wide, gotRS)
		h1.Wait()
		h2.Wait()
		if !gotRows.BitEqual(wantRows) {
			t.Errorf("pos %d: overlapped AllGather differs", cm.Pos)
		}
		if !gotRS.BitEqual(wantRS) {
			t.Errorf("pos %d: overlapped ReduceScatter differs", cm.Pos)
		}
	})
}

// TestStartFormsRejectDstIsInput: a Start form whose dst is its input
// would have the background lane write the matrix the issuer may still be
// reading (a data race), so every Start form must panic at issue, naming
// the op. A 1-chip ring makes every shape check pass, so the panic is the
// aliasing check's.
func TestStartFormsRejectDstIsInput(t *testing.T) {
	for _, c := range []struct {
		name, op string
		start    func(cm *mesh.Comm, m *tensor.Matrix) *Handle
	}{
		{"StartAllGatherRowsInto", "allgather", func(cm *mesh.Comm, m *tensor.Matrix) *Handle { return StartAllGatherRowsInto(cm, m, m) }},
		{"StartAllGatherColsInto", "allgather", func(cm *mesh.Comm, m *tensor.Matrix) *Handle { return StartAllGatherColsInto(cm, m, m) }},
		{"StartReduceScatterRowsInto", "reducescatter", func(cm *mesh.Comm, m *tensor.Matrix) *Handle { return StartReduceScatterRowsInto(cm, m, m) }},
		{"StartReduceScatterColsInto", "reducescatter", func(cm *mesh.Comm, m *tensor.Matrix) *Handle { return StartReduceScatterColsInto(cm, m, m) }},
		{"StartShiftInto", "shift", func(cm *mesh.Comm, m *tensor.Matrix) *Handle { return StartShiftInto(cm, -1, m, m) }},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "async "+c.op+" writes its own input") {
					t.Errorf("%s(dst = input) panicked with %q, want the aliasing invariant naming %s", c.name, msg, c.op)
				}
			}()
			runRow(1, func(_ *mesh.Chip, cm *mesh.Comm) {
				c.start(cm, patterned(2, 3, 0)).Wait()
			})
			t.Errorf("%s(dst = input) did not panic", c.name)
		}()
	}
}

// TestIntoCollectivesZeroSteadyStateAllocsAsync is the allocation gate for
// the overlap engine, measured the same way as the synchronous gate (delta
// between 101- and 201-iteration Runs, cancelling per-Run fixed costs:
// worker spawn, handle/op-log pools, queue capacity). Each iteration runs
// the pipelined idiom — a double-buffered prefetch AllGather plus a
// ReduceScatter on the same lane — with a recorder attached, so issue,
// execution, and the Wait-time op-log merge must all be allocation-free in
// steady state.
func TestIntoCollectivesZeroSteadyStateAllocsAsync(t *testing.T) {
	const p = 4
	type scratch struct {
		local *tensor.Matrix
		wide  *tensor.Matrix
		rows  [2]*tensor.Matrix
		dst   *tensor.Matrix
	}
	m := mesh.New(topology.NewTorus(1, p))
	m.SetRecorder(recorder.New(p, 0))
	scratches := make([]*scratch, p)
	for r := range scratches {
		scratches[r] = &scratch{
			local: patterned(8, 6, r),
			wide:  patterned(8, 6*p, 100+r),
			rows:  [2]*tensor.Matrix{tensor.New(8*p, 6), tensor.New(8*p, 6)},
			dst:   tensor.New(8, 6),
		}
	}
	runIters := func(iters int) {
		m.Run(func(c *mesh.Chip) {
			cm := c.RowComm()
			s := scratches[c.Rank]
			h := StartAllGatherRowsInto(cm, s.local, s.rows[0])
			for i := 0; i < iters; i++ {
				var hN *Handle
				if i+1 < iters {
					hN = StartAllGatherRowsInto(cm, s.local, s.rows[(i+1)%2])
				}
				h.Wait()
				StartReduceScatterColsInto(cm, s.wide, s.dst).Wait()
				h = hN
			}
		})
	}
	runIters(3) // warm pools, worker stacks, op-log capacity
	base := testing.AllocsPerRun(5, func() { runIters(101) })
	many := testing.AllocsPerRun(5, func() { runIters(201) })
	if perCall := (many - base) / 100; perCall > 0.05 {
		t.Errorf("async collective allocates %.3f per call in steady state, want 0 (run(101)=%.1f run(201)=%.1f)",
			perCall, base, many)
	}
}
