package mesh

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"meshslice/internal/fault"
	"meshslice/internal/obs/recorder"
	"meshslice/internal/tensor"
	"meshslice/internal/topology"
)

// Wake-protocol tests: a send wakes only receivers parked on its edge, a
// comm-lane completion only the chip waiting on the handle, and stall
// declaration and poisoning still wake everyone. A lost wake-up shows up as
// a hang, so every run is bounded by within.

// recvInto is an AsyncOp that receives one matrix from ring position from
// and stores its value in dst.
func recvInto(cm *Comm, _, dst *tensor.Matrix, from int) {
	dst.Set(0, 0, cm.RecvFrom(from).At(0, 0))
}

// within fails the test unless fn returns within a generous deadline.
func within(t *testing.T, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("run did not return: a wake-up was lost")
	}
}

// waitUntil polls the exchanger, under its lock, until cond holds.
func waitUntil(ex *exchanger, cond func() bool) {
	for {
		ex.mu.Lock()
		ok := cond()
		ex.mu.Unlock()
		if ok {
			return
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestTwoReceiversOnOneEdgeEachGetOneMessage parks chip 1 and its comm lane
// on the same edge 0→1 (the chip on a point-to-point receive, the lane on a
// custom ring over the same two chips); two messages must wake both, one
// message each.
func TestTwoReceiversOnOneEdgeEachGetOneMessage(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		m := New(topology.NewTorus(1, 2))
		var chipGot, laneGot float64
		within(t, func() {
			m.Run(func(c *Chip) {
				ring := c.CustomComm([]int{0, 1}, topology.InterCol)
				if c.Rank == 0 {
					waitUntil(m.ex, func() bool { return m.ex.edges[0*2+1].waiters == 2 })
					c.Send(1, valMatrix(1))
					c.Send(1, valMatrix(2))
					return
				}
				lane := tensor.New(1, 1)
				h := ring.StartAsync(recorder.OpShift, recvInto, nil, lane, 0, 0)
				chipGot = c.Recv(0).At(0, 0)
				h.Wait()
				laneGot = lane.At(0, 0)
			})
		})
		if got := []float64{chipGot, laneGot}; !reflect.DeepEqual(got, []float64{1, 2}) && !reflect.DeepEqual(got, []float64{2, 1}) {
			t.Fatalf("iter %d: chip got %v, lane got %v; want one message each", iter, chipGot, laneGot)
		}
	}
}

// TestStallWithChipInHandleWait drops the only message chip 1's comm lane
// waits for while chip 1 is parked in Handle.Wait and every other chip is
// in recv: the run must still end in the typed stall, naming the four
// blocked edges in sorted order, whichever order they parked in.
func TestStallWithChipInHandleWait(t *testing.T) {
	want := []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 0}}
	for iter := 0; iter < 20; iter++ {
		m := New(topology.NewTorus(2, 2))
		m.SetRecorder(recorder.New(4, 0))
		m.SetFaults(fault.MeshFaults{Drops: []fault.EdgeDrop{{From: 0, To: 1, Nth: 0}}})
		var err error
		within(t, func() {
			err = m.RunE(func(c *Chip) {
				switch c.Rank {
				case 0:
					c.Send(1, valMatrix(1))
					c.Recv(3)
				case 1:
					ring := c.CustomComm([]int{0, 1}, topology.InterCol)
					h := ring.StartAsync(recorder.OpShift, recvInto, nil, tensor.New(1, 1), 0, 0)
					h.Wait()
				default:
					c.Recv(c.Rank - 1)
				}
			})
		})
		var stall *RecvStallError
		if !errors.As(err, &stall) {
			t.Fatalf("iter %d: got %T (%v), want *RecvStallError", iter, err, err)
		}
		if !reflect.DeepEqual(stall.Edges, want) {
			t.Fatalf("iter %d: stall edges %v, want %v", iter, stall.Edges, want)
		}
		if len(stall.Waits) != len(want) {
			t.Fatalf("iter %d: %d span attributions for %d edges", iter, len(stall.Waits), len(want))
		}
		for i, w := range stall.Waits {
			if w.Edge != want[i] {
				t.Fatalf("iter %d: wait %d is on %v, want %v", iter, i, w.Edge, want[i])
			}
		}
		if stall.Waits[0].Op != recorder.OpShift.String() {
			t.Errorf("iter %d: the lane's blocked edge is attributed to %q, want its own op %q", iter, stall.Waits[0].Op, recorder.OpShift)
		}
	}
}

// TestPanicWakesEdgesAndHandles panics chip 3 once chips 0 and 2 are parked
// on edges, chip 1 in Handle.Wait and chip 1's comm lane on an edge: RunE
// must return promptly with the panic, and leave no chip goroutine, lane
// or receiver behind.
func TestPanicWakesEdgesAndHandles(t *testing.T) {
	base := runtime.NumGoroutine()
	for iter := 0; iter < 20; iter++ {
		m := New(topology.NewTorus(2, 2))
		var p any
		within(t, func() {
			defer func() { p = recover() }()
			_ = m.RunE(func(c *Chip) {
				switch c.Rank {
				case 1:
					ring := c.CustomComm([]int{0, 1}, topology.InterCol)
					h := ring.StartAsync(recorder.OpShift, recvInto, nil, tensor.New(1, 1), 0, 0)
					h.Wait()
				case 3:
					waitUntil(m.ex, func() bool {
						return m.ex.waiting == 2 && m.ex.awaiting == 1 && m.ex.wblocked == 1
					})
					panic("boom")
				default:
					c.Recv(3)
				}
			})
		})
		if !strings.Contains(fmt.Sprint(p), "boom") {
			t.Fatalf("iter %d: RunE panicked with %v, want chip 3's boom", iter, p)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after the runs, %d before: a lane or receiver leaked", n, base)
	}
}

// TestExchangerAddsNoAllocsPerMessage is the exchanger's allocation gate:
// on a warm persistent mesh, a run that moves 64 ring steps of messages
// allocates exactly what an idle run does — mailboxes, edge conds and the
// parked list are reused, and the send/recv path does no map operation.
func TestExchangerAddsNoAllocsPerMessage(t *testing.T) {
	m := New(topology.NewTorus(4, 4))
	ring := func(steps int) func() {
		return func() {
			m.Run(func(c *Chip) {
				row := c.RowComm()
				buf := c.AcquireBuf(1, 8)
				for s := 0; s < steps; s++ {
					row.SendOwnedTo(row.Pos+1, buf)
					buf = row.RecvFrom(row.Pos - 1)
				}
				c.ReleaseBuf(buf)
			})
		}
	}
	idle, busy := ring(0), ring(64)
	for i := 0; i < 10; i++ {
		busy() // warm the mailboxes, edge conds, parked list and buffer pool
	}
	base := testing.AllocsPerRun(20, idle)
	moved := testing.AllocsPerRun(20, busy)
	t.Logf("allocs per run: %.0f idle, %.0f with 64 ring steps (%d messages)", base, moved, 16*64)
	if moved != base {
		t.Errorf("64 ring steps allocate %.0f objects per run, an idle run %.0f: the exchanger allocates per message", moved, base)
	}
}
