package mesh

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"meshslice/internal/fault"
	"meshslice/internal/tensor"
	"meshslice/internal/topology"
)

func valMatrix(v float64) *tensor.Matrix {
	m := tensor.New(1, 1)
	m.Set(0, 0, v)
	return m
}

// ringShift runs one full rotation on every row ring: each chip sends its
// rank downstream Size-1 times and accumulates what it receives.
func ringShift(c *Chip) float64 {
	cm := c.RowComm()
	cur := valMatrix(float64(c.Rank))
	sum := 0.0
	for s := 0; s < cm.Size-1; s++ {
		cur = cm.Shift(1, cur)
		sum += cur.At(0, 0)
	}
	return sum
}

func TestDelayOnlyFaultsPreserveResults(t *testing.T) {
	tor := topology.NewTorus(4, 4)
	run := func(m *Mesh) []float64 {
		out := make([]float64, tor.Size())
		var mu sync.Mutex
		m.Run(func(c *Chip) {
			v := ringShift(c)
			mu.Lock()
			out[c.Rank] = v
			mu.Unlock()
		})
		return out
	}
	healthy := run(New(tor))
	delayed := New(tor)
	// Chip 5's inter-col neighbourhood (chips 4 and 6, both directions)
	// slows down hard.
	delayed.SetFaults(fault.MeshFaults{Delays: []fault.EdgeDelay{
		{From: 4, To: 5, Yields: 8}, {From: 5, To: 4, Yields: 8},
		{From: 5, To: 6, Yields: 8}, {From: 6, To: 5, Yields: 8},
	}})
	faulty := run(delayed)
	for i := range healthy {
		if healthy[i] != faulty[i] { // lint:float-exact acceptance criterion: delay-only faults leave numerics EXACTLY unchanged
			t.Errorf("chip %d: delayed result %v != healthy %v", i, faulty[i], healthy[i])
		}
	}
}

func TestDropSurfacesAsTypedStall(t *testing.T) {
	tor := topology.NewTorus(2, 2)
	m := New(tor)
	// Chip 0's first message to chip 1 (its row-ring neighbour) vanishes.
	m.SetFaults(fault.MeshFaults{Drops: []fault.EdgeDrop{{From: 0, To: 1, Nth: 0}}})
	err := m.RunE(func(c *Chip) { ringShift(c) })
	if err == nil {
		t.Fatal("dropped message went undetected")
	}
	var stall *RecvStallError
	if !errors.As(err, &stall) {
		t.Fatalf("got %T (%v), want *RecvStallError", err, err)
	}
	found := false
	for _, e := range stall.Edges {
		if e.From == 0 && e.To == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("stall edges %v do not include the dropped edge 0->1", stall.Edges)
	}
	if !strings.Contains(err.Error(), "lost") {
		t.Errorf("error message %q does not mention the loss", err)
	}
}

func TestChipFailSurfacesTyped(t *testing.T) {
	// 2x4: row rings have 4 members, so every chip sends 3 times and chip
	// 3 dies mid-collective, at its second send.
	tor := topology.NewTorus(2, 4)
	m := New(tor)
	m.SetFaults(fault.MeshFaults{ChipFails: []fault.MeshChipFail{{Chip: 3, AfterSends: 1}}})
	err := m.RunE(func(c *Chip) { ringShift(c) })
	if err == nil {
		t.Fatal("failed chip went undetected")
	}
	var cf *ChipFailedError
	if !errors.As(err, &cf) {
		t.Fatalf("got %T (%v), want *ChipFailedError", err, err)
	}
	if cf.Chip != 3 || cf.Sends != 1 {
		t.Errorf("diagnosis %+v, want chip 3 after 1 send", cf)
	}
}

func TestFaultsReplayAcrossRuns(t *testing.T) {
	tor := topology.NewTorus(2, 2)
	m := New(tor)
	m.SetFaults(fault.MeshFaults{Drops: []fault.EdgeDrop{{From: 0, To: 1, Nth: 0}}})
	for i := 0; i < 3; i++ {
		err := m.RunE(func(c *Chip) { ringShift(c) })
		var stall *RecvStallError
		if !errors.As(err, &stall) {
			t.Fatalf("run %d: got %T (%v), want *RecvStallError — drops must replay on every run", i, err, err)
		}
	}
	// Disarming restores healthy behaviour on the same mesh.
	m.SetFaults(fault.MeshFaults{})
	if err := m.RunE(func(c *Chip) { ringShift(c) }); err != nil {
		t.Fatalf("disarmed mesh still failing: %v", err)
	}
}

func TestRunEHealthyReturnsNil(t *testing.T) {
	m := New(topology.NewTorus(2, 2))
	if err := m.RunE(func(c *Chip) { ringShift(c) }); err != nil {
		t.Fatalf("healthy RunE: %v", err)
	}
}

func TestRunEGenuinePanicStillPanics(t *testing.T) {
	m := New(topology.NewTorus(2, 2))
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("genuine chip panic swallowed by RunE")
		}
		if !strings.Contains(p.(string), "boom") {
			t.Fatalf("unexpected panic %v", p)
		}
	}()
	_ = m.RunE(func(c *Chip) {
		if c.Rank == 2 {
			panic("boom")
		}
		ringShift(c)
	})
}

// TestLinkFailTranslationStalls: a dead link, translated onto the runtime
// edge as a drop of the first message chip 0 sends to its inter-col
// neighbour, ends in a typed stall as well.
func TestLinkFailTranslationStalls(t *testing.T) {
	m := New(topology.NewTorus(2, 2))
	m.SetFaults(fault.MeshFaults{Drops: []fault.EdgeDrop{{From: 0, To: 1, Nth: 0}}})
	err := m.RunE(func(c *Chip) { ringShift(c) })
	var stall *RecvStallError
	if !errors.As(err, &stall) {
		t.Fatalf("got %T (%v), want *RecvStallError", err, err)
	}
}
