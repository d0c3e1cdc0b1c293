package fault

import "fmt"

// The functional SPMD runtime (package mesh) has no simulated clock, so a
// time-based Plan cannot be applied to it directly. MeshFaults is its own
// plan, stated on the runtime's directed edges: delays counted in scheduler
// yields, drops and chip failures counted in messages. Deterministic given a deterministic
// program, because the counts are per-edge and each edge's messages are
// produced by exactly one goroutine in program order.

// EdgeDelay makes every message on the directed edge From→To eligible for
// Yields cooperative scheduler yields on the receive side — perturbing
// goroutine interleaving the way a slow link perturbs arrival order,
// without changing any payload.
type EdgeDelay struct {
	From, To int
	Yields   int
}

// EdgeDrop silently discards the Nth message (0-based) sent on the
// directed edge From→To. The receiver must surface the loss as a typed
// stall error, not hang.
type EdgeDrop struct {
	From, To int
	Nth      int
}

// MeshChipFail fail-stops a chip after it has sent AfterSends messages:
// its goroutine aborts with a typed error and its peers observe the death
// instead of deadlocking.
type MeshChipFail struct {
	Chip       int
	AfterSends int
}

// MeshFaults is a fault plan in the functional runtime's vocabulary.
type MeshFaults struct {
	Delays    []EdgeDelay
	Drops     []EdgeDrop
	ChipFails []MeshChipFail
}

// Empty reports whether there is nothing to inject.
func (f *MeshFaults) Empty() bool {
	return f == nil || len(f.Delays) == 0 && len(f.Drops) == 0 && len(f.ChipFails) == 0
}

// Validate reports whether every fault targets the mesh of the given chip
// count: each chip and edge endpoint in [0, chips), no edge from a chip to
// itself, and no negative count. A fault outside the mesh would inject
// nothing, silently. Edges need not join ring neighbours: Chip.Send and a
// multi-hop Comm.SendTo may send between any two chips.
func (f *MeshFaults) Validate(chips int) error {
	if f == nil {
		return nil
	}
	edge := func(kind string, from, to int) error {
		if from < 0 || from >= chips || to < 0 || to >= chips || from == to {
			return fmt.Errorf("fault: %s on edge %d->%d: not an edge of a %d-chip mesh", kind, from, to, chips)
		}
		return nil
	}
	for _, d := range f.Delays {
		if err := edge("delay", d.From, d.To); err != nil {
			return err
		}
		if d.Yields < 0 {
			return fmt.Errorf("fault: delay on edge %d->%d has negative yields %d", d.From, d.To, d.Yields)
		}
	}
	for _, d := range f.Drops {
		if err := edge("drop", d.From, d.To); err != nil {
			return err
		}
		if d.Nth < 0 {
			return fmt.Errorf("fault: drop on edge %d->%d of negative message index %d", d.From, d.To, d.Nth)
		}
	}
	for _, c := range f.ChipFails {
		if c.Chip < 0 || c.Chip >= chips {
			return fmt.Errorf("fault: chip %d to fail is not in a %d-chip mesh", c.Chip, chips)
		}
		if c.AfterSends < 0 {
			return fmt.Errorf("fault: chip %d fails after negative sends %d", c.Chip, c.AfterSends)
		}
	}
	return nil
}
