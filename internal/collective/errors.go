package collective

import (
	"fmt"

	"meshslice/internal/mesh"
	"meshslice/internal/tensor"
)

// Typed errors for the public API boundary. The ring primitives historically
// panicked on caller mistakes; the error-returning variants (ReduceScatterE,
// ReduceScatterBidirE, BroadcastE, ReduceE) surface the same
// conditions as values so resilience-aware callers — fault-injection
// harnesses, schedulers probing degraded rings — can handle them without
// recover. The panic variants remain as thin wrappers preserving SPMD
// fail-fast semantics, and now panic with these typed values.

// RingSizeError reports a block slice whose length does not match the ring.
type RingSizeError struct {
	Op     string // "reducescatter", "allgather", ...
	Blocks int    // blocks supplied by the caller
	Ring   int    // ring size expected
}

func (e *RingSizeError) Error() string {
	return fmt.Sprintf("collective: %s got %d blocks for ring of %d", e.Op, e.Blocks, e.Ring)
}

// MemberError reports a ring position outside [0, Ring).
type MemberError struct {
	Op     string
	Member int
	Ring   int
}

func (e *MemberError) Error() string {
	return fmt.Sprintf("collective: %s member %d outside ring of %d", e.Op, e.Member, e.Ring)
}

// checkBlocks validates a one-block-per-position argument.
func checkBlocks(op string, blocks []*tensor.Matrix, ring int) error {
	if len(blocks) != ring {
		return &RingSizeError{Op: op, Blocks: len(blocks), Ring: ring} // lint:allow hotpath-alloc error construction on the failure path only
	}
	return nil
}

// checkMember validates a ring position argument.
func checkMember(op string, member, ring int) error {
	if member < 0 || member >= ring {
		return &MemberError{Op: op, Member: member, Ring: ring}
	}
	return nil
}

// ReduceScatterE is ReduceScatter returning a *RingSizeError instead of
// panicking when blocks does not hold one block per ring position.
func ReduceScatterE(cm *mesh.Comm, blocks []*tensor.Matrix) (*tensor.Matrix, error) {
	if err := checkBlocks("reducescatter", blocks, cm.Size); err != nil {
		return nil, err
	}
	return reduceScatter(cm, blocks), nil
}

// ReduceScatterBidirE is ReduceScatterBidir returning a *RingSizeError
// instead of panicking when blocks does not hold one block per ring
// position.
func ReduceScatterBidirE(cm *mesh.Comm, blocks []*tensor.Matrix) (*tensor.Matrix, error) {
	if err := checkBlocks("reducescatter-bidir", blocks, cm.Size); err != nil {
		return nil, err
	}
	return reduceScatterBidir(cm, blocks), nil
}

// BroadcastE is Broadcast with a strict root: positions outside [0, Size)
// return a *MemberError instead of wrapping around the ring.
func BroadcastE(cm *mesh.Comm, root int, m *tensor.Matrix) (*tensor.Matrix, error) {
	if err := checkMember("broadcast", root, cm.Size); err != nil {
		return nil, err
	}
	return Broadcast(cm, root, m), nil
}

// ReduceE is Reduce with a strict root: positions outside [0, Size) return
// a *MemberError instead of wrapping around the ring.
func ReduceE(cm *mesh.Comm, root int, m *tensor.Matrix) (*tensor.Matrix, error) {
	if err := checkMember("reduce", root, cm.Size); err != nil {
		return nil, err
	}
	return Reduce(cm, root, m), nil
}
