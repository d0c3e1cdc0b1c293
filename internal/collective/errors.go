package collective

import (
	"fmt"

	"meshslice/internal/mesh"
	"meshslice/internal/tensor"
)

// Typed errors for the public API boundary. A block slice whose length does
// not match the ring is a *RingSizeError: ReduceScatter, ReduceScatterInto,
// AllGatherInto and ReduceScatterBidir panic with it as the value, and
// ReduceScatterBidirE returns it, so a caller can handle the mistake
// without recover.

// RingSizeError reports a block slice whose length does not match the ring.
type RingSizeError struct {
	Op     string // "reducescatter", "allgather", ...
	Blocks int    // blocks supplied by the caller
	Ring   int    // ring size expected
}

func (e *RingSizeError) Error() string {
	return fmt.Sprintf("collective: %s got %d blocks for ring of %d", e.Op, e.Blocks, e.Ring)
}

// checkBlocks validates a one-block-per-position argument.
func checkBlocks(op string, blocks []*tensor.Matrix, ring int) error {
	if len(blocks) != ring {
		return &RingSizeError{Op: op, Blocks: len(blocks), Ring: ring} // lint:allow hotpath-alloc error construction on the failure path only
	}
	return nil
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
