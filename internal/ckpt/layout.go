// Package ckpt is the elastic checkpoint/restore subsystem: deterministic
// sharded snapshots of training state, pure N×M→N′×M′ resharding, and the
// byte-comparable manifests that make both testable.
//
// A snapshot is the union of one canonical per-chip record (the chip's
// local shards of every registered tensor, stored in MeshSlice sliced form,
// plus the RNG seed and global step counter) and one manifest (mesh shape,
// slicing counts, dataflow, per-record checksums, and a monotone checkpoint
// epoch). Records are byte-stable: the same training state always
// serializes to the same bytes, on any GOMAXPROCS setting, so whole
// snapshots can be compared — and deduplicated, diffed, content-addressed —
// with a plain byte comparison.
//
// Resharding (see Reshard) maps a snapshot taken on one Layout onto any
// other valid Layout without touching the mesh: target shards are
// reconstructed by copying the regions of the source shards that overlap
// them, and records store float64 bit patterns verbatim, so a round trip
// through any intermediate layout is bit-identical.
//
// Everything in this package is wall-clock-free and seeded-determinism
// friendly (meshlint's rules apply): no map iteration reaches an emission
// sink without an intervening sort, and no timestamps enter any artifact.
package ckpt

import (
	"fmt"

	"meshslice/internal/topology"
)

// Layout describes how a snapshot's tensors are sharded: the mesh shape the
// run used (Rows×Cols chips, tensor rows partitioned over mesh rows and
// tensor columns over mesh columns), and the MeshSlice slicing applied to
// each chip's local block before serialization — SliceRows×SliceCols
// sub-shards with block size Block (paper Algorithm 2). Slicing does not
// change the bytes' information content, only their order; it is recorded
// so restore and reshard can invert it exactly.
type Layout struct {
	Rows      int `json:"rows"`
	Cols      int `json:"cols"`
	SliceRows int `json:"slice_rows"`
	SliceCols int `json:"slice_cols"`
	Block     int `json:"block"`
}

// Torus returns the mesh shape of the layout.
func (l Layout) Torus() topology.Torus { return topology.NewTorus(l.Rows, l.Cols) }

// Chips returns the number of chips (= per-snapshot records).
func (l Layout) Chips() int { return l.Rows * l.Cols }

// Validate reports whether the layout itself is well formed (tensor
// compatibility is checked separately by CheckTensor).
func (l Layout) Validate() error {
	if l.Rows <= 0 || l.Cols <= 0 {
		return fmt.Errorf("ckpt: layout mesh %dx%d", l.Rows, l.Cols)
	}
	if l.SliceRows <= 0 || l.SliceCols <= 0 || l.Block <= 0 {
		return fmt.Errorf("ckpt: layout slicing %dx%d block %d", l.SliceRows, l.SliceCols, l.Block)
	}
	return nil
}

// CheckTensor reports whether a global rows×cols tensor can be sharded and
// sliced under the layout: the mesh must partition it evenly and each local
// block must divide into SliceRows×SliceCols slices of block size Block.
func (l Layout) CheckTensor(name string, rows, cols int) error {
	if err := l.Validate(); err != nil {
		return err
	}
	if rows <= 0 || cols <= 0 {
		return fmt.Errorf("ckpt: tensor %q has degenerate shape %dx%d", name, rows, cols)
	}
	if rows%l.Rows != 0 || cols%l.Cols != 0 {
		return fmt.Errorf("ckpt: tensor %q (%dx%d) not partitionable over %dx%d mesh", name, rows, cols, l.Rows, l.Cols)
	}
	br, bc := rows/l.Rows, cols/l.Cols
	if br%(l.SliceRows*l.Block) != 0 {
		return fmt.Errorf("ckpt: tensor %q local rows %d not divisible by slice_rows·block = %d·%d", name, br, l.SliceRows, l.Block)
	}
	if bc%(l.SliceCols*l.Block) != 0 {
		return fmt.Errorf("ckpt: tensor %q local cols %d not divisible by slice_cols·block = %d·%d", name, bc, l.SliceCols, l.Block)
	}
	return nil
}
