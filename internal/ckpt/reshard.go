package ckpt

import (
	"fmt"

	"meshslice/internal/tensor"
)

// Reshard maps a snapshot onto a new layout: a pure host-side function — no
// mesh, no collectives, no gathers into a global tensor — that rebuilds
// each target chip's block from the overlapping regions of the source
// chips' blocks. Record decode and re-encode walk the source and target
// slicing in place (payloadRuns), so every float64 bit pattern is copied
// verbatim: resharding is exact, and a round trip through any intermediate
// layout returns byte-identical records (see the property tests).
//
// The manifest's epoch, step, seed and dataflow carry over unchanged — a
// resharded snapshot is the same training state, re-addressed.
func Reshard(s *Snapshot, to Layout) (*Snapshot, error) {
	if err := to.Validate(); err != nil {
		return nil, err
	}
	src, err := s.Decode()
	if err != nil {
		return nil, err
	}
	from := s.Manifest.Layout
	for _, spec := range s.Manifest.Tensors {
		if err := to.CheckTensor(spec.Name, spec.Rows, spec.Cols); err != nil {
			return nil, fmt.Errorf("ckpt: reshard: %w", err)
		}
	}
	// One target block per tensor, refilled for every target chip: each
	// record is encoded before the next chip's blocks overwrite them.
	tensors := make([]NamedTensor, len(s.Manifest.Tensors))
	for i, spec := range s.Manifest.Tensors {
		tensors[i] = NamedTensor{Name: spec.Name, Rows: spec.Rows, Cols: spec.Cols,
			Block: tensor.New(spec.Rows/to.Rows, spec.Cols/to.Cols)}
	}
	records := make([][]byte, to.Chips())
	for tr := 0; tr < to.Rows; tr++ {
		for tc := 0; tc < to.Cols; tc++ {
			rank := tr*to.Cols + tc
			for _, t := range tensors {
				if err := fillTargetBlock(t, src, from, to, tr, tc); err != nil {
					return nil, err
				}
			}
			rec, err := EncodeRecord(to, rank, s.Manifest.Step, s.Manifest.Seed, tensors)
			if err != nil {
				return nil, err
			}
			records[rank] = rec
		}
	}
	return BuildSnapshot(to, s.Manifest.Epoch, s.Manifest.Flow, records)
}

// fillTargetBlock writes target chip (tr, tc)'s block of tensor t into
// t.Block from the source chips' decoded blocks: for every source block
// whose global region intersects the target's, each row of the intersection
// is copied straight across — region copies only, never a full-tensor
// materialisation. The intersections tile the target block, so every
// element is overwritten.
func fillTargetBlock(t NamedTensor, src []*RecordData, from, to Layout, tr, tc int) error {
	out := t.Block
	tbr, tbc := out.Rows, out.Cols // target block shape
	sbr, sbc := t.Rows/from.Rows, t.Cols/from.Cols
	r0, c0 := tr*tbr, tc*tbc // target block's global origin
	for sr := r0 / sbr; sr <= (r0+tbr-1)/sbr; sr++ {
		for sc := c0 / sbc; sc <= (c0+tbc-1)/sbc; sc++ {
			rec := src[sr*from.Cols+sc]
			nt := rec.Tensor(t.Name)
			if nt == nil {
				return fmt.Errorf("ckpt: reshard: record %d lacks tensor %q", rec.Rank, t.Name)
			}
			// Intersection of source block (sr, sc) with the target block,
			// in global coordinates.
			gr0, gr1 := max(r0, sr*sbr), min(r0+tbr, (sr+1)*sbr)
			gc0, gc1 := max(c0, sc*sbc), min(c0+tbc, (sc+1)*sbc)
			for gr := gr0; gr < gr1; gr++ {
				copy(out.Row(gr - r0)[gc0-c0:gc1-c0], nt.Block.Row(gr - sr*sbr)[gc0-sc*sbc:gc1-sc*sbc])
			}
		}
	}
	return nil
}
