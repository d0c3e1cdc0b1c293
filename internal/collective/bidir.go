package collective

import (
	"meshslice/internal/mesh"
	"meshslice/internal/obs/recorder"
	"meshslice/internal/tensor"
)

// Bidirectional ring collectives. TPU ICI links are bi-directional; the
// paper notes (§5.3.1) that current Google Cloud 4×4 slices only drive the
// uni-directional bandwidth, which halves what the collectives could
// achieve. These variants use both directions of the ring at once: two
// counter-rotating streams cover the ring in ⌈(P-1)/2⌉ steps instead of
// P-1, at the same per-link bandwidth.

// AllGatherBidir gathers all P shards in ⌈(P-1)/2⌉ steps: a clockwise
// stream delivers the ⌈(P-1)/2⌉ upstream shards while a counter-clockwise
// stream delivers the ⌊(P-1)/2⌋ downstream shards. The result is ordered by
// ring position, exactly like AllGather.
func AllGatherBidir(cm *mesh.Comm, local *tensor.Matrix) []*tensor.Matrix {
	cm.SpanStart(recorder.OpAllGatherBidir, -1)
	defer cm.SpanEnd(recorder.OpAllGatherBidir)
	p := cm.Size
	out := make([]*tensor.Matrix, p)
	out[cm.Pos] = local.Clone()
	cwSteps := (p - 1 + 1) / 2 // shards arriving from upstream
	ccwSteps := (p - 1) / 2    // shards arriving from downstream
	cw, ccw := local, local
	for t := 1; t <= cwSteps || t <= ccwSteps; t++ {
		if t <= cwSteps {
			cm.SendTo(cm.Pos+1, cw)
		}
		if t <= ccwSteps {
			cm.SendTo(cm.Pos-1, ccw)
		}
		if t <= cwSteps {
			cw = cm.RecvFrom(cm.Pos - 1)
			out[mod(cm.Pos-t, p)] = cw
		}
		if t <= ccwSteps {
			ccw = cm.RecvFrom(cm.Pos + 1)
			out[mod(cm.Pos+t, p)] = ccw
		}
	}
	return out
}

// ReduceScatterBidir is the bidirectional counterpart of ReduceScatter:
// the block destined for position d accumulates along two half-rings that
// meet at chip d, halving the step count. blocks must hold one block per
// ring position.
func ReduceScatterBidir(cm *mesh.Comm, blocks []*tensor.Matrix) *tensor.Matrix {
	if err := checkBlocks("reducescatter-bidir", blocks, cm.Size); err != nil {
		panic(err) // lint:invariant block-count precondition; ReduceScatterBidirE returns it as a value
	}
	return reduceScatterBidir(cm, blocks)
}

func reduceScatterBidir(cm *mesh.Comm, blocks []*tensor.Matrix) *tensor.Matrix {
	cm.SpanStart(recorder.OpReduceScatterBidir, -1)
	defer cm.SpanEnd(recorder.OpReduceScatterBidir)
	p := cm.Size
	if p == 1 {
		return blocks[0].Clone()
	}
	a := (p - 1 + 1) / 2 // upstream contributors, travelling clockwise
	b := (p - 1) / 2     // downstream contributors, counter-clockwise

	// Clockwise stream: chip pos launches the partial for chunk pos+a;
	// every hop the receiver adds its own contribution; chunk pos arrives
	// after a hops carrying chips pos-a..pos.
	cw := blocks[mod(cm.Pos+a, p)].Clone()
	for t := 1; t <= a; t++ {
		cm.SendTo(cm.Pos+1, cw)
		cw = cm.RecvFrom(cm.Pos - 1)
		cw.Add(blocks[mod(cm.Pos+a-t, p)])
	}

	// Counter-clockwise stream: chip pos launches the partial for chunk
	// pos-b; intermediate hops add their contribution, the destination
	// does not (its own block is already in the clockwise sum).
	if b > 0 {
		ccw := blocks[mod(cm.Pos-b, p)].Clone()
		for t := 1; t <= b; t++ {
			cm.SendTo(cm.Pos-1, ccw)
			ccw = cm.RecvFrom(cm.Pos + 1)
			if t < b {
				ccw.Add(blocks[mod(cm.Pos-b+t, p)])
			}
		}
		cw.Add(ccw)
	}
	return cw
}

// AllGatherRowsBidir gathers with both ring directions and concatenates
// vertically in ring order.
func AllGatherRowsBidir(cm *mesh.Comm, local *tensor.Matrix) *tensor.Matrix {
	return tensor.ConcatRows(AllGatherBidir(cm, local))
}

// ReduceScatterColsBidir reduces a matrix split into vertical strips using
// both ring directions.
func ReduceScatterColsBidir(cm *mesh.Comm, m *tensor.Matrix) *tensor.Matrix {
	return ReduceScatterBidir(cm, tensor.SplitCols(m, cm.Size))
}
