package transformer

import (
	"fmt"

	"meshslice/internal/collective"
	"meshslice/internal/mesh"
	"meshslice/internal/tensor"
	"meshslice/internal/topology"
)

// A stack of transformer blocks trained end to end on the mesh: the
// multi-layer generalisation of the single-block machinery, with
// activations flowing forward through every block and gradients chaining
// backward — each block's GeMMs in their Table 1 dataflows, each block's
// attention chip-local. Training on any mesh shape matches the 1×1 mesh
// (the serial computation) exactly, which the tests pin.

// Stack is a depth-L transformer.
type Stack struct {
	Config Config
	Blocks []Weights
}

// NewStack builds L blocks with deterministic weights.
func NewStack(c Config, layers int, seed int64) Stack {
	s := Stack{Config: c}
	for l := 0; l < layers; l++ {
		s.Blocks = append(s.Blocks, NewWeights(c, seed+int64(l)*97))
	}
	return s
}

// TrainResult carries the per-step losses of a training run and the final
// stack (weights assembled back to global form).
type TrainResult struct {
	Losses []float64
	Stack  Stack
}

// TrainStack runs `steps` of full-batch SGD on the stack against an MSE
// regression target, distributed over the torus. Every step runs the
// forward pass through all blocks, the backward chain in reverse, and the
// SGD update, entirely on-mesh; only the scalar loss leaves the chips.
func TrainStack(s Stack, t topology.Torus, x, target *tensor.Matrix, steps int, lr float64) (TrainResult, error) {
	c := s.Config
	if err := c.check(t, x, c.Tokens(), s.Blocks...); err != nil {
		return TrainResult{}, err
	}
	if err := checkShape("target", target, c.Tokens(), c.Hidden()); err != nil {
		return TrainResult{}, err
	}
	if steps < 0 {
		return TrainResult{}, fmt.Errorf("transformer: %d training steps", steps)
	}
	xs, ts := tensor.Partition(x, t.Rows, t.Cols), tensor.Partition(target, t.Rows, t.Cols)
	shards := make([][]Weights, len(s.Blocks)) // [layer][rank]; each chip trains its own in place
	for l, w := range s.Blocks {
		shards[l] = w.partition(t)
	}

	losses := make([]float64, steps)
	run(t, func(ch *mesh.Chip) {
		o := newChip(c, t, ch)
		tl := ts[ch.Rank]
		scale := 2 / float64(c.Tokens()*c.Hidden())
		caches := make([]*blockCache, len(shards))
		for step := range losses {
			// Forward through the stack, caching per block.
			cur := xs[ch.Rank]
			for l := range shards {
				caches[l] = o.forward(cur, shards[l][ch.Rank], o.attend)
				cur = caches[l].out
			}
			// MSE loss gradient on the final output.
			dOut := cur.Clone()
			for i := range dOut.Data {
				dOut.Data[i] -= tl.Data[i]
			}
			lossLocal := sumSq(dOut)
			dOut.Scale(scale)

			// Backward chain with immediate SGD updates (full-batch, so
			// updating after each block's backward is equivalent to
			// updating at the end).
			for l := len(shards) - 1; l >= 0; l-- {
				g, dx := o.backward(caches[l], shards[l][ch.Rank], dOut)
				shards[l][ch.Rank].sgd(g, lr)
				dOut = dx
			}

			// Scalar loss, reduced over the mesh for reporting.
			sum := allReduceScalar(ch, tensor.FromSlice(1, 1, []float64{lossLocal}))
			if ch.Rank == 0 {
				losses[step] = sum / float64(c.Tokens()*c.Hidden())
			}
		}
	})

	out := Stack{Config: c}
	for _, sh := range shards {
		out.Blocks = append(out.Blocks, assemble(sh, t))
	}
	return TrainResult{Losses: losses, Stack: out}, nil
}

// allReduceScalar sums a 1×1 matrix over both mesh directions.
func allReduceScalar(ch *mesh.Chip, m *tensor.Matrix) float64 {
	rowSum := collective.AllReduce(ch.RowComm(), m)
	total := collective.AllReduce(ch.ColComm(), rowSum)
	return total.At(0, 0)
}

func sumSq(m *tensor.Matrix) float64 {
	var t float64
	for _, v := range m.Data {
		t += v * v
	}
	return t
}
