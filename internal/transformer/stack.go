package transformer

import (
	"fmt"

	"meshslice/internal/mesh"
	"meshslice/internal/minitrain"
	"meshslice/internal/tensor"
	"meshslice/internal/topology"
)

// Stack is a depth-L transformer. It trains through minitrain.Train, the
// one distributed trainer, under any layout of data, pipeline and 2D
// tensor parallelism; on any mesh it matches the 1×1 mesh (the serial
// computation), which the tests pin.
type Stack struct {
	Config Config
	Blocks []Weights
}

// NewStack builds L blocks with deterministic weights.
// lint:allow unused ROADMAP item 13 owns the transformer training path
func NewStack(c Config, layers int, seed int64) Stack {
	s := Stack{Config: c}
	for l := 0; l < layers; l++ {
		s.Blocks = append(s.Blocks, NewWeights(c, seed+int64(l)*97))
	}
	return s
}

// Layers returns the stack's blocks as minitrain layers, each over its
// block's weights in Weights order (Wq, Wk, Wv, Wo, W1, W2).
// lint:allow unused ROADMAP item 13 owns the transformer training path
func (s Stack) Layers() []minitrain.Layer {
	ls := make([]minitrain.Layer, len(s.Blocks))
	for l, w := range s.Blocks {
		ls[l] = block{s.Config, w}
	}
	return ls
}

// block is one transformer block as a minitrain layer over the per-chip
// forward and backward; attention takes its local batch from the input rows.
type block struct {
	c Config
	w Weights
}

func (b block) Weights() []*tensor.Matrix { return b.w.list() }

func (b block) Check(t topology.Torus, rows, cols int) (int, error) {
	c := b.c
	if c.Seq <= 0 || rows%c.Seq != 0 || cols != c.Hidden() {
		return 0, fmt.Errorf("transformer: input is %dx%d, want whole %d-token sequences × %d", rows, cols, c.Seq, c.Hidden())
	}
	c.Batch = rows / c.Seq
	if err := c.Validate(t); err != nil {
		return 0, err
	}
	return cols, c.checkWeights(b.w)
}

func (b block) Forward(tp *mesh.Chip, w []*tensor.Matrix, x *tensor.Matrix) (*tensor.Matrix, any) {
	o := newChip(b.c, tp)
	cache := o.forward(x, weightsOf(w), attention)
	return cache.out, cache
}

func (b block) Backward(tp *mesh.Chip, w []*tensor.Matrix, cache any, dy *tensor.Matrix, wantDX bool) ([]*tensor.Matrix, *tensor.Matrix) {
	g, dx := newChip(b.c, tp).backward(cache.(*blockCache), weightsOf(w), dy, wantDX)
	return g.list(), dx
}
