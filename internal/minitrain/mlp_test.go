package minitrain

import (
	"fmt"
	"math/rand"

	"meshslice/internal/gemm"
	"meshslice/internal/mesh"
	"meshslice/internal/tensor"
	"meshslice/internal/topology"
)

// The two-layer MLP these tests and ExampleTrainDistributed train: a
// serial ground truth, and the same model run through Train as two dense
// layers.

// NewData generates a deterministic synthetic regression task.
func NewData(c Config, seed int64) Data {
	rng := rand.New(rand.NewSource(seed))
	return Data{
		X: tensor.Random(c.Batch, c.In, rng),
		T: tensor.Random(c.Batch, c.Out, rng),
	}
}

// Result carries the final weights and the per-step losses.
type Result struct {
	W1, W2 *tensor.Matrix
	Losses []float64
}

// TrainSerial runs `steps` SGD steps on one node — the ground truth.
func TrainSerial(c Config, data Data, steps int, seed int64) Result {
	w1, w2 := InitWeights(c, seed)
	res := Result{}
	scale := 2 / float64(c.Batch*c.Out)
	for s := 0; s < steps; s++ {
		// Forward.
		h := tensor.MatMul(data.X, w1)
		hAct := relu(h)
		y := tensor.MatMul(hAct, w2)

		// MSE loss and gradient.
		dy := y.Clone()
		for i := range dy.Data {
			dy.Data[i] -= data.T.Data[i]
		}
		res.Losses = append(res.Losses, sumSquares(dy)/float64(c.Batch*c.Out))
		dy.Scale(scale)

		// Backward: the serial counterparts of the Table 1 dataflows.
		dW2 := tensor.MatMulTN(hAct, dy)   // W' = Xᵀ·Y'   (RS)
		dH := tensor.MatMulNT(dy, w2)      // X' = Y'·Wᵀ   (LS)
		maskInto(dH, h)                    // ReLU backward
		dW1 := tensor.MatMulTN(data.X, dH) // W' = Xᵀ·Y'   (RS)

		dW1.Scale(c.LR)
		dW2.Scale(c.LR)
		subInto(w1, dW1)
		subInto(w2, dW2)
	}
	res.W1, res.W2 = w1, w2
	return res
}

// TrainDistributed runs TrainSerial's steps through Train, the MLP as two
// layers: dense + ReLU, then dense.
func TrainDistributed(c Config, t topology.Torus, p Parallelism, data Data, steps int, seed int64) (Result, error) {
	if err := c.Validate(t); err != nil {
		return Result{}, err
	}
	if err := checkShape("X", data.X, c.Batch, c.In); err != nil {
		return Result{}, err
	}
	w1, w2 := InitWeights(c, seed)
	ms := gemm.MeshSliceConfig{S: c.S, Block: c.Block, Pipelined: c.Pipelined}
	ws, losses, err := Train([]Layer{dense{w1, ms, true}, dense{w2, ms, false}}, t, p, data.X, data.T, steps, c.LR)
	if err != nil {
		return Result{}, err
	}
	return Result{W1: ws[0][0], W2: ws[1][0], Losses: losses}, nil
}

// dense is one fully connected layer, x·W, with an optional ReLU after it:
// forward OS, backward-weight RS and backward-data LS, with no transposes
// and no resharding (Table 1). Its cache is {x, the pre-activation}.
type dense struct {
	w    *tensor.Matrix
	ms   gemm.MeshSliceConfig
	relu bool
}

func (d dense) Weights() []*tensor.Matrix { return []*tensor.Matrix{d.w} }

func (d dense) Check(t topology.Torus, rows, cols int) (int, error) {
	if cols != d.w.Rows {
		return 0, fmt.Errorf("minitrain: %d input columns for a %dx%d layer", cols, d.w.Rows, d.w.Cols)
	}
	return d.w.Cols, d.ms.ValidateLayer(t, rows, d.w.Rows, d.w.Cols)
}

func (d dense) Forward(tp *mesh.Chip, w []*tensor.Matrix, x *tensor.Matrix) (*tensor.Matrix, any) {
	h := gemm.MeshSlice(gemm.OS, d.ms)(tp, x, w[0])
	if !d.relu {
		return h, [2]*tensor.Matrix{x}
	}
	return relu(h), [2]*tensor.Matrix{x, h}
}

func (d dense) Backward(tp *mesh.Chip, w []*tensor.Matrix, cache any, dy *tensor.Matrix, wantDX bool) ([]*tensor.Matrix, *tensor.Matrix) {
	c := cache.([2]*tensor.Matrix)
	if d.relu {
		maskInto(dy, c[1])
	}
	g := []*tensor.Matrix{gemm.MeshSlice(gemm.RS, d.ms)(tp, c[0], dy)}
	if !wantDX {
		return g, nil
	}
	return g, gemm.MeshSlice(gemm.LS, d.ms)(tp, dy, w[0])
}

// Validate reports whether the configuration can shard onto the torus.
func (c Config) Validate(t topology.Torus) error {
	if c.Batch <= 0 || c.In <= 0 || c.Hidden <= 0 || c.Out <= 0 {
		return fmt.Errorf("minitrain: degenerate dims %+v", c)
	}
	if c.LR <= 0 {
		return fmt.Errorf("minitrain: learning rate %v", c.LR)
	}
	// The six GeMMs of one training step: each layer's Table 1 Y-stn row.
	ms := gemm.MeshSliceConfig{S: c.S, Block: c.Block, Pipelined: c.Pipelined}
	if err := ms.ValidateLayer(t, c.Batch, c.In, c.Hidden); err != nil {
		return err
	}
	return ms.ValidateLayer(t, c.Batch, c.Hidden, c.Out)
}
