// Package minitrain trains a small multi-layer perceptron end to end on
// the functional mesh runtime using MeshSlice 2D tensor parallelism — the
// integration proof that the paper's Table 1 dataflow composition works:
// every training step runs the forward pass as an OS GeMM, backward-data
// as LS, and backward-weight as RS, with every tensor staying in its
// Table 1 sharding so no resharding or transposition is ever needed, and
// the distributed weights match a serial reference bit-for-bit (up to
// floating-point association).
package minitrain

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"meshslice/internal/collective"
	"meshslice/internal/gemm"
	"meshslice/internal/mesh"
	"meshslice/internal/tensor"
	"meshslice/internal/topology"
)

// Config describes the two-layer MLP regression task: predict Target from
// Input through Hidden with a ReLU, minimising mean squared error.
type Config struct {
	Batch  int
	In     int
	Hidden int
	Out    int
	// LR is the SGD learning rate.
	LR float64
	// S and Block parameterise the MeshSlice GeMMs of the distributed run.
	S     int
	Block int
	// Pipelined runs every MeshSlice GeMM of the step at prefetch depth 1
	// (gemm.MeshSliceConfig.Pipelined). Training results are bit-identical
	// either way (depth only changes when messages move), so this is
	// purely a wall-clock knob — the elastic trainer keeps it across
	// retune-resume cycles.
	Pipelined bool
}

// Validate reports whether the configuration can shard onto the torus.
func (c Config) Validate(t topology.Torus) error {
	if c.Batch <= 0 || c.In <= 0 || c.Hidden <= 0 || c.Out <= 0 {
		return fmt.Errorf("minitrain: degenerate dims %+v", c)
	}
	if c.LR <= 0 {
		return fmt.Errorf("minitrain: learning rate %v", c.LR)
	}
	for _, pass := range c.problems() {
		cfg := gemm.MeshSliceConfig{S: c.S, Block: c.Block, Pipelined: c.Pipelined}
		if err := cfg.Validate(pass, t); err != nil {
			return err
		}
		aR, aC, bR, bC := pass.OperandShapes()
		for _, d := range [][2]int{{aR, t.Rows}, {aC, t.Cols}, {bR, t.Rows}, {bC, t.Cols}, {pass.M, t.Rows}, {pass.N, t.Cols}} {
			if d[0]%d[1] != 0 {
				return fmt.Errorf("minitrain: dim %d not divisible by mesh %v", d[0], t)
			}
		}
	}
	return nil
}

// problems enumerates the six GeMMs of one training step (three per
// layer), all in their Table 1 Y-stn dataflows.
func (c Config) problems() []gemm.Problem {
	var out []gemm.Problem
	for _, l := range [][2]int{{c.In, c.Hidden}, {c.Hidden, c.Out}} {
		out = append(out,
			gemm.Problem{M: c.Batch, N: l[1], K: l[0], Dataflow: gemm.OS}, // forward
			gemm.Problem{M: c.Batch, N: l[0], K: l[1], Dataflow: gemm.LS}, // backward data
			gemm.Problem{M: l[0], N: l[1], K: c.Batch, Dataflow: gemm.RS}, // backward weight
		)
	}
	return out
}

// Data is a fixed training batch.
type Data struct {
	X, T *tensor.Matrix
}

// NewData generates a deterministic synthetic regression task.
func NewData(c Config, seed int64) Data {
	rng := rand.New(rand.NewSource(seed))
	return Data{
		X: tensor.Random(c.Batch, c.In, rng),
		T: tensor.Random(c.Batch, c.Out, rng),
	}
}

// InitWeights draws the initial parameters deterministically.
func InitWeights(c Config, seed int64) (w1, w2 *tensor.Matrix) {
	rng := rand.New(rand.NewSource(seed + 1))
	w1 = tensor.Random(c.In, c.Hidden, rng)
	w2 = tensor.Random(c.Hidden, c.Out, rng)
	w1.Scale(1 / math.Sqrt(float64(c.In)))
	w2.Scale(1 / math.Sqrt(float64(c.Hidden)))
	return w1, w2
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

// TrainDistributed runs the same steps SPMD over a Pr×Pc mesh with
// MeshSlice GeMMs; every tensor lives in its Table 1 sharding (rows over
// mesh rows, columns over mesh columns) for the entire run.
func TrainDistributed(c Config, t topology.Torus, data Data, steps int, seed int64) (Result, error) {
	if err := c.Validate(t); err != nil {
		return Result{}, err
	}
	w1g, w2g := InitWeights(c, seed)
	xs := tensor.Partition(data.X, t.Rows, t.Cols)
	ts := tensor.Partition(data.T, t.Rows, t.Cols)
	w1s := tensor.Partition(w1g, t.Rows, t.Cols)
	w2s := tensor.Partition(w2g, t.Rows, t.Cols)

	cfg := gemm.MeshSliceConfig{S: c.S, Block: c.Block, Pipelined: c.Pipelined}
	fwd := gemm.MeshSlice(gemm.OS, cfg)
	bwdData := gemm.MeshSlice(gemm.LS, cfg)
	bwdWeight := gemm.MeshSlice(gemm.RS, cfg)
	scale := 2 / float64(c.Batch*c.Out)

	m := mesh.New(t)
	var mu sync.Mutex
	losses := make([]float64, steps)
	m.Run(func(ch *mesh.Chip) {
		x := xs[ch.Rank]
		tt := ts[ch.Rank]
		w1 := w1s[ch.Rank].Clone()
		w2 := w2s[ch.Rank].Clone()
		for s := 0; s < steps; s++ {
			// Forward: two OS GeMMs with a local ReLU between.
			h := fwd(ch, x, w1)
			hAct := relu(h)
			y := fwd(ch, hAct, w2)

			// Local loss gradient; the scalar loss is all-reduced over
			// both mesh directions for reporting.
			dy := y.Clone()
			for i := range dy.Data {
				dy.Data[i] -= tt.Data[i]
			}
			local := tensor.FromSlice(1, 1, []float64{sumSquares(dy)})
			rowSum := collective.AllReduce(ch.RowComm(), local)
			total := collective.AllReduce(ch.ColComm(), rowSum)
			if ch.Rank == 0 {
				mu.Lock()
				losses[s] = total.At(0, 0) / float64(c.Batch*c.Out)
				mu.Unlock()
			}
			dy.Scale(scale)

			// Backward: LS for activation gradients, RS for weight
			// gradients — no transposes, no resharding (Table 1).
			dW2 := bwdWeight(ch, hAct, dy)
			dH := bwdData(ch, dy, w2)
			maskInto(dH, h)
			dW1 := bwdWeight(ch, x, dH)

			dW1.Scale(c.LR)
			dW2.Scale(c.LR)
			subInto(w1, dW1)
			subInto(w2, dW2)
		}
		mu.Lock()
		w1s[ch.Rank] = w1
		w2s[ch.Rank] = w2
		mu.Unlock()
	})
	return Result{
		W1:     tensor.Assemble(w1s, t.Rows, t.Cols),
		W2:     tensor.Assemble(w2s, t.Rows, t.Cols),
		Losses: losses,
	}, nil
}

func relu(m *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(m.Rows, m.Cols)
	reluInto(out, m)
	return out
}

// reluInto writes max(v, 0) of every element of m into dst (same shape);
// only negative values change, so -0 and NaN pass through.
func reluInto(dst, m *tensor.Matrix) {
	for i, v := range m.Data {
		if v < 0 {
			v = 0
		}
		dst.Data[i] = v
	}
}

// maskInto zeroes grad where pre-activation was non-positive.
func maskInto(grad, pre *tensor.Matrix) {
	for i, v := range pre.Data {
		if v <= 0 {
			grad.Data[i] = 0
		}
	}
}

func subInto(dst, delta *tensor.Matrix) {
	for i, v := range delta.Data {
		dst.Data[i] -= v
	}
}

func sumSquares(m *tensor.Matrix) float64 {
	var t float64
	for _, v := range m.Data {
		t += v * v
	}
	return t
}
