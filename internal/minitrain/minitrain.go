// Package minitrain trains a small multi-layer perceptron end to end on
// the functional mesh runtime using MeshSlice 2D tensor parallelism — the
// integration proof that the paper's Table 1 dataflow composition works:
// every training step runs the forward pass as an OS GeMM, backward-data
// as LS, and backward-weight as RS, with every tensor staying in its
// Table 1 sharding so no resharding or transposition is ever needed, and
// the distributed weights match a serial reference bit-for-bit (up to
// floating-point association) on every layout of data, pipeline and tensor
// parallelism.
package minitrain

import (
	"fmt"
	"math"
	"math/rand"

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
	// The six GeMMs of one training step: each layer's Table 1 Y-stn row.
	cfg := gemm.MeshSliceConfig{S: c.S, Block: c.Block, Pipelined: c.Pipelined}
	for _, l := range [2][2]int{{c.In, c.Hidden}, {c.Hidden, c.Out}} {
		for _, pass := range gemm.YStn.Passes(c.Batch, l[0], l[1]) {
			if err := cfg.Validate(pass, t); err != nil {
				return err
			}
			if d, ok := pass.Shardable(t); !ok {
				return fmt.Errorf("minitrain: dim %d not divisible by mesh %v", d, t)
			}
		}
	}
	return nil
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

// Parallelism lays a TrainDistributed run out on the cluster of paper §2.1:
// DP data-parallel replicas, each a PP-stage pipeline with one MLP layer per
// stage, each stage a Pr×Pc MeshSlice 2D-TP mesh. Every replica runs its
// share of the batch as Micro microbatches and accumulates their gradients.
// A zero field means 1, so the zero value is plain 2D TP.
type Parallelism struct {
	DP, PP, Micro int
}

// TrainDistributed runs the same steps SPMD over DP × PP × Pr×Pc chips with
// MeshSlice GeMMs; every tensor lives in its Table 1 sharding (rows over mesh
// rows, columns over mesh columns) for the entire run. The loss gradient
// keeps the global batch scale, microbatch gradients accumulate, and a ring
// AllReduce over the replicas sums them before each SGD update, so every
// layout trains exactly full-batch SGD: the weights match TrainSerial up to
// floating-point association.
func TrainDistributed(c Config, t topology.Torus, p Parallelism, data Data, steps int, seed int64) (Result, error) {
	if p.DP < 0 || p.PP < 0 || p.Micro < 0 || p.PP > 2 {
		return Result{}, fmt.Errorf("minitrain: parallelism %+v: fields must be non-negative and PP at most 2 (one layer per stage)", p)
	}
	p.DP, p.PP, p.Micro = max(p.DP, 1), max(p.PP, 1), max(p.Micro, 1)
	if steps < 0 {
		return Result{}, fmt.Errorf("minitrain: %d steps", steps)
	}
	if c.Batch%(p.DP*p.Micro) != 0 {
		return Result{}, fmt.Errorf("minitrain: batch %d does not split into %d replicas × %d microbatches", c.Batch, p.DP, p.Micro)
	}
	mb := c // per-microbatch shapes must still shard onto the TP mesh
	mb.Batch = c.Batch / p.DP / p.Micro
	if err := mb.Validate(t); err != nil {
		return Result{}, err
	}
	if err := checkShape("X", data.X, c.Batch, c.In); err != nil {
		return Result{}, err
	}
	if err := checkShape("T", data.T, c.Batch, c.Out); err != nil {
		return Result{}, err
	}

	tpSize := t.Size()
	rank := func(replica, stage, shard int) int {
		return (replica*p.PP+stage)*tpSize + shard
	}
	w1g, w2g := InitWeights(c, seed)
	wShards := [2][]*tensor.Matrix{tensor.Partition(w1g, t.Rows, t.Cols), tensor.Partition(w2g, t.Rows, t.Cols)}
	// Batch → replicas → microbatches → 2D shards: [replica][micro][shard].
	split := func(m *tensor.Matrix) [][][]*tensor.Matrix {
		out := make([][][]*tensor.Matrix, p.DP)
		for r, chunk := range tensor.SplitRows(m, p.DP) {
			for _, u := range tensor.SplitRows(chunk, p.Micro) {
				out[r] = append(out[r], tensor.Partition(u, t.Rows, t.Cols))
			}
		}
		return out
	}
	xs, ts := split(data.X), split(data.T)

	cfg := gemm.MeshSliceConfig{S: c.S, Block: c.Block, Pipelined: c.Pipelined}
	fwd := gemm.MeshSlice(gemm.OS, cfg)
	bwdData := gemm.MeshSlice(gemm.LS, cfg)
	bwdWeight := gemm.MeshSlice(gemm.RS, cfg)
	scale := 2 / float64(c.Batch*c.Out)

	m := mesh.New(topology.NewTorus(1, p.DP*p.PP*tpSize))
	losses := make([]float64, steps)
	final := [2][]*tensor.Matrix{make([]*tensor.Matrix, tpSize), make([]*tensor.Matrix, tpSize)}
	m.Run(func(ch *mesh.Chip) {
		shard := ch.Rank % tpSize
		stage := ch.Rank / tpSize % p.PP
		replica := ch.Rank / tpSize / p.PP
		var row, col, depth []int
		for j := 0; j < t.Cols; j++ {
			row = append(row, rank(replica, stage, shard/t.Cols*t.Cols+j))
		}
		for i := 0; i < t.Rows; i++ {
			col = append(col, rank(replica, stage, i*t.Cols+shard%t.Cols))
		}
		for r := 0; r < p.DP; r++ {
			depth = append(depth, rank(r, stage, shard))
		}
		tp := ch.WithRings(row, col)
		depthComm := ch.CustomComm(depth, topology.InterDepth)
		peer := rank(replica, 1-stage, shard) // the other stage when PP = 2

		// The layers this chip owns: both when PP = 1, else its stage's.
		lo, hi := stage, stage+2-p.PP
		var w, grad [2]*tensor.Matrix
		for l := lo; l <= hi; l++ {
			w[l] = wShards[l][shard].Clone()
		}
		for s := 0; s < steps; s++ {
			for l := lo; l <= hi; l++ {
				grad[l] = tensor.New(w[l].Rows, w[l].Cols)
			}
			lossSum := 0.0
			for u := 0; u < p.Micro; u++ {
				// Layer 1 forward: an OS GeMM and a local ReLU. The
				// activation crosses the stage boundary when PP = 2.
				var x, h, hAct, dH *tensor.Matrix
				if lo == 0 {
					x = xs[replica][u][shard]
					h = fwd(tp, x, w[0])
					hAct = relu(h)
					if hi == 0 {
						ch.Send(peer, hAct)
					}
				} else {
					hAct = ch.Recv(peer)
				}
				// Layer 2: OS forward, the local loss gradient, then RS
				// for the weight gradient and LS for the activation
				// gradient — no transposes, no resharding (Table 1).
				if hi == 1 {
					dy := fwd(tp, hAct, w[1])
					subInto(dy, ts[replica][u][shard])
					lossSum += sumSquares(dy)
					dy.Scale(scale)
					grad[1].Add(bwdWeight(tp, hAct, dy))
					dH = bwdData(tp, dy, w[1])
					if lo == 1 {
						ch.Send(peer, dH)
					}
				} else {
					dH = ch.Recv(peer)
				}
				if lo == 0 {
					maskInto(dH, h)
					grad[0].Add(bwdWeight(tp, x, dH))
				}
			}
			if hi == 1 {
				// The scalar loss is all-reduced over the mesh rows,
				// columns and replicas for reporting.
				sum := collective.AllReduce(tp.RowComm(), tensor.FromSlice(1, 1, []float64{lossSum}))
				sum = collective.AllReduce(tp.ColComm(), sum)
				sum = collective.AllReduce(depthComm, sum)
				if replica == 0 && shard == 0 {
					losses[s] = sum.At(0, 0) / float64(c.Batch*c.Out)
				}
			}
			// DP gradient synchronisation, then the SGD update.
			for l := lo; l <= hi; l++ {
				g := collective.AllReduce(depthComm, grad[l])
				g.Scale(c.LR)
				subInto(w[l], g)
			}
		}
		if replica == 0 {
			for l := lo; l <= hi; l++ {
				final[l][shard] = w[l]
			}
		}
	})
	return Result{
		W1:     tensor.Assemble(final[0], t.Rows, t.Cols),
		W2:     tensor.Assemble(final[1], t.Rows, t.Cols),
		Losses: losses,
	}, nil
}

// checkShape reports whether the training tensor m is rows×cols.
func checkShape(name string, m *tensor.Matrix, rows, cols int) error {
	if m == nil {
		return fmt.Errorf("minitrain: data %s is nil, want %dx%d", name, rows, cols)
	}
	if m.Rows != rows || m.Cols != cols {
		return fmt.Errorf("minitrain: data %s is %dx%d, want %dx%d", name, m.Rows, m.Cols, rows, cols)
	}
	return nil
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
