// Package minitrain is the functional trainer: Train runs SGD on any stack
// of layers end to end on the mesh runtime with MeshSlice 2D tensor
// parallelism, under any layout of data and pipeline parallelism around
// it — the integration proof that the paper's Table 1 dataflow composition
// works: forward as OS, backward-data as LS, backward-weight as RS, with
// every tensor in its Table 1 sharding, so no resharding or transposition
// is ever needed. The two-layer MLP its tests train through Train matches
// a serial reference up to floating-point association on every layout.
package minitrain

import (
	"fmt"
	"math"
	"math/rand"

	"meshslice/internal/collective"
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

// Data is a fixed training batch.
type Data struct {
	X, T *tensor.Matrix
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

// Parallelism lays a Train run out on the cluster of paper §2.1: DP
// data-parallel replicas, each a PP-stage pipeline whose stages own
// contiguous runs of layers, each stage a Pr×Pc MeshSlice 2D-TP mesh. Every
// replica runs its share of the batch as Micro microbatches and accumulates
// their gradients. A zero field means 1, so the zero value is plain 2D TP.
type Parallelism struct {
	DP, PP, Micro int
}

// Layer is one layer of a model as Train runs it on every chip of a 2D-TP
// mesh: activations, gradients and the weights w are the chip's Table 1
// shards of the global Weights. Check reports whether the layer runs on t
// for a global input of rows×cols and returns its output's width. Forward
// returns the output, which the caller may overwrite, and a cache for
// Backward, which may overwrite dy and returns the weight gradients and,
// when wantDX is set, the input gradient.
type Layer interface {
	Weights() []*tensor.Matrix
	Check(t topology.Torus, rows, cols int) (int, error)
	Forward(tp *mesh.Chip, w []*tensor.Matrix, x *tensor.Matrix) (*tensor.Matrix, any)
	Backward(tp *mesh.Chip, w []*tensor.Matrix, cache any, dy *tensor.Matrix, wantDX bool) ([]*tensor.Matrix, *tensor.Matrix)
}

// Train runs steps of SGD at rate lr on the layers against the mean squared
// error of their output to target, SPMD over DP × PP × Pr×Pc chips; every
// tensor keeps its Table 1 sharding for the entire run. The loss gradient
// keeps the global batch scale, microbatch gradients accumulate, and a ring
// AllReduce over the replicas sums them before each update, so every layout
// trains exactly full-batch SGD. It returns each layer's final weights,
// assembled, and the per-step losses.
// lint:allow unused ROADMAP items 13 and 14 own the one functional trainer
func Train(layers []Layer, t topology.Torus, p Parallelism, x, target *tensor.Matrix, steps int, lr float64) ([][]*tensor.Matrix, []float64, error) {
	if p.DP < 0 || p.PP < 0 || p.Micro < 0 || max(p.PP, 1) > len(layers) {
		return nil, nil, fmt.Errorf("minitrain: parallelism %+v: fields must be non-negative and PP at most %d (one layer per stage)", p, len(layers))
	}
	p.DP, p.PP, p.Micro = max(p.DP, 1), max(p.PP, 1), max(p.Micro, 1)
	if steps < 0 {
		return nil, nil, fmt.Errorf("minitrain: %d steps", steps)
	}
	if x == nil {
		return nil, nil, fmt.Errorf("minitrain: data X is nil")
	}
	if x.Rows%(p.DP*p.Micro) != 0 {
		return nil, nil, fmt.Errorf("minitrain: batch %d does not split into %d replicas × %d microbatches", x.Rows, p.DP, p.Micro)
	}
	cols := x.Cols // each microbatch must still shard onto the TP mesh
	for _, l := range layers {
		var err error
		if cols, err = l.Check(t, x.Rows/p.DP/p.Micro, cols); err != nil {
			return nil, nil, err
		}
	}
	if err := checkShape("T", target, x.Rows, cols); err != nil {
		return nil, nil, err
	}

	tpSize := t.Size()
	rank := func(replica, stage, shard int) int {
		return (replica*p.PP+stage)*tpSize + shard
	}
	shards := make([][][]*tensor.Matrix, len(layers)) // [layer][weight][shard]
	for l, layer := range layers {
		for _, w := range layer.Weights() {
			shards[l] = append(shards[l], tensor.Partition(w, t.Rows, t.Cols))
		}
	}
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
	xs, ts := split(x), split(target)
	scale := 2 / float64(target.Rows*target.Cols)

	m := mesh.New(topology.NewTorus(1, p.DP*p.PP*tpSize))
	losses := make([]float64, steps)
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
		prev, next := rank(replica, stage-1, shard), rank(replica, stage+1, shard)

		// The stage's layers, [lo, hi). Replica 0 trains in place the shards
		// Train assembles: it first writes them after the first DP
		// AllReduce, which no replica enters before copying them.
		lo, hi := stage*len(layers)/p.PP, (stage+1)*len(layers)/p.PP
		w, grad, caches := make([][]*tensor.Matrix, hi), make([][]*tensor.Matrix, hi), make([]any, hi)
		for l := lo; l < hi; l++ {
			for _, ws := range shards[l] {
				wl := ws[shard]
				if replica > 0 {
					wl = wl.Clone()
				}
				w[l] = append(w[l], wl)
			}
		}
		for s := range losses {
			lossSum := 0.0
			for u := 0; u < p.Micro; u++ {
				a := xs[replica][u][shard] // the activation crosses each stage boundary
				if stage > 0 {
					a = ch.Recv(prev)
				}
				for l := lo; l < hi; l++ {
					a, caches[l] = layers[l].Forward(tp, w[l], a)
				}
				if stage == p.PP-1 { // the local loss gradient
					subInto(a, ts[replica][u][shard])
					lossSum += sumSquares(a)
					a.Scale(scale)
				} else {
					ch.Send(next, a)
					a = ch.Recv(next)
				}
				for l := hi - 1; l >= lo; l-- { // the first layer needs no dX
					var g []*tensor.Matrix
					if g, a = layers[l].Backward(tp, w[l], caches[l], a, l > 0); u == 0 {
						grad[l] = g
						continue
					}
					for i := range g {
						grad[l][i].Add(g[i])
					}
				}
				if stage > 0 {
					ch.Send(prev, a)
				}
			}
			if stage == p.PP-1 {
				// The scalar loss is all-reduced over the mesh rows,
				// columns and replicas for reporting.
				sum := collective.AllReduce(tp.RowComm(), tensor.FromSlice(1, 1, []float64{lossSum}))
				sum = collective.AllReduce(tp.ColComm(), sum)
				sum = collective.AllReduce(depthComm, sum)
				if replica == 0 && shard == 0 {
					losses[s] = sum.At(0, 0) / float64(target.Rows*target.Cols)
				}
			}
			// DP gradient synchronisation, then the SGD update.
			for l := lo; l < hi; l++ {
				for i, g := range grad[l] {
					g = collective.AllReduce(depthComm, g)
					g.Scale(lr)
					subInto(w[l][i], g)
				}
			}
		}
	})
	out := make([][]*tensor.Matrix, len(layers))
	for l := range shards {
		for _, parts := range shards[l] {
			out[l] = append(out[l], tensor.Assemble(parts, t.Rows, t.Cols))
		}
	}
	return out, losses, nil
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
