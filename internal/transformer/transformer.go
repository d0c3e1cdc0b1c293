// Package transformer implements a full transformer block forward pass on
// the functional mesh with the paper's §3.2.1 sharding: the batch
// dimension sharded across mesh rows and the attention-head dimension
// across mesh columns. Under that sharding the FC layers are the ONLY
// operations with meaningful communication (MeshSlice 2D GeMMs); the
// attention scores, softmax, and context products are per-(sequence, head)
// and therefore fully chip-local — the property the paper leans on when it
// simulates only the FC layers ("the other layers … are executed
// independently in each TPU chip", §4.4). The traffic counters of the mesh
// runtime let the tests verify that claim by measurement, not assumption.
package transformer

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

func newRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Config describes one transformer block.
type Config struct {
	// Batch is the number of sequences.
	Batch int
	// Seq is the sequence length.
	Seq int
	// Heads is the attention-head count.
	Heads int
	// HeadDim is the per-head hidden dimension; Hidden = Heads·HeadDim.
	HeadDim int
	// FFHidden is the feed-forward inner dimension.
	FFHidden int
	// S and Block parameterise the MeshSlice GeMMs.
	S     int
	Block int
}

// Hidden returns the model width Heads·HeadDim.
func (c Config) Hidden() int { return c.Heads * c.HeadDim }

// Tokens returns Batch·Seq.
func (c Config) Tokens() int { return c.Batch * c.Seq }

// Validate reports whether the block shards onto the torus with the
// §3.2.1 mapping: batch over rows (whole sequences stay on one row of
// chips) and heads over columns.
func (c Config) Validate(t topology.Torus) error {
	switch {
	case c.Batch <= 0 || c.Seq <= 0 || c.Heads <= 0 || c.HeadDim <= 0 || c.FFHidden <= 0:
		return fmt.Errorf("transformer: degenerate config %+v", c)
	case c.Batch%t.Rows != 0:
		return fmt.Errorf("transformer: batch %d must shard over %d mesh rows", c.Batch, t.Rows)
	case c.Heads%t.Cols != 0:
		return fmt.Errorf("transformer: %d heads must shard over %d mesh columns", c.Heads, t.Cols)
	case c.FFHidden%t.Cols != 0:
		return fmt.Errorf("transformer: FF hidden %d must shard over %d mesh columns", c.FFHidden, t.Cols)
	}
	// The nine GeMMs of a training step: the Table 1 Y-stn rows of the
	// QKV and output projections (one shape), FF1 and FF2.
	msCfg := gemm.MeshSliceConfig{S: c.S, Block: c.Block}
	tok, h, ff := c.Tokens(), c.Hidden(), c.FFHidden
	for _, l := range [3][2]int{{h, h}, {h, ff}, {ff, h}} {
		if err := msCfg.ValidateLayer(t, tok, l[0], l[1]); err != nil {
			return err
		}
	}
	return nil
}

// check reports whether the block runs on t with input x of rows×Hidden
// and every weight set ws of the block's shapes.
func (c Config) check(t topology.Torus, x *tensor.Matrix, rows int, ws ...Weights) error {
	if err := c.Validate(t); err != nil {
		return err
	}
	if err := checkShape("x", x, rows, c.Hidden()); err != nil {
		return err
	}
	return c.checkWeights(ws...)
}

// checkWeights reports whether every weight set ws has the block's shapes.
func (c Config) checkWeights(ws ...Weights) error {
	h, ff := c.Hidden(), c.FFHidden
	names := [6]string{"Wq", "Wk", "Wv", "Wo", "W1", "W2"}
	shapes := [6][2]int{{h, h}, {h, h}, {h, h}, {h, h}, {h, ff}, {ff, h}}
	for _, w := range ws {
		for i, m := range w.list() {
			if err := checkShape(names[i], m, shapes[i][0], shapes[i][1]); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkShape reports a missing matrix or one that is not rows×cols.
func checkShape(name string, m *tensor.Matrix, rows, cols int) error {
	if m == nil {
		return fmt.Errorf("transformer: %s is missing, want %dx%d", name, rows, cols)
	}
	if m.Rows != rows || m.Cols != cols {
		return fmt.Errorf("transformer: %s is %dx%d, want %dx%d", name, m.Rows, m.Cols, rows, cols)
	}
	return nil
}

// Weights holds the block's six matrices (no biases; pre-norm architecture
// without the norms' scale/shift for brevity): its parameters, their
// gradients, or one chip's shards of either.
type Weights struct {
	Wq, Wk, Wv, Wo *tensor.Matrix // each Hidden×Hidden, head-grouped columns
	W1             *tensor.Matrix // Hidden×FFHidden
	W2             *tensor.Matrix // FFHidden×Hidden
}

// list returns the six matrices in the order Wq, Wk, Wv, Wo, W1, W2.
func (w Weights) list() []*tensor.Matrix {
	return []*tensor.Matrix{w.Wq, w.Wk, w.Wv, w.Wo, w.W1, w.W2}
}

// weightsOf is list's inverse.
func weightsOf(m []*tensor.Matrix) Weights { return Weights{m[0], m[1], m[2], m[3], m[4], m[5]} }

// fields lists pointers to the six matrices in list's order.
func (w *Weights) fields() [6]**tensor.Matrix {
	return [6]**tensor.Matrix{&w.Wq, &w.Wk, &w.Wv, &w.Wo, &w.W1, &w.W2}
}

// partition cuts every matrix into its 2D shards, one private copy per chip.
func (w Weights) partition(t topology.Torus) []Weights {
	out := make([]Weights, t.Size())
	for i, f := range w.fields() {
		for rank, shard := range tensor.Partition(*f, t.Rows, t.Cols) {
			*out[rank].fields()[i] = shard
		}
	}
	return out
}

// assemble is partition's inverse.
func assemble(shards []Weights, t topology.Torus) Weights {
	var w Weights
	parts := make([]*tensor.Matrix, len(shards))
	for i, f := range w.fields() {
		for rank := range shards {
			parts[rank] = *shards[rank].fields()[i]
		}
		*f = tensor.Assemble(parts, t.Rows, t.Cols)
	}
	return w
}

// NewWeights draws deterministic parameters.
func NewWeights(c Config, seed int64) Weights {
	rng := newRNG(seed)
	h := c.Hidden()
	scale := func(m *tensor.Matrix, fan int) *tensor.Matrix {
		m.Scale(1 / math.Sqrt(float64(fan)))
		return m
	}
	return Weights{
		Wq: scale(tensor.Random(h, h, rng), h),
		Wk: scale(tensor.Random(h, h, rng), h),
		Wv: scale(tensor.Random(h, h, rng), h),
		Wo: scale(tensor.Random(h, h, rng), h),
		W1: scale(tensor.Random(h, c.FFHidden, rng), h),
		W2: scale(tensor.Random(c.FFHidden, h, rng), c.FFHidden),
	}
}

// ForwardSerial computes the block on one node: pre-norm self-attention
// with residual, then a pre-norm GELU MLP with residual. x is Tokens×Hidden
// with whole sequences contiguous.
// lint:allow unused ROADMAP item 13 owns the transformer training path
func ForwardSerial(c Config, w Weights, x *tensor.Matrix) *tensor.Matrix {
	normed := layerNormSerial(x)
	q := tensor.MatMul(normed, w.Wq)
	k := tensor.MatMul(normed, w.Wk)
	v := tensor.MatMul(normed, w.Wv)
	ctx, _ := attention(c, q, k, v)
	attnOut := tensor.MatMul(ctx, w.Wo)
	res1 := x.Clone()
	res1.Add(attnOut)

	normed2 := layerNormSerial(res1)
	ff := tensor.MatMul(normed2, w.W1)
	gelu(ff)
	ffOut := tensor.MatMul(ff, w.W2)
	out := res1.Clone()
	out.Add(ffOut)
	return out
}

// Forward computes the block SPMD over the torus and returns the assembled
// output plus the mesh traffic counters (for the zero-attention-traffic
// verification).
// lint:allow unused ROADMAP item 13 owns the transformer training path
func Forward(c Config, t topology.Torus, w Weights, x *tensor.Matrix) (*tensor.Matrix, mesh.Traffic, error) {
	if err := c.check(t, x, c.Tokens(), w); err != nil {
		return nil, mesh.Traffic{}, err
	}
	xs, ws := tensor.Partition(x, t.Rows, t.Cols), w.partition(t)
	outs := make([]*tensor.Matrix, t.Size())
	traffic := run(t, func(ch *mesh.Chip) {
		o := newChip(c, ch)
		outs[ch.Rank] = o.forward(xs[ch.Rank], ws[ch.Rank], attention).out
	})
	return tensor.Assemble(outs, t.Rows, t.Cols), traffic, nil
}

// run executes f on every chip of a fresh mesh over t and returns the
// traffic. Results need no lock: each chip writes only its own rank's slot,
// and Run returns after every chip has finished.
func run(t topology.Torus, f func(ch *mesh.Chip)) mesh.Traffic {
	m := mesh.New(t)
	m.Run(f)
	return m.Traffic()
}

// chip bundles one chip's distributed primitives: the GeMMs in their
// Table 1 dataflows.
type chip struct {
	ch                      *mesh.Chip
	cfg                     Config
	fwd, bwdData, bwdWeight gemm.ChipFunc // OS, LS, RS
}

func newChip(c Config, ch *mesh.Chip) chip {
	msCfg := gemm.MeshSliceConfig{S: c.S, Block: c.Block}
	return chip{
		ch:        ch,
		cfg:       c,
		fwd:       gemm.MeshSlice(gemm.OS, msCfg),
		bwdData:   gemm.MeshSlice(gemm.LS, msCfg),
		bwdWeight: gemm.MeshSlice(gemm.RS, msCfg),
	}
}

// blockCache keeps the forward intermediates backward needs.
type blockCache struct {
	x       *tensor.Matrix
	n1      *tensor.Matrix
	q, k, v *tensor.Matrix
	probs   [][]*tensor.Matrix // [localBatch][localHead] attention probabilities
	ctx     *tensor.Matrix
	res1    *tensor.Matrix
	n2      *tensor.Matrix
	ffPre   *tensor.Matrix // n2·W1 before GELU
	ff      *tensor.Matrix // gelu(ffPre)
	out     *tensor.Matrix
}

// attendFunc turns one chip's q, k and v into the attention context and
// the softmax probabilities backward needs (nil for decode, which has no
// backward). Training and Forward pass attention.
type attendFunc func(c Config, q, k, v *tensor.Matrix) (ctx *tensor.Matrix, probs [][]*tensor.Matrix)

// forward runs the block on this chip's shards — pre-norm self-attention
// with residual, then a pre-norm GELU MLP with residual — and keeps what
// backward needs. Each (sequence, head) pair attends locally: sequences stay
// whole on a chip row, heads on a chip column (§3.2.1).
func (o chip) forward(x *tensor.Matrix, w Weights, attend attendFunc) *blockCache {
	hidden := o.cfg.Hidden()
	cache := &blockCache{x: x}
	cache.n1 = layerNormDist(o.ch, x, hidden)
	cache.q = o.fwd(o.ch, cache.n1, w.Wq)
	cache.k = o.fwd(o.ch, cache.n1, w.Wk)
	cache.v = o.fwd(o.ch, cache.n1, w.Wv)
	cache.ctx, cache.probs = attend(o.cfg, cache.q, cache.k, cache.v)
	cache.res1 = x.Clone()
	cache.res1.Add(o.fwd(o.ch, cache.ctx, w.Wo))
	cache.n2 = layerNormDist(o.ch, cache.res1, hidden)
	cache.ffPre = o.fwd(o.ch, cache.n2, w.W1)
	cache.ff = cache.ffPre.Clone()
	gelu(cache.ff)
	cache.out = o.fwd(o.ch, cache.ff, w.W2)
	cache.out.Add(cache.res1)
	return cache
}

// attention computes scaled dot-product attention over the sequences and
// heads of q, k and v, which have one row per token (whole sequences,
// contiguous) and HeadDim contiguous columns per head. It also returns the
// softmax probabilities by sequence and head.
func attention(c Config, q, k, v *tensor.Matrix) (*tensor.Matrix, [][]*tensor.Matrix) {
	ctx := tensor.New(q.Rows, q.Cols)
	probs := make([][]*tensor.Matrix, q.Rows/c.Seq)
	inv := 1 / math.Sqrt(float64(c.HeadDim))
	for b := range probs {
		probs[b] = make([]*tensor.Matrix, q.Cols/c.HeadDim)
		r0 := b * c.Seq
		for h := range probs[b] {
			c0 := h * c.HeadDim
			qh := q.SubMatrix(r0, c0, c.Seq, c.HeadDim)
			kh := k.SubMatrix(r0, c0, c.Seq, c.HeadDim)
			vh := v.SubMatrix(r0, c0, c.Seq, c.HeadDim)
			scores := tensor.MatMulNT(qh, kh)
			scores.Scale(inv)
			softmaxRows(scores)
			probs[b][h] = scores
			ctx.SetSubMatrix(r0, c0, tensor.MatMul(scores, vh))
		}
	}
	return ctx, probs
}

// layerNormSerial normalises each row to zero mean, unit variance.
func layerNormSerial(x *tensor.Matrix) *tensor.Matrix {
	out := x.Clone()
	for r := 0; r < out.Rows; r++ {
		normalizeRow(out.Row(r), rowStats(out.Row(r)))
	}
	return out
}

// layerNormDist is the distributed layer norm: the hidden dimension is
// sharded across the mesh columns, so each token's mean and variance need
// an inter-column AllReduce of two scalars per row — the only non-GeMM
// communication in the block, and a vanishing fraction of its traffic.
func layerNormDist(ch *mesh.Chip, x *tensor.Matrix, hidden int) *tensor.Matrix {
	stats := tensor.New(x.Rows, 2)
	for r := 0; r < x.Rows; r++ {
		s := rowStats(x.Row(r))
		stats.Set(r, 0, s[0])
		stats.Set(r, 1, s[1])
	}
	total := collective.AllReduce(ch.RowComm(), stats)
	out := x.Clone()
	for r := 0; r < out.Rows; r++ {
		normalizeRow(out.Row(r), [3]float64{total.At(r, 0), total.At(r, 1), float64(hidden)})
	}
	return out
}

// rowStats returns (Σx, Σx², n) for one row shard.
func rowStats(row []float64) [3]float64 {
	var s, ss float64
	for _, v := range row {
		s += v
		ss += v * v
	}
	return [3]float64{s, ss, float64(len(row))}
}

// normalizeRow applies (x-μ)/σ given the (Σx, Σx², n) statistics.
func normalizeRow(row []float64, stats [3]float64) {
	n := stats[2]
	mean := stats[0] / n
	variance := stats[1]/n - mean*mean
	inv := 1 / math.Sqrt(variance+1e-6)
	for i := range row {
		row[i] = (row[i] - mean) * inv
	}
}

func softmaxRows(m *tensor.Matrix) {
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		max := row[0]
		for _, v := range row {
			if v > max {
				max = v
			}
		}
		var sum float64
		for i, v := range row {
			row[i] = math.Exp(v - max)
			sum += row[i]
		}
		for i := range row {
			row[i] /= sum
		}
	}
}

// gelu applies the exact GELU in place.
func gelu(m *tensor.Matrix) {
	for i, v := range m.Data {
		m.Data[i] = 0.5 * v * (1 + math.Erf(v/math.Sqrt2))
	}
}
