package transformer

import (
	"fmt"

	"meshslice/internal/collective"
	"meshslice/internal/mesh"
	"meshslice/internal/tensor"
	"meshslice/internal/topology"
)

// Sequence-parallel 1D tensor parallelism (Korthikanti et al. [16]) — the
// paper's 1D TP baseline (§4.3) — implemented functionally on a ring:
//
//   - between the FC regions, activations live sequence-sharded at full
//     hidden width, so layer norms and residuals are chip-local;
//   - entering an FC region, an AllGather assembles the full activation;
//     weights are 1D-sharded (columns for the first GeMM, rows for the
//     second) so attention heads stay chip-local;
//   - leaving the region, a ReduceScatter returns to sequence sharding.
//
// The communication per block is therefore 2 AllGathers + 2 ReduceScatters
// of the FULL activation — the linear-in-P traffic that §2.2 contrasts
// against 2D TP's row/column-only transfers, which the traffic-counter
// test quantifies.

// ValidateSeqParallel reports whether the block runs sequence-parallel on
// a ring of p chips.
func (c Config) ValidateSeqParallel(p int) error {
	switch {
	case p <= 0:
		return fmt.Errorf("transformer: ring of %d", p)
	case c.Tokens()%p != 0:
		return fmt.Errorf("transformer: %d tokens do not shard over %d chips", c.Tokens(), p)
	case c.Heads%p != 0:
		return fmt.Errorf("transformer: %d heads do not shard over %d chips", c.Heads, p)
	case c.Hidden()%p != 0 || c.FFHidden%p != 0:
		return fmt.Errorf("transformer: hidden dims (%d, %d) do not shard over %d chips", c.Hidden(), c.FFHidden, p)
	}
	return nil
}

// ForwardSequenceParallel runs the block on a 1D ring with sequence
// parallelism and returns the assembled output plus traffic counters.
// lint:allow unused ROADMAP item 13 owns the transformer rows no CLI or experiment runs yet
func ForwardSequenceParallel(c Config, p int, w Weights, x *tensor.Matrix) (*tensor.Matrix, mesh.Traffic, error) {
	if err := c.ValidateSeqParallel(p); err != nil {
		return nil, mesh.Traffic{}, err
	}
	if err := checkShape("x", x, c.Tokens(), c.Hidden()); err != nil {
		return nil, mesh.Traffic{}, err
	}
	if err := c.checkWeights(w); err != nil {
		return nil, mesh.Traffic{}, err
	}
	xs := tensor.SplitRows(x, p) // sequence shards
	// 1D weight shards: columns for the entering GeMMs, rows for the
	// leaving ones (so partial products reduce over the ring).
	wqC := tensor.SplitCols(w.Wq, p)
	wkC := tensor.SplitCols(w.Wk, p)
	wvC := tensor.SplitCols(w.Wv, p)
	woR := tensor.SplitRows(w.Wo, p)
	w1C := tensor.SplitCols(w.W1, p)
	w2R := tensor.SplitRows(w.W2, p)

	outs := make([]*tensor.Matrix, p)
	traffic := run(topology.NewTorus(1, p), func(ch *mesh.Chip) {
		ring := ch.RowComm()
		xl := xs[ch.Rank]

		// Attention region: norm locally, gather the sequence, project
		// into this chip's heads, attend locally, partial out-projection,
		// reduce-scatter back to sequence sharding.
		n1 := layerNormSerial(xl)
		full := collective.AllGatherRows(ring, n1)
		q := tensor.MatMul(full, wqC[ch.Rank])
		k := tensor.MatMul(full, wkC[ch.Rank])
		v := tensor.MatMul(full, wvC[ch.Rank])
		ctx, _ := attention(c, q, k, v)
		partial := tensor.MatMul(ctx, woR[ch.Rank]) // rows of Wo matching this chip's ctx columns
		attnOut := collective.ReduceScatterRows(ring, partial)
		res1 := xl.Clone()
		res1.Add(attnOut)

		// MLP region: same pattern with the FF weights.
		n2 := layerNormSerial(res1)
		full2 := collective.AllGatherRows(ring, n2)
		ff := tensor.MatMul(full2, w1C[ch.Rank])
		gelu(ff)
		partial2 := tensor.MatMul(ff, w2R[ch.Rank])
		ffOut := collective.ReduceScatterRows(ring, partial2)
		out := res1.Clone()
		out.Add(ffOut)
		outs[ch.Rank] = out
	})
	return tensor.ConcatRows(outs), traffic, nil
}
