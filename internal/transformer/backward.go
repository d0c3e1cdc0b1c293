package transformer

import (
	"math"

	"meshslice/internal/collective"
	"meshslice/internal/mesh"
	"meshslice/internal/tensor"
	"meshslice/internal/topology"
)

// Backward pass of the transformer block, distributed with the Table 1
// dataflow composition: every dInput is an LS GeMM, every dWeight an RS
// GeMM, the attention backward (softmax gradient included) stays fully
// chip-local under the §3.2.1 sharding, and the layer-norm backward needs
// only the same two-scalars-per-token inter-column exchange as its
// forward. Gradients are verified against finite differences in the tests,
// and distributed runs against the 1×1 mesh.

// backward propagates dOut through the cached forward, returning the
// parameter gradients and, when wantDX is set, dX.
func (o chip) backward(cache *blockCache, w Weights, dOut *tensor.Matrix, wantDX bool) (Weights, *tensor.Matrix) {
	hidden := o.cfg.Hidden()
	var g Weights
	// out = res1 + ff·W2.
	g.W2 = o.bwdWeight(o.ch, cache.ff, dOut)
	dFF := o.bwdData(o.ch, dOut, w.W2)
	geluBackwardInto(dFF, cache.ffPre)
	g.W1 = o.bwdWeight(o.ch, cache.n2, dFF)
	dN2 := o.bwdData(o.ch, dFF, w.W1)
	dRes1 := layerNormBackwardDist(o.ch, dN2, cache.res1, hidden)
	dRes1.Add(dOut) // residual branch

	// res1 = x + ctx·Wo.
	g.Wo = o.bwdWeight(o.ch, cache.ctx, dRes1)
	dCtx := o.bwdData(o.ch, dRes1, w.Wo)
	dQ, dK, dV := attentionBackward(o.cfg, cache, dCtx)

	g.Wq = o.bwdWeight(o.ch, cache.n1, dQ)
	g.Wk = o.bwdWeight(o.ch, cache.n1, dK)
	g.Wv = o.bwdWeight(o.ch, cache.n1, dV)
	if !wantDX {
		return g, nil
	}
	dN1 := o.bwdData(o.ch, dQ, w.Wq)
	dN1.Add(o.bwdData(o.ch, dK, w.Wk))
	dN1.Add(o.bwdData(o.ch, dV, w.Wv))
	dX := layerNormBackwardDist(o.ch, dN1, cache.x, hidden)
	dX.Add(dRes1) // residual branch
	return g, dX
}

// attentionBackward computes dQ, dK, dV from dCtx — fully local, like the
// forward: every (sequence, head) pair lives on one chip.
func attentionBackward(c Config, cache *blockCache, dCtx *tensor.Matrix) (dQ, dK, dV *tensor.Matrix) {
	dQ = tensor.New(dCtx.Rows, dCtx.Cols)
	dK = tensor.New(dCtx.Rows, dCtx.Cols)
	dV = tensor.New(dCtx.Rows, dCtx.Cols)
	inv := 1 / math.Sqrt(float64(c.HeadDim))
	for b, probs := range cache.probs {
		r0 := b * c.Seq
		for h, a := range probs { // a is Seq×Seq
			c0 := h * c.HeadDim
			qh := cache.q.SubMatrix(r0, c0, c.Seq, c.HeadDim)
			kh := cache.k.SubMatrix(r0, c0, c.Seq, c.HeadDim)
			vh := cache.v.SubMatrix(r0, c0, c.Seq, c.HeadDim)
			dCtxH := dCtx.SubMatrix(r0, c0, c.Seq, c.HeadDim)

			dV.SetSubMatrix(r0, c0, tensor.MatMulTN(a, dCtxH)) // Aᵀ·dCtx
			dA := tensor.MatMulNT(dCtxH, vh)                   // dCtx·Vᵀ
			dS := softmaxBackward(a, dA)
			dS.Scale(inv)
			dQ.SetSubMatrix(r0, c0, tensor.MatMul(dS, kh))   // dS·K
			dK.SetSubMatrix(r0, c0, tensor.MatMulTN(dS, qh)) // dSᵀ·Q
		}
	}
	return dQ, dK, dV
}

// softmaxBackward: dS = A ⊙ (dA - rowsum(dA ⊙ A)).
func softmaxBackward(a, dA *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(a.Rows, a.Cols)
	for r := 0; r < a.Rows; r++ {
		ar, dr, or := a.Row(r), dA.Row(r), out.Row(r)
		var dot float64
		for i := range ar {
			dot += ar[i] * dr[i]
		}
		for i := range ar {
			or[i] = ar[i] * (dr[i] - dot)
		}
	}
	return out
}

// layerNormBackwardDist propagates through y=(x-μ)/σ with the hidden
// dimension column-sharded: dx = (dy - mean(dy) - y·mean(dy⊙y))/σ, where
// the two means need an inter-column AllReduce (the only communication).
func layerNormBackwardDist(ch *mesh.Chip, dy, x *tensor.Matrix, hidden int) *tensor.Matrix {
	// Recompute the forward statistics plus the two backward means.
	stats := tensor.New(x.Rows, 4) // Σx, Σx², Σdy, Σ(dy·y) — y derived after reduce
	for r := 0; r < x.Rows; r++ {
		xs := rowStats(x.Row(r))
		stats.Set(r, 0, xs[0])
		stats.Set(r, 1, xs[1])
		var sdy float64
		for _, v := range dy.Row(r) {
			sdy += v
		}
		stats.Set(r, 2, sdy)
	}
	// First reduce gives μ and σ so y can be formed; Σ(dy·y) needs them,
	// so it rides a second (equally tiny) exchange.
	total := collective.AllReduce(ch.RowComm(), stats)
	n := float64(hidden)
	dyY := tensor.New(x.Rows, 1)
	for r := 0; r < x.Rows; r++ {
		mean := total.At(r, 0) / n
		variance := total.At(r, 1)/n - mean*mean
		invStd := 1 / math.Sqrt(variance+1e-6)
		var s float64
		xr, dr := x.Row(r), dy.Row(r)
		for i := range xr {
			s += dr[i] * (xr[i] - mean) * invStd
		}
		dyY.Set(r, 0, s)
	}
	dyYTotal := collective.AllReduce(ch.RowComm(), dyY)

	out := tensor.New(x.Rows, x.Cols)
	for r := 0; r < x.Rows; r++ {
		mean := total.At(r, 0) / n
		variance := total.At(r, 1)/n - mean*mean
		invStd := 1 / math.Sqrt(variance+1e-6)
		meanDy := total.At(r, 2) / n
		meanDyY := dyYTotal.At(r, 0) / n
		xr, dr, or := x.Row(r), dy.Row(r), out.Row(r)
		for i := range xr {
			y := (xr[i] - mean) * invStd
			or[i] = (dr[i] - meanDy - y*meanDyY) * invStd
		}
	}
	return out
}

// geluBackwardInto multiplies grad in place by GELU'(pre).
func geluBackwardInto(grad, pre *tensor.Matrix) {
	for i, x := range pre.Data {
		phi := math.Exp(-x*x/2) / math.Sqrt(2*math.Pi)
		grad.Data[i] *= 0.5*(1+math.Erf(x/math.Sqrt2)) + x*phi
	}
}

// Gradients runs forward+backward over the mesh: given the upstream
// gradient dOut (same global shape as the block output), it returns the
// assembled parameter gradients and input gradient.
// lint:allow unused ROADMAP item 13 owns the transformer training path
func Gradients(c Config, t topology.Torus, w Weights, x, dOut *tensor.Matrix) (Weights, *tensor.Matrix, error) {
	if err := c.check(t, x, c.Tokens(), w); err != nil {
		return Weights{}, nil, err
	}
	if err := checkShape("dOut", dOut, c.Tokens(), c.Hidden()); err != nil {
		return Weights{}, nil, err
	}
	xs, ws := tensor.Partition(x, t.Rows, t.Cols), w.partition(t)
	dOuts := tensor.Partition(dOut, t.Rows, t.Cols)
	gs, dxs := make([]Weights, t.Size()), make([]*tensor.Matrix, t.Size())
	run(t, func(ch *mesh.Chip) {
		o := newChip(c, ch)
		cache := o.forward(xs[ch.Rank], ws[ch.Rank], attention)
		gs[ch.Rank], dxs[ch.Rank] = o.backward(cache, ws[ch.Rank], dOuts[ch.Rank], true)
	})
	return assemble(gs, t), tensor.Assemble(dxs, t.Rows, t.Cols), nil
}
