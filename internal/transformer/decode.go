package transformer

import (
	"fmt"
	"math"

	"meshslice/internal/mesh"
	"meshslice/internal/tensor"
	"meshslice/internal/topology"
)

// Autoregressive decode with a KV cache — the inference workload of §6.
// One step processes a single new token per sequence against the cached
// keys and values of every earlier position. Under the §3.2.1 sharding the
// cache itself is sharded exactly like the activations (batch over rows,
// heads over columns), so cache reads and the attention stay chip-local;
// only the four FC projections communicate, now with a batch-sized M that
// makes them memory-bound (the regime serve's Example_inference quantifies).

// KVCache holds the cached keys and values: Len positions of Batch
// sequences, laid out like the activations ((batch·len) rows × hidden).
type KVCache struct {
	K, V *tensor.Matrix
	// Len is the number of cached positions per sequence.
	Len int
}

// NewKVCache returns an empty cache; Decode and DecodeSerial fill it.
// lint:allow unused ROADMAP item 13 owns the transformer rows no CLI or experiment runs yet
func NewKVCache() *KVCache {
	return &KVCache{K: tensor.New(0, 0), V: tensor.New(0, 0), Len: 0}
}

// DecodeSerial runs one cached decode step on a single node: x holds one
// new token per sequence (Batch rows × Hidden). It returns the block
// output for the new tokens and appends to the cache.
// lint:allow unused ROADMAP item 13 owns the transformer rows no CLI or experiment runs yet
func DecodeSerial(c Config, w Weights, cache *KVCache, x *tensor.Matrix) *tensor.Matrix {
	n1 := layerNormSerial(x)
	q := tensor.MatMul(n1, w.Wq)
	kNew := tensor.MatMul(n1, w.Wk)
	vNew := tensor.MatMul(n1, w.Wv)
	appendCache(c.Batch, cache, kNew, vNew)
	ctx := decodeAttention(c, q, cache)
	attnOut := tensor.MatMul(ctx, w.Wo)
	res1 := x.Clone()
	res1.Add(attnOut)
	n2 := layerNormSerial(res1)
	ff := tensor.MatMul(n2, w.W1)
	gelu(ff)
	out := res1.Clone()
	out.Add(tensor.MatMul(ff, w.W2))
	return out
}

// Decode runs one cached decode step over the mesh: x is (Batch × Hidden)
// with one token per sequence; caches holds each chip's shard (created by
// the caller as NewKVCache per rank and threaded between steps). It
// returns the assembled output.
// lint:allow unused ROADMAP item 13 owns the transformer rows no CLI or experiment runs yet
func Decode(c Config, t topology.Torus, w Weights, caches []*KVCache, x *tensor.Matrix) (*tensor.Matrix, error) {
	if err := c.check(t, x, c.Batch, w); err != nil {
		return nil, err
	}
	if len(caches) != t.Size() {
		return nil, fmt.Errorf("transformer: %d caches for %d chips", len(caches), t.Size())
	}
	for rank, kv := range caches {
		if kv == nil {
			return nil, fmt.Errorf("transformer: chip %d has no cache", rank)
		}
	}
	xs, ws := tensor.Partition(x, t.Rows, t.Cols), w.partition(t)
	dc := c
	dc.S, dc.Block = 1, 1 // decode GeMMs are tiny: S=1
	outs := make([]*tensor.Matrix, t.Size())
	run(t, func(ch *mesh.Chip) {
		o, cache := newChip(dc, ch), caches[ch.Rank]
		attend := func(c Config, q, k, v *tensor.Matrix) (*tensor.Matrix, [][]*tensor.Matrix) {
			appendCache(k.Rows, cache, k, v)
			return decodeAttention(c, q, cache), nil
		}
		outs[ch.Rank] = o.forward(xs[ch.Rank], ws[ch.Rank], attend).out
	})
	return tensor.Assemble(outs, t.Rows, t.Cols), nil
}

// appendCache interleaves the new per-sequence K/V rows into the cache,
// keeping each sequence's positions contiguous.
func appendCache(batch int, cache *KVCache, kNew, vNew *tensor.Matrix) {
	cols := kNew.Cols
	newLen := cache.Len + 1
	k := tensor.New(batch*newLen, cols)
	v := tensor.New(batch*newLen, cols)
	for b := 0; b < batch; b++ {
		for pos := 0; pos < cache.Len; pos++ {
			copy(k.Row(b*newLen+pos), cache.K.Row(b*cache.Len+pos))
			copy(v.Row(b*newLen+pos), cache.V.Row(b*cache.Len+pos))
		}
		copy(k.Row(b*newLen+cache.Len), kNew.Row(b))
		copy(v.Row(b*newLen+cache.Len), vNew.Row(b))
	}
	cache.K, cache.V, cache.Len = k, v, newLen
}

// decodeAttention attends each sequence's single query against its cached
// keys/values — one (1×Len)·(Len×D) pair of small products per
// (sequence, head), all local. q has one row per sequence.
func decodeAttention(c Config, q *tensor.Matrix, cache *KVCache) *tensor.Matrix {
	ctx := tensor.New(q.Rows, q.Cols)
	inv := 1 / math.Sqrt(float64(c.HeadDim))
	for b := 0; b < q.Rows; b++ {
		for h := 0; h < q.Cols/c.HeadDim; h++ {
			c0 := h * c.HeadDim
			qh := q.SubMatrix(b, c0, 1, c.HeadDim)
			kh := cache.K.SubMatrix(b*cache.Len, c0, cache.Len, c.HeadDim)
			vh := cache.V.SubMatrix(b*cache.Len, c0, cache.Len, c.HeadDim)
			scores := tensor.MatMulNT(qh, kh) // 1 × Len
			scores.Scale(inv)
			softmaxRows(scores)
			ctx.SetSubMatrix(b, c0, tensor.MatMul(scores, vh))
		}
	}
	return ctx
}
