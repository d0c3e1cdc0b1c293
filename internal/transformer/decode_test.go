package transformer

import (
	"testing"

	"meshslice/internal/tensor"
	"meshslice/internal/topology"
)

func decodeConfig() Config {
	// Note Seq is irrelevant to decode (the cache carries positions); set
	// it to 1 so Tokens() matches the per-step batch for Validate.
	return Config{Batch: 4, Seq: 1, Heads: 4, HeadDim: 8, FFHidden: 64, S: 1, Block: 1}
}

// Multi-step decode on the mesh must match serial decode step for step —
// including the cache contents it accumulates.
func TestDecodeMatchesSerialOverSteps(t *testing.T) {
	c := decodeConfig()
	w := NewWeights(c, 81)
	for _, tor := range []topology.Torus{
		topology.NewTorus(1, 1),
		topology.NewTorus(2, 2),
		topology.NewTorus(4, 2),
		topology.NewTorus(2, 4),
	} {
		serialCache := NewKVCache()
		caches := make([]*KVCache, tor.Size())
		for i := range caches {
			caches[i] = NewKVCache()
		}
		rng := newRNG(82)
		for step := 0; step < 5; step++ {
			x := tensor.Random(c.Batch, c.Hidden(), rng)
			want := DecodeSerial(c, w, serialCache, x)
			got, err := Decode(c, tor, w, caches, x)
			if err != nil {
				t.Fatalf("%v step %d: %v", tor, step, err)
			}
			if !got.Equal(want, 1e-8) {
				t.Fatalf("%v step %d: diverged by %g", tor, step, got.MaxAbsDiff(want))
			}
		}
		if serialCache.Len != 5 {
			t.Errorf("serial cache length = %d", serialCache.Len)
		}
		if caches[0].Len != 5 {
			t.Errorf("distributed cache length = %d", caches[0].Len)
		}
	}
}

func TestDecodeRejectsBadInputs(t *testing.T) {
	c := decodeConfig()
	w := NewWeights(c, 83)
	tor := topology.NewTorus(2, 2)
	caches := []*KVCache{NewKVCache(), NewKVCache(), NewKVCache(), NewKVCache()}
	if _, err := Decode(c, tor, w, caches, tensor.New(3, c.Hidden())); err == nil {
		t.Errorf("wrong batch accepted")
	}
	if _, err := Decode(c, tor, w, caches[:2], tensor.New(c.Batch, c.Hidden())); err == nil {
		t.Errorf("wrong cache count accepted")
	}
	if _, err := Decode(c, tor, w, caches, tensor.New(c.Batch, c.Hidden()/2)); err == nil {
		t.Errorf("x of the wrong width accepted")
	}
	if _, err := Decode(c, tor, w, []*KVCache{NewKVCache(), nil, NewKVCache(), NewKVCache()}, tensor.New(c.Batch, c.Hidden())); err == nil {
		t.Errorf("missing cache accepted")
	}
	w.Wo = tensor.New(c.Hidden(), c.Hidden()/2)
	if _, err := Decode(c, tor, w, caches, tensor.New(c.Batch, c.Hidden())); err == nil {
		t.Errorf("Wo of the wrong shape accepted")
	}
}

func TestAppendCacheKeepsSequencesContiguous(t *testing.T) {
	cache := NewKVCache()
	const batch, cols = 2, 3
	for pos := 0; pos < 3; pos++ {
		kNew := tensor.New(batch, cols)
		vNew := tensor.New(batch, cols)
		for b := 0; b < batch; b++ {
			for cc := 0; cc < cols; cc++ {
				kNew.Set(b, cc, float64(100*b+pos))
				vNew.Set(b, cc, float64(-100*b-pos))
			}
		}
		appendCache(batch, cache, kNew, vNew)
	}
	if cache.Len != 3 || cache.K.Rows != batch*3 {
		t.Fatalf("cache shape len=%d rows=%d", cache.Len, cache.K.Rows)
	}
	for b := 0; b < batch; b++ {
		for pos := 0; pos < 3; pos++ {
			if got := cache.K.At(b*3+pos, 0); got != float64(100*b+pos) {
				t.Errorf("K[%d,%d] = %v", b, pos, got)
			}
			if got := cache.V.At(b*3+pos, 0); got != float64(-100*b-pos) {
				t.Errorf("V[%d,%d] = %v", b, pos, got)
			}
		}
	}
}
