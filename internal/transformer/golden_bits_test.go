package transformer

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"meshslice/internal/mesh"
	"meshslice/internal/minitrain"
	"meshslice/internal/tensor"
	"meshslice/internal/topology"
)

// bitsHash accumulates FNV-64a over matrices' Float64bits and integers, each
// as 8 little-endian bytes, in the order they are added.
type bitsHash struct {
	h hash.Hash64
	b [8]byte
}

func newBitsHash() *bitsHash { return &bitsHash{h: fnv.New64a()} }

func (b *bitsHash) word(v uint64) {
	binary.LittleEndian.PutUint64(b.b[:], v)
	b.h.Write(b.b[:])
}

func (b *bitsHash) floats(vs ...float64) {
	for _, v := range vs {
		b.word(math.Float64bits(v))
	}
}

func (b *bitsHash) mats(ms ...*tensor.Matrix) {
	for _, m := range ms {
		b.word(uint64(m.Rows))
		b.word(uint64(m.Cols))
		b.floats(m.Data...)
	}
}

func (b *bitsHash) traffic(tr mesh.Traffic) {
	b.word(uint64(tr.Elements))
	b.word(uint64(tr.Messages))
}

func (b *bitsHash) weights(w Weights) { b.mats(w.Wq, w.Wk, w.Wv, w.Wo, w.W1, w.W2) }

// TestGoldenBits pins the exact bits of every distributed entry point on
// four mesh shapes — Forward's output and traffic, Gradients' six parameter
// gradients and dX, the losses and final weights of a two-block stack
// trained through minitrain.Train, three Decode steps — plus
// sequence-parallel forwards on rings of 1, 2 and 4 with their traffic, and
// the serial forward. A refactor of the block must
// reproduce every row untouched; a failing row prints its literal.
func TestGoldenBits(t *testing.T) {
	c := testConfig()
	w := NewWeights(c, 201)
	x := tensor.Random(c.Tokens(), c.Hidden(), newRNG(202))
	dOut := tensor.Random(c.Tokens(), c.Hidden(), newRNG(203))
	target := tensor.Random(c.Tokens(), c.Hidden(), newRNG(204))

	check := func(name string, got, want uint64) {
		t.Helper()
		if got != want {
			t.Errorf("%s: bits %#016x, golden %#016x", name, got, want)
		}
	}

	rows := []struct {
		tor                               topology.Torus
		forward, gradients, train, decode uint64
	}{
		{topology.NewTorus(1, 1), 0x3bbc6c3058355070, 0x4112bdc4da72c141, 0xc9e0f5a1debae950, 0x094eb57cc3e7a78d},
		{topology.NewTorus(2, 2), 0xef89f4b1afe77e12, 0x382fb7e6b19afeda, 0x6b3760aa188ef1cd, 0xc0fa19f3fdbc1fc1},
		{topology.NewTorus(2, 4), 0x0613e8554e322f58, 0xb2d86436336f0362, 0xb915e2a575762372, 0xcf873c737497e33e},
		{topology.NewTorus(4, 1), 0x8ccc3a7f2a163780, 0x363596fc486efecd, 0xa0b836877a1932f3, 0x094eb57cc3e7a78d},
	}
	for _, r := range rows {
		out, tr, err := Forward(c, r.tor, w, x)
		if err != nil {
			t.Fatalf("%v forward: %v", r.tor, err)
		}
		h := newBitsHash()
		h.mats(out)
		h.traffic(tr)
		check(r.tor.String()+" forward", h.h.Sum64(), r.forward)

		g, dX, err := Gradients(c, r.tor, w, x, dOut)
		if err != nil {
			t.Fatalf("%v gradients: %v", r.tor, err)
		}
		h = newBitsHash()
		h.mats(g.Wq, g.Wk, g.Wv, g.Wo, g.W1, g.W2, dX)
		check(r.tor.String()+" gradients", h.h.Sum64(), r.gradients)

		res, err := trainStack(NewStack(c, 2, 205), r.tor, minitrain.Parallelism{}, x, target, 3, 0.02)
		if err != nil {
			t.Fatalf("%v train: %v", r.tor, err)
		}
		h = newBitsHash()
		h.floats(res.Losses...)
		for _, b := range res.Stack.Blocks {
			h.weights(b)
		}
		check(r.tor.String()+" train", h.h.Sum64(), r.train)

		caches := make([]*KVCache, r.tor.Size())
		for i := range caches {
			caches[i] = NewKVCache()
		}
		rng := newRNG(206)
		h = newBitsHash()
		for step := 0; step < 3; step++ {
			y, err := Decode(c, r.tor, w, caches, tensor.Random(c.Batch, c.Hidden(), rng))
			if err != nil {
				t.Fatalf("%v decode step %d: %v", r.tor, step, err)
			}
			h.mats(y)
		}
		check(r.tor.String()+" decode", h.h.Sum64(), r.decode)
	}

	for _, r := range []struct {
		p    int
		want uint64
	}{{1, 0xb8dda7f0979f8c46}, {2, 0x07bfc75bf9d45f27}, {4, 0x448f9dabeb32090c}} {
		out, tr, err := ForwardSequenceParallel(c, r.p, w, x)
		if err != nil {
			t.Fatalf("p=%d: %v", r.p, err)
		}
		h := newBitsHash()
		h.mats(out)
		h.traffic(tr)
		check(fmt.Sprintf("sequence parallel p=%d", r.p), h.h.Sum64(), r.want)
	}

	h := newBitsHash()
	h.mats(ForwardSerial(c, w, x))
	check("serial", h.h.Sum64(), 0xb3c76b80494c4ac6)
}
