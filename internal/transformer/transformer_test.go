package transformer

import (
	"math"
	"testing"

	"meshslice/internal/tensor"
	"meshslice/internal/topology"
)

func testConfig() Config {
	return Config{Batch: 4, Seq: 8, Heads: 4, HeadDim: 8, FFHidden: 64, S: 2, Block: 2}
}

func TestValidate(t *testing.T) {
	tor := topology.NewTorus(2, 2)
	if err := testConfig().Validate(tor); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := testConfig()
	bad.Batch = 3 // does not shard over 2 rows
	if err := bad.Validate(tor); err == nil {
		t.Errorf("batch 3 over 2 rows accepted")
	}
	bad = testConfig()
	bad.Heads = 3
	if err := bad.Validate(tor); err == nil {
		t.Errorf("3 heads over 2 columns accepted")
	}
	bad = testConfig()
	bad.Seq = 0
	if err := bad.Validate(tor); err == nil {
		t.Errorf("seq=0 accepted")
	}
}

func TestSerialForwardSanity(t *testing.T) {
	c := testConfig()
	w := NewWeights(c, 3)
	x := tensor.Random(c.Tokens(), c.Hidden(), newRNG(4))
	out := ForwardSerial(c, w, x)
	if out.Rows != c.Tokens() || out.Cols != c.Hidden() {
		t.Fatalf("output shape %dx%d", out.Rows, out.Cols)
	}
	for i, v := range out.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("output[%d] = %v", i, v)
		}
	}
}

// The headline test: the distributed block — MeshSlice FC layers, local
// attention, distributed layer norm — matches the serial block on every
// mesh shape.
func TestDistributedMatchesSerial(t *testing.T) {
	c := testConfig()
	w := NewWeights(c, 5)
	x := tensor.Random(c.Tokens(), c.Hidden(), newRNG(6))
	want := ForwardSerial(c, w, x)
	for _, tor := range []topology.Torus{
		topology.NewTorus(1, 1),
		topology.NewTorus(2, 2),
		topology.NewTorus(4, 2),
		topology.NewTorus(2, 4),
		topology.NewTorus(1, 4),
		topology.NewTorus(4, 1),
	} {
		got, _, err := Forward(c, tor, w, x)
		if err != nil {
			t.Fatalf("%v: %v", tor, err)
		}
		if !got.Equal(want, 1e-8) {
			t.Errorf("%v: output diverged by %g", tor, got.MaxAbsDiff(want))
		}
	}
}

// The §3.2.1 traffic claim, verified by measurement: the block's total
// communication equals the FC layers' analytical traffic plus the tiny
// layer-norm statistic exchange — the attention itself moves NOTHING.
func TestAttentionMovesNoData(t *testing.T) {
	c := testConfig()
	tor := topology.NewTorus(2, 2)
	w := NewWeights(c, 7)
	x := tensor.Random(c.Tokens(), c.Hidden(), newRNG(8))
	_, traffic, err := Forward(c, tor, w, x)
	if err != nil {
		t.Fatal(err)
	}
	// Expected FC traffic per chip (§2.3.1): for each OS GeMM, the flowing
	// input slices: (Pc-1)·|A_ij| + (Pr-1)·|B_ij| elements.
	perChipGeMM := func(m, n, k int) int64 {
		a := int64(m/tor.Rows) * int64(k/tor.Cols)
		b := int64(k/tor.Rows) * int64(n/tor.Cols)
		return int64(tor.Cols-1)*a + int64(tor.Rows-1)*b
	}
	h, ff, tok := c.Hidden(), c.FFHidden, c.Tokens()
	fc := 4*perChipGeMM(tok, h, h) + perChipGeMM(tok, ff, h) + perChipGeMM(tok, h, ff)
	fcTotal := fc * int64(tor.Size())
	// Layer norm: 2 AllReduces of (rows×2) statistics over each of the Pr
	// row rings; a reduce+broadcast AllReduce sends the payload 2·(Pc-1)
	// times per ring.
	statsElems := int64(tok/tor.Rows) * 2
	normTotal := int64(2) * int64(tor.Rows) * int64(2*(tor.Cols-1)) * statsElems

	if traffic.Elements != fcTotal+normTotal {
		t.Errorf("traffic = %d elements, want FC %d + layernorm %d = %d — anything above that would be attention traffic",
			traffic.Elements, fcTotal, normTotal, fcTotal+normTotal)
	}
	// And the layer-norm share is negligible, as the paper asserts.
	if frac := float64(normTotal) / float64(fcTotal); frac > 0.05 {
		t.Errorf("non-GeMM traffic fraction %.3f not negligible", frac)
	}
}

func TestForwardRejectsBadMesh(t *testing.T) {
	c := testConfig()
	w := NewWeights(c, 9)
	x := tensor.Random(c.Tokens(), c.Hidden(), newRNG(10))
	tor := topology.NewTorus(2, 2)
	narrow := tensor.New(c.Tokens(), c.Hidden()/2)
	badWk, noW2 := w, w
	badWk.Wk = tensor.New(c.Hidden(), c.Hidden()/2)
	noW2.W2 = nil
	forward := func(tor topology.Torus, w Weights, x *tensor.Matrix) error {
		_, _, err := Forward(c, tor, w, x)
		return err
	}
	gradients := func(w Weights, x, dOut *tensor.Matrix) error {
		_, _, err := Gradients(c, tor, w, x, dOut)
		return err
	}
	for _, r := range []struct {
		name string
		err  error
	}{
		{"batch 4 over 3 rows", forward(topology.NewTorus(3, 2), w, x)},
		{"forward: x of the wrong width", forward(tor, w, narrow)},
		{"forward: Wk of the wrong shape", forward(tor, badWk, x)},
		{"forward: missing W2", forward(tor, noW2, x)},
		{"gradients: x of the wrong width", gradients(w, narrow, x)},
		{"gradients: dOut of the wrong shape", gradients(w, x, narrow)},
		{"gradients: Wk of the wrong shape", gradients(badWk, x, x)},
	} {
		if r.err == nil {
			t.Errorf("%s accepted", r.name)
		}
	}
}

func TestSoftmaxRows(t *testing.T) {
	m := tensor.FromSlice(2, 3, []float64{1, 2, 3, 1000, 1000, 1000})
	softmaxRows(m)
	for r := 0; r < 2; r++ {
		var sum float64
		for _, v := range m.Row(r) {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("softmax value %v", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("row %d sums to %v", r, sum)
		}
	}
	// Monotonicity within a row.
	if !(m.At(0, 0) < m.At(0, 1) && m.At(0, 1) < m.At(0, 2)) {
		t.Errorf("softmax not monotone: %v", m.Row(0))
	}
}

func TestLayerNormSerial(t *testing.T) {
	x := tensor.Random(4, 16, newRNG(11))
	n := layerNormSerial(x)
	for r := 0; r < n.Rows; r++ {
		var mean, variance float64
		for _, v := range n.Row(r) {
			mean += v
		}
		mean /= float64(n.Cols)
		for _, v := range n.Row(r) {
			variance += (v - mean) * (v - mean)
		}
		variance /= float64(n.Cols)
		if math.Abs(mean) > 1e-9 || math.Abs(variance-1) > 1e-3 {
			t.Errorf("row %d: mean %v variance %v", r, mean, variance)
		}
	}
}

func TestGelu(t *testing.T) {
	m := tensor.FromSlice(1, 3, []float64{-10, 0, 10})
	gelu(m)
	if math.Abs(m.At(0, 0)) > 1e-6 {
		t.Errorf("gelu(-10) = %v", m.At(0, 0))
	}
	if m.At(0, 1) != 0 {
		t.Errorf("gelu(0) = %v", m.At(0, 1))
	}
	if math.Abs(m.At(0, 2)-10) > 1e-6 {
		t.Errorf("gelu(10) = %v", m.At(0, 2))
	}
}

func TestSequenceParallelMatchesSerial(t *testing.T) {
	c := testConfig()
	w := NewWeights(c, 21)
	x := tensor.Random(c.Tokens(), c.Hidden(), newRNG(22))
	want := ForwardSerial(c, w, x)
	for _, p := range []int{1, 2, 4} {
		got, _, err := ForwardSequenceParallel(c, p, w, x)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if !got.Equal(want, 1e-8) {
			t.Errorf("p=%d: diverged by %g", p, got.MaxAbsDiff(want))
		}
	}
}

func TestSequenceParallelValidate(t *testing.T) {
	c := testConfig()
	if err := c.ValidateSeqParallel(2); err != nil {
		t.Errorf("valid ring rejected: %v", err)
	}
	if err := c.ValidateSeqParallel(0); err == nil {
		t.Errorf("ring of 0 accepted")
	}
	if err := c.ValidateSeqParallel(3); err == nil {
		t.Errorf("3 chips for 4 heads accepted")
	}
	w := NewWeights(c, 23)
	if _, _, err := ForwardSequenceParallel(c, 2, w, tensor.New(c.Tokens(), c.Hidden()/2)); err == nil {
		t.Errorf("x of the wrong width accepted")
	}
	w.W1 = tensor.New(c.FFHidden, c.Hidden())
	if _, _, err := ForwardSequenceParallel(c, 2, w, tensor.New(c.Tokens(), c.Hidden())); err == nil {
		t.Errorf("transposed W1 accepted")
	}
}

// The §2.2 traffic contrast, measured: sequence-parallel 1D TP moves
// 4·(P-1)·tokens·hidden/P elements per chip per block (two AllGathers and
// two ReduceScatters of the FULL activation), strictly more than the same
// block under 2D TP on the same chip count.
func TestSequenceParallelTrafficLinearInP(t *testing.T) {
	// Tokens must dominate the weight matrices for the contrast to show
	// (as in LLM training, where tokens ≫ hidden); with tiny activations
	// the 2D weight gathers would mask it.
	c := Config{Batch: 8, Seq: 32, Heads: 4, HeadDim: 8, FFHidden: 64, S: 2, Block: 2}
	w := NewWeights(c, 31)
	x := tensor.Random(c.Tokens(), c.Hidden(), newRNG(32))
	const p = 4
	_, tr1d, err := ForwardSequenceParallel(c, p, w, x)
	if err != nil {
		t.Fatal(err)
	}
	shard := int64(c.Tokens()/p) * int64(c.Hidden())
	want := int64(p) * 4 * int64(p-1) * shard
	if tr1d.Elements != want {
		t.Errorf("1D SP traffic = %d elements, want %d", tr1d.Elements, want)
	}
	// The same block with 2D TP on the same 4 chips moves less.
	_, tr2d, err := Forward(c, topology.NewTorus(2, 2), w, x)
	if err != nil {
		t.Fatal(err)
	}
	if tr2d.Elements >= tr1d.Elements {
		t.Errorf("2D TP (%d) should move less than 1D SP (%d) on the same chips", tr2d.Elements, tr1d.Elements)
	}
}
