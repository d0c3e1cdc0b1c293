package minitrain

import (
	"math"
	"strings"
	"testing"

	"meshslice/internal/gemm"
	"meshslice/internal/topology"
)

func testConfig() Config {
	return Config{Batch: 16, In: 16, Hidden: 32, Out: 8, LR: 0.05, S: 2, Block: 2}
}

func TestValidate(t *testing.T) {
	tor := topology.NewTorus(2, 2)
	if err := testConfig().Validate(tor); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := testConfig()
	bad.LR = 0
	if err := bad.Validate(tor); err == nil {
		t.Errorf("LR=0 accepted")
	}
	bad = testConfig()
	bad.Hidden = 30 // not divisible by S·Block on a 2x2 mesh
	if err := bad.Validate(tor); err == nil {
		t.Errorf("indivisible hidden accepted")
	}
	bad = testConfig()
	bad.Batch = 0
	if err := bad.Validate(tor); err == nil {
		t.Errorf("batch=0 accepted")
	}
}

func TestSerialLossDecreases(t *testing.T) {
	c := testConfig()
	data := NewData(c, 7)
	res := TrainSerial(c, data, 30, 7)
	if len(res.Losses) != 30 {
		t.Fatalf("losses = %d", len(res.Losses))
	}
	if res.Losses[29] >= res.Losses[0] {
		t.Errorf("loss did not decrease: %v → %v", res.Losses[0], res.Losses[29])
	}
	for i, l := range res.Losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			t.Fatalf("loss[%d] = %v", i, l)
		}
	}
}

// layout is one way to lay a training run out on the cluster.
type layout struct {
	tor topology.Torus
	p   Parallelism
}

// checkMatchesSerial trains testConfig for steps steps on every layout and
// requires the weights and every loss to match TrainSerial within 1e-9.
func checkMatchesSerial(t *testing.T, seed int64, steps int, layouts []layout) {
	t.Helper()
	c := testConfig() // batch 16
	data := NewData(c, seed)
	serial := TrainSerial(c, data, steps, seed)
	for _, l := range layouts {
		dist, err := TrainDistributed(c, l.tor, l.p, data, steps, seed)
		if err != nil {
			t.Fatalf("%v %+v: %v", l.tor, l.p, err)
		}
		if !dist.W1.Equal(serial.W1, 1e-9) {
			t.Errorf("%v %+v: W1 diverged by %g", l.tor, l.p, dist.W1.MaxAbsDiff(serial.W1))
		}
		if !dist.W2.Equal(serial.W2, 1e-9) {
			t.Errorf("%v %+v: W2 diverged by %g", l.tor, l.p, dist.W2.MaxAbsDiff(serial.W2))
		}
		for i := range serial.Losses {
			if math.Abs(dist.Losses[i]-serial.Losses[i]) > 1e-9 {
				t.Errorf("%v %+v: loss[%d] = %v vs serial %v", l.tor, l.p, i, dist.Losses[i], serial.Losses[i])
				break
			}
		}
	}
}

// The headline integration test: T steps of MeshSlice-distributed training
// reproduce serial training exactly — weights AND losses — on every mesh
// shape, because the Table 1 dataflow composition is exact. Microbatching
// without a pipeline is full-batch SGD too.
func TestDistributedMatchesSerial(t *testing.T) {
	checkMatchesSerial(t, 11, 20, []layout{
		{topology.NewTorus(1, 1), Parallelism{}},
		{topology.NewTorus(2, 2), Parallelism{}},
		{topology.NewTorus(2, 4), Parallelism{}},
		{topology.NewTorus(4, 2), Parallelism{}},
		{topology.NewTorus(2, 2), Parallelism{PP: 1, Micro: 2}},
	})
}

// The 3D composition test: DP replicas × 2D TP reproduce serial full-batch
// training exactly, for several replica counts and mesh shapes.
func TestDPTimesTPMatchesSerial(t *testing.T) {
	checkMatchesSerial(t, 23, 15, []layout{
		{topology.NewTorus(2, 2), Parallelism{DP: 1}},
		{topology.NewTorus(2, 2), Parallelism{DP: 2}},
		{topology.NewTorus(2, 2), Parallelism{DP: 4}},
		{topology.NewTorus(1, 2), Parallelism{DP: 2}},
	})
}

// The complete §2.1 composition: DP × PP (2 stages, microbatched) × 2D TP
// reproduces serial full-batch training exactly.
func TestThreeDMatchesSerial(t *testing.T) {
	checkMatchesSerial(t, 37, 12, []layout{
		{topology.NewTorus(2, 2), Parallelism{DP: 1, PP: 2, Micro: 1}},
		{topology.NewTorus(2, 2), Parallelism{DP: 1, PP: 2, Micro: 2}},
		{topology.NewTorus(2, 2), Parallelism{DP: 2, PP: 2, Micro: 2}},
		{topology.NewTorus(1, 2), Parallelism{DP: 2, PP: 2, Micro: 4}},
	})
}

// TestPipelineSplitIsBitIdentical: splitting the layers over two pipeline
// stages changes which chips run the arithmetic, not the arithmetic.
func TestPipelineSplitIsBitIdentical(t *testing.T) {
	c := testConfig()
	data := NewData(c, 19)
	tor := topology.NewTorus(2, 2)
	for _, micro := range []int{1, 2, 4} {
		one, err := TrainDistributed(c, tor, Parallelism{DP: 2, Micro: micro}, data, 6, 19)
		if err != nil {
			t.Fatal(err)
		}
		two, err := TrainDistributed(c, tor, Parallelism{DP: 2, PP: 2, Micro: micro}, data, 6, 19)
		if err != nil {
			t.Fatal(err)
		}
		if trainBits(one) != trainBits(two) {
			t.Errorf("micro=%d: PP=2 bits differ from PP=1", micro)
		}
	}
}

func TestDistributedSliceCountInvariance(t *testing.T) {
	// Training is exact for every valid slice count, not just S=2.
	c := testConfig()
	data := NewData(c, 13)
	tor := topology.NewTorus(2, 2)
	base, err := TrainDistributed(c, tor, Parallelism{}, data, 10, 13)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []int{1, 4} {
		cs := c
		cs.S = s
		got, err := TrainDistributed(cs, tor, Parallelism{}, data, 10, 13)
		if err != nil {
			t.Fatalf("S=%d: %v", s, err)
		}
		if !got.W1.Equal(base.W1, 1e-9) || !got.W2.Equal(base.W2, 1e-9) {
			t.Errorf("S=%d diverged from S=%d", s, c.S)
		}
	}
}

// rejection is one run the trainer must refuse, and the text its error must
// contain.
type rejection struct {
	name  string
	tor   topology.Torus
	p     Parallelism
	data  Data
	steps int
	want  string
}

// checkRejects requires every run to be an error that names the problem —
// never a panic and never a silent mistrain.
func checkRejects(t *testing.T, runs []rejection) {
	t.Helper()
	for _, r := range runs {
		_, err := TrainDistributed(testConfig(), r.tor, r.p, r.data, r.steps, 17)
		if err == nil || !strings.Contains(err.Error(), r.want) {
			t.Errorf("%s: err %v, want one containing %q", r.name, err, r.want)
		}
	}
}

// TestTrainDistributedRejectsBadMesh: a run the trainer cannot lay out on
// the mesh, or whose data does not fit the config (batch 16, in 16, out 8),
// is an error.
func TestTrainDistributedRejectsBadMesh(t *testing.T) {
	data := NewData(testConfig(), 17)
	tor := topology.NewTorus(2, 2)
	checkRejects(t, []rejection{
		{"3-row mesh with indivisible dims", topology.NewTorus(3, 2), Parallelism{}, data, 2, "not divisible"},
		{"three pipeline stages", tor, Parallelism{PP: 3}, data, 2, "PP at most 2"},
		{"negative PP", tor, Parallelism{PP: -2}, data, 2, "non-negative"},
		{"negative Micro", tor, Parallelism{Micro: -1}, data, 2, "non-negative"},
		{"negative steps", tor, Parallelism{DP: 2, PP: 2}, data, -1, "-1 steps"},
		{"target of the wrong shape", tor, Parallelism{}, Data{X: data.X, T: data.X}, 2, "data T is 16x16, want 16x8"},
		{"input of the wrong shape", tor, Parallelism{}, Data{X: data.T, T: data.T}, 2, "data X is 16x8, want 16x16"},
		{"no data", tor, Parallelism{}, Data{}, 2, "data X is nil"},
	})
}

// Data parallelism splits the batch evenly over the replicas or not at all.
// Zero replicas means one, so the smallest bad count is negative.
func TestDPRejectsIndivisibleBatch(t *testing.T) {
	data := NewData(testConfig(), 29)
	tor := topology.NewTorus(2, 2)
	checkRejects(t, []rejection{
		{"batch 16 over 3 replicas", tor, Parallelism{DP: 3}, data, 2, "3 replicas"},
		{"negative DP", tor, Parallelism{DP: -1}, data, 2, "non-negative"},
	})
}

// A pipelined run must split the batch over its replicas, and each
// replica's share into whole-row microbatches.
func TestThreeDRejectsBadSplits(t *testing.T) {
	data := NewData(testConfig(), 41)
	tor := topology.NewTorus(2, 2)
	checkRejects(t, []rejection{
		{"batch 16 over 3 pipelined replicas", tor, Parallelism{DP: 3, PP: 2}, data, 2, "3 replicas"},
		{"microbatch of half a row", tor, Parallelism{DP: 2, PP: 2, Micro: 16}, data, 2, "16 microbatches"},
		{"negative pipelined DP", tor, Parallelism{DP: -1, PP: 2}, data, 2, "non-negative"},
	})
}

// TestProblemsCoverTableOne checks that the rows Validate walks are the
// GeMMs the step runs: per layer, forward OS, backward-data LS and
// backward-weight RS on the layer's shapes (Table 1's Y-stn row).
func TestProblemsCoverTableOne(t *testing.T) {
	c := testConfig()
	for i, l := range [][2]int{{c.In, c.Hidden}, {c.Hidden, c.Out}} {
		in, out := l[0], l[1]
		want := [3]gemm.Problem{
			{M: c.Batch, N: out, K: in, Dataflow: gemm.OS},
			{M: c.Batch, N: in, K: out, Dataflow: gemm.LS},
			{M: in, N: out, K: c.Batch, Dataflow: gemm.RS},
		}
		if got := gemm.YStn.Passes(c.Batch, in, out); got != want {
			t.Errorf("layer %d passes = %+v, want %+v", i, got, want)
		}
	}
}

// TestPipelinedTrainingBitIdentical pins the trainer's overlap opt-in: a
// full training run with every MeshSlice GeMM on the pipelined schedule must
// produce bit-identical weights and losses to the serial-schedule run.
func TestPipelinedTrainingBitIdentical(t *testing.T) {
	tor := topology.NewTorus(2, 2)
	c := testConfig()
	data := NewData(c, 7)
	want, err := TrainDistributed(c, tor, Parallelism{}, data, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	cp := c
	cp.Pipelined = true
	got, err := TrainDistributed(cp, tor, Parallelism{}, data, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !got.W1.BitEqual(want.W1) || !got.W2.BitEqual(want.W2) {
		t.Error("pipelined training weights differ from serial-schedule weights")
	}
	for i := range want.Losses {
		if got.Losses[i] != want.Losses[i] { // lint:float-exact acceptance criterion: schedules are bitwise identical
			t.Errorf("step %d: pipelined loss %v != serial %v", i, got.Losses[i], want.Losses[i])
		}
	}
}
