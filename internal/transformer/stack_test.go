package transformer

import (
	"math"
	"testing"

	"meshslice/internal/minitrain"
	"meshslice/internal/tensor"
	"meshslice/internal/topology"
)

func stackConfig() Config {
	return Config{Batch: 4, Seq: 4, Heads: 4, HeadDim: 4, FFHidden: 32, S: 2, Block: 2}
}

// trainResult is one training run of a stack: its per-step losses and the
// trained stack.
type trainResult struct {
	Losses []float64
	Stack  Stack
}

// trainStack trains the stack through minitrain.Train, the one distributed
// trainer, against an MSE regression target.
func trainStack(s Stack, t topology.Torus, p minitrain.Parallelism, x, target *tensor.Matrix, steps int, lr float64) (trainResult, error) {
	ws, losses, err := minitrain.Train(s.Layers(), t, p, x, target, steps, lr)
	res := trainResult{Losses: losses, Stack: Stack{Config: s.Config}}
	for _, w := range ws {
		res.Stack.Blocks = append(res.Stack.Blocks, weightsOf(w))
	}
	return res, err
}

func TestTrainStackLossDecreases(t *testing.T) {
	c := stackConfig()
	s := NewStack(c, 3, 101)
	x := tensor.Random(c.Tokens(), c.Hidden(), newRNG(102))
	target := tensor.Random(c.Tokens(), c.Hidden(), newRNG(103))
	res, err := trainStack(s, topology.NewTorus(2, 2), minitrain.Parallelism{}, x, target, 12, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Losses) != 12 {
		t.Fatalf("losses = %d", len(res.Losses))
	}
	if res.Losses[11] >= res.Losses[0] {
		t.Errorf("stack loss did not decrease: %v → %v", res.Losses[0], res.Losses[11])
	}
	for i, l := range res.Losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			t.Fatalf("loss[%d] = %v", i, l)
		}
	}
}

// Training a multi-block stack on any mesh shape matches the 1×1 mesh
// (serial) run exactly: losses AND every weight of every block.
func TestTrainStackMeshInvariance(t *testing.T) {
	c := stackConfig()
	x := tensor.Random(c.Tokens(), c.Hidden(), newRNG(111))
	target := tensor.Random(c.Tokens(), c.Hidden(), newRNG(112))
	const steps, lr = 8, 0.02

	ref, err := trainStack(NewStack(c, 2, 110), topology.NewTorus(1, 1), minitrain.Parallelism{}, x, target, steps, lr)
	if err != nil {
		t.Fatal(err)
	}
	for _, tor := range []topology.Torus{
		topology.NewTorus(2, 2),
		topology.NewTorus(4, 2),
		topology.NewTorus(2, 4),
	} {
		got, err := trainStack(NewStack(c, 2, 110), tor, minitrain.Parallelism{}, x, target, steps, lr)
		if err != nil {
			t.Fatalf("%v: %v", tor, err)
		}
		for i := range ref.Losses {
			if math.Abs(got.Losses[i]-ref.Losses[i]) > 1e-9 {
				t.Errorf("%v: loss[%d] = %v vs %v", tor, i, got.Losses[i], ref.Losses[i])
				break
			}
		}
		for l := range ref.Stack.Blocks {
			pairs := []struct {
				name      string
				got, want *tensor.Matrix
			}{
				{"Wq", got.Stack.Blocks[l].Wq, ref.Stack.Blocks[l].Wq},
				{"Wo", got.Stack.Blocks[l].Wo, ref.Stack.Blocks[l].Wo},
				{"W1", got.Stack.Blocks[l].W1, ref.Stack.Blocks[l].W1},
				{"W2", got.Stack.Blocks[l].W2, ref.Stack.Blocks[l].W2},
			}
			for _, p := range pairs {
				if !p.got.Equal(p.want, 1e-8) {
					t.Errorf("%v block %d: %s diverged by %g", tor, l, p.name, p.got.MaxAbsDiff(p.want))
				}
			}
		}
	}
}

func TestTrainStackRejectsBadShapes(t *testing.T) {
	c := stackConfig()
	s := NewStack(c, 1, 120)
	x := tensor.Random(c.Tokens(), c.Hidden(), newRNG(121))
	if _, err := trainStack(s, topology.NewTorus(3, 2), minitrain.Parallelism{}, x, x, 1, 0.1); err == nil {
		t.Errorf("indivisible mesh accepted")
	}
	small := tensor.New(2, 2)
	if _, err := trainStack(s, topology.NewTorus(2, 2), minitrain.Parallelism{}, small, small, 1, 0.1); err == nil {
		t.Errorf("wrong input shape accepted")
	}
	if _, err := trainStack(s, topology.NewTorus(2, 2), minitrain.Parallelism{}, x, x, -1, 0.1); err == nil {
		t.Errorf("negative step count accepted")
	}
	if _, err := trainStack(s, topology.NewTorus(2, 2), minitrain.Parallelism{DP: 2, Micro: 2}, x, x, 1, 0.1); err == nil {
		t.Errorf("microbatch of one sequence over two mesh rows accepted")
	}
	if _, err := trainStack(s, topology.NewTorus(1, 2), minitrain.Parallelism{DP: 8}, x, x, 1, 0.1); err == nil {
		t.Errorf("replica share of half a sequence accepted")
	}
	if _, err := trainStack(s, topology.NewTorus(2, 2), minitrain.Parallelism{}, x, small, 1, 0.1); err == nil {
		t.Errorf("wrong target shape accepted")
	}
	if _, err := trainStack(s, topology.NewTorus(2, 2), minitrain.Parallelism{}, x, nil, 1, 0.1); err == nil {
		t.Errorf("missing target accepted")
	}
	deep := NewStack(c, 2, 122)
	deep.Blocks[1].W2 = tensor.New(c.Hidden(), c.FFHidden)
	if _, err := trainStack(deep, topology.NewTorus(2, 2), minitrain.Parallelism{}, x, x, 1, 0.1); err == nil {
		t.Errorf("transposed W2 in block 1 accepted")
	}
}

// A two-block stack trained on the full cluster layout — 2 data-parallel
// replicas × 2 pipeline stages (one block each, 2 microbatches with
// gradient accumulation) × a 2×2 tensor-parallel mesh — matches the plain
// 2D-TP run: losses AND every weight of every block.
func TestTrainStackDPTimesPPTimesTP(t *testing.T) {
	c := stackConfig()
	c.Batch = 8 // two sequences per microbatch, one per mesh row
	x := tensor.Random(c.Tokens(), c.Hidden(), newRNG(131))
	target := tensor.Random(c.Tokens(), c.Hidden(), newRNG(132))
	tor := topology.NewTorus(2, 2)
	const steps, lr = 6, 0.02

	ref, err := trainStack(NewStack(c, 2, 130), tor, minitrain.Parallelism{}, x, target, steps, lr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := trainStack(NewStack(c, 2, 130), tor, minitrain.Parallelism{DP: 2, PP: 2, Micro: 2}, x, target, steps, lr)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Losses {
		if math.Abs(got.Losses[i]-ref.Losses[i]) > 1e-9 {
			t.Errorf("loss[%d] = %v vs %v", i, got.Losses[i], ref.Losses[i])
		}
	}
	names := [6]string{"Wq", "Wk", "Wv", "Wo", "W1", "W2"}
	for l := range ref.Stack.Blocks {
		want := ref.Stack.Blocks[l].list()
		for i, m := range got.Stack.Blocks[l].list() {
			if !m.Equal(want[i], 1e-9) {
				t.Errorf("block %d: %s diverged by %g", l, names[i], m.MaxAbsDiff(want[i]))
			}
		}
	}
}
