package transformer

import (
	"math"
	"testing"

	"meshslice/internal/tensor"
	"meshslice/internal/topology"
)

func stackConfig() Config {
	return Config{Batch: 4, Seq: 4, Heads: 4, HeadDim: 4, FFHidden: 32, S: 2, Block: 2}
}

func TestTrainStackLossDecreases(t *testing.T) {
	c := stackConfig()
	s := NewStack(c, 3, 101)
	x := tensor.Random(c.Tokens(), c.Hidden(), newRNG(102))
	target := tensor.Random(c.Tokens(), c.Hidden(), newRNG(103))
	res, err := TrainStack(s, topology.NewTorus(2, 2), x, target, 12, 0.02)
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

	ref, err := TrainStack(NewStack(c, 2, 110), topology.NewTorus(1, 1), x, target, steps, lr)
	if err != nil {
		t.Fatal(err)
	}
	for _, tor := range []topology.Torus{
		topology.NewTorus(2, 2),
		topology.NewTorus(4, 2),
		topology.NewTorus(2, 4),
	} {
		got, err := TrainStack(NewStack(c, 2, 110), tor, x, target, steps, lr)
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
	if _, err := TrainStack(s, topology.NewTorus(3, 2), x, x, 1, 0.1); err == nil {
		t.Errorf("indivisible mesh accepted")
	}
	small := tensor.New(2, 2)
	if _, err := TrainStack(s, topology.NewTorus(2, 2), small, small, 1, 0.1); err == nil {
		t.Errorf("wrong input shape accepted")
	}
	if _, err := TrainStack(s, topology.NewTorus(2, 2), x, x, -1, 0.1); err == nil {
		t.Errorf("negative step count accepted")
	}
	if _, err := TrainStack(s, topology.NewTorus(2, 2), x, small, 1, 0.1); err == nil {
		t.Errorf("wrong target shape accepted")
	}
	if _, err := TrainStack(s, topology.NewTorus(2, 2), x, nil, 1, 0.1); err == nil {
		t.Errorf("missing target accepted")
	}
	deep := NewStack(c, 2, 122)
	deep.Blocks[1].W2 = tensor.New(c.Hidden(), c.FFHidden)
	if _, err := TrainStack(deep, topology.NewTorus(2, 2), x, x, 1, 0.1); err == nil {
		t.Errorf("transposed W2 in block 1 accepted")
	}
}
