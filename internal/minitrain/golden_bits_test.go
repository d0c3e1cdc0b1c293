package minitrain

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"meshslice/internal/topology"
)

// trainBits hashes, with FNV-64a, the Float64bits of a training result:
// W1, then W2, then every loss, each as 8 little-endian bytes.
func trainBits(r Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, vs := range [][]float64{r.W1.Data, r.W2.Data, r.Losses} {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestTrainGoldenBits pins the exact bits of every distributed training
// configuration the trainer's tests run: the final weights and every loss of
// plain 2D TP on four mesh shapes, three slice counts and the pipelined
// schedule; data parallelism over 1, 2 and 4 replicas; and DP × 2-stage
// pipeline × 2D TP with microbatched gradient accumulation. A refactor of the
// trainer must reproduce every row untouched.
//
// Rows sharing a seed and step count also pin equalities between layouts:
// one replica is plain 2D TP, and a one-microbatch two-stage pipeline runs
// the same arithmetic as no pipeline.
func TestTrainGoldenBits(t *testing.T) {
	c := testConfig()
	rows := []struct {
		name          string
		tor           topology.Torus
		s             int
		pipelined     bool
		dp, pp, micro int
		seed          int64
		steps         int
		want          uint64
	}{
		{"plain 1x1", topology.NewTorus(1, 1), 2, false, 0, 0, 0, 11, 20, 0x8a616380d2f91630},
		{"plain 2x2", topology.NewTorus(2, 2), 2, false, 0, 0, 0, 11, 20, 0xa3270f3f88568d21},
		{"plain 2x4", topology.NewTorus(2, 4), 2, false, 0, 0, 0, 11, 20, 0x58ddd35b9b5b2796},
		{"plain 4x2", topology.NewTorus(4, 2), 2, false, 0, 0, 0, 11, 20, 0x11d67f3cd405e262},
		{"plain 2x2 S=1", topology.NewTorus(2, 2), 1, false, 0, 0, 0, 13, 10, 0xd5ccd7604b7d6bc5},
		{"plain 2x2 S=2", topology.NewTorus(2, 2), 2, false, 0, 0, 0, 13, 10, 0xd59b85e2e0f1e381},
		{"plain 2x2 S=4", topology.NewTorus(2, 2), 4, false, 0, 0, 0, 13, 10, 0xba09d32ddc073f2d},
		{"plain 2x2 serial schedule", topology.NewTorus(2, 2), 2, false, 0, 0, 0, 7, 10, 0x645d87fcfde37ea2},
		{"plain 2x2 pipelined", topology.NewTorus(2, 2), 2, true, 0, 0, 0, 7, 10, 0x645d87fcfde37ea2},
		{"plain 2x2 seed 23", topology.NewTorus(2, 2), 2, false, 0, 0, 0, 23, 15, 0xc40100b3e34cbf10},
		{"DP=1 2x2", topology.NewTorus(2, 2), 2, false, 1, 0, 0, 23, 15, 0xc40100b3e34cbf10},
		{"DP=2 2x2", topology.NewTorus(2, 2), 2, false, 2, 0, 0, 23, 15, 0xb67cc1e93f910dd4},
		{"DP=4 2x2", topology.NewTorus(2, 2), 2, false, 4, 0, 0, 23, 15, 0xb2ca1535fac72250},
		{"DP=2 1x2", topology.NewTorus(1, 2), 2, false, 2, 0, 0, 23, 15, 0xc40100b3e34cbf10},
		{"DP=2 PP=2 micro=1 2x2 seed 23", topology.NewTorus(2, 2), 2, false, 2, 2, 1, 23, 15, 0xb67cc1e93f910dd4},
		{"plain 2x2 seed 37", topology.NewTorus(2, 2), 2, false, 0, 0, 0, 37, 12, 0x90ef6ef9a7f9ce68},
		{"DP=1 PP=2 micro=1 2x2", topology.NewTorus(2, 2), 2, false, 1, 2, 1, 37, 12, 0x90ef6ef9a7f9ce68},
		{"DP=1 PP=2 micro=2 2x2", topology.NewTorus(2, 2), 2, false, 1, 2, 2, 37, 12, 0x257b043ab8ddb368},
		{"DP=2 PP=2 micro=2 2x2", topology.NewTorus(2, 2), 2, false, 2, 2, 2, 37, 12, 0x259af109fc5eda60},
		{"DP=2 PP=2 micro=4 1x2", topology.NewTorus(1, 2), 2, false, 2, 2, 4, 37, 12, 0x1a4fcdfe4369f388},
	}
	bits := map[string]uint64{}
	for _, r := range rows {
		cr := c
		cr.S, cr.Pipelined = r.s, r.pipelined
		p := Parallelism{DP: r.dp, PP: r.pp, Micro: r.micro}
		res, err := TrainDistributed(cr, r.tor, p, NewData(cr, r.seed), r.steps, r.seed)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		got := trainBits(res)
		if got != r.want {
			t.Errorf("%s: bits %#016x, golden %#016x", r.name, got, r.want)
		}
		bits[r.name] = got
	}
	for _, p := range [][2]string{
		{"plain 2x2 serial schedule", "plain 2x2 pipelined"},
		{"plain 2x2 seed 23", "DP=1 2x2"},
		{"DP=2 2x2", "DP=2 PP=2 micro=1 2x2 seed 23"},
		{"plain 2x2 seed 37", "DP=1 PP=2 micro=1 2x2"},
	} {
		if bits[p[0]] != bits[p[1]] {
			t.Errorf("%s and %s should hash equal", p[0], p[1])
		}
	}
}
