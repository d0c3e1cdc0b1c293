package recorder_test

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"meshslice/internal/fault"
	"meshslice/internal/gemm"
	"meshslice/internal/mesh"
	"meshslice/internal/obs/recorder"
	"meshslice/internal/tensor"
	"meshslice/internal/topology"
)

// meshChromeDigests pins the bytes of WriteMeshChromeTrace: FNV-64a of the
// export of every registry algorithm × dataflow at prefetch depth 0 and 1,
// plus one run stalled by a dropped message, captured while the writer
// still went through encoding/json.
var meshChromeDigests = map[string]uint64{
	"MeshSlice OS depth 0":    0x2067c35726d210d7,
	"MeshSlice OS depth 1":    0x674413018f8f5df,
	"MeshSlice LS depth 0":    0x80ad72021165f21d,
	"MeshSlice LS depth 1":    0xd918a164d08f3c11,
	"MeshSlice RS depth 0":    0x72226409d6174133,
	"MeshSlice RS depth 1":    0x8c73d8653a1bd251,
	"Collective OS depth 0":   0x62fb9c1e8ff9e2e5,
	"Collective OS depth 1":   0xb200dfb0cc893c7b,
	"Collective LS depth 0":   0x9b96b2cf74d19e1b,
	"Collective LS depth 1":   0xe6ca76719b5897c3,
	"Collective RS depth 0":   0xa56732701e85e177,
	"Collective RS depth 1":   0xec78b633e06c1635,
	"SUMMA OS depth 0":        0xd385caf72edfb174,
	"SUMMA OS depth 1":        0x39becaffd7685476,
	"SUMMA LS depth 0":        0x9736985d041ec83c,
	"SUMMA LS depth 1":        0x621f506bede66152,
	"SUMMA RS depth 0":        0x3a89f9f3a86b1e6c,
	"SUMMA RS depth 1":        0x3c0376be525ef622,
	"Cannon OS depth 0":       0x9d11be006b3b9feb,
	"Cannon OS depth 1":       0xb1f0b084a9226b69,
	"Wang OS depth 0":         0x55b8af8ac836e8e5,
	"Wang OS depth 1":         0x95ed7e57751015cd,
	"Wang LS depth 0":         0xd8fada7b1024ddf9,
	"Wang LS depth 1":         0x8e4295f6e03dabb9,
	"Wang RS depth 0":         0x6f32eebedd92fce7,
	"Wang RS depth 1":         0xfb8d139563e7d4c1,
	"MeshSlice OS drop 0:1:1": 0x56656f002e12bbac,
}

// recordRun runs one recorded 64³ GeMM on a 4×4 mesh and returns the
// recorder with the run's error; a run that dies still leaves its record.
func recordRun(alg gemm.Algorithm, df gemm.Dataflow, pipelined bool, faults fault.MeshFaults) (*recorder.Recorder, error) {
	tor := topology.NewTorus(4, 4)
	p := gemm.Problem{M: 64, N: 64, K: 64, Dataflow: df}
	mh := mesh.New(tor)
	rec := recorder.New(tor.Size(), 0)
	mh.SetRecorder(rec)
	if !faults.Empty() {
		mh.SetFaults(faults)
	}
	rng := rand.New(rand.NewSource(1))
	aR, aC, bR, bC := p.OperandShapes()
	as := tensor.Partition(tensor.Random(aR, aC, rng), tor.Rows, tor.Cols)
	bs := tensor.Partition(tensor.Random(bR, bC, rng), tor.Rows, tor.Cols)
	fn := alg.Build(df, gemm.AlgOptions{S: 2, Block: 2, Pipelined: pipelined})
	err := mh.RunE(func(c *mesh.Chip) { fn(c, as[c.Rank], bs[c.Rank]) })
	return rec, err
}

func TestMeshChromeTraceGoldenBytes(t *testing.T) {
	got := map[string]uint64{}
	digest := func(key string, rec *recorder.Recorder) {
		h := fnv.New64a()
		if err := recorder.WriteMeshChromeTrace(h, rec.Snapshot(), key+" <&> —"); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		got[key] = h.Sum64()
	}
	var keys []string
	for _, alg := range gemm.Algorithms() {
		for _, df := range alg.Dataflows {
			for depth, pipelined := range []bool{false, true} {
				key := fmt.Sprintf("%s %v depth %d", alg.Name, df, depth)
				keys = append(keys, key)
				rec, err := recordRun(alg, df, pipelined, fault.MeshFaults{})
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				digest(key, rec)
			}
		}
	}
	ms, _ := gemm.AlgorithmByName("meshslice")
	rec, err := recordRun(ms, gemm.OS, false, fault.MeshFaults{Drops: []fault.EdgeDrop{{From: 0, To: 1, Nth: 1}}})
	var stall *mesh.RecvStallError
	if !errors.As(err, &stall) {
		t.Fatalf("drop run: got %v, want a *mesh.RecvStallError", err)
	}
	keys = append(keys, "MeshSlice OS drop 0:1:1")
	digest(keys[len(keys)-1], rec)

	for _, key := range keys {
		want, ok := meshChromeDigests[key]
		if !ok {
			t.Errorf("no golden digest; add\n%q: %#x,", key, got[key])
			continue
		}
		if got[key] != want {
			t.Errorf("%s: Chrome export bytes drifted: got %#x, want %#x", key, got[key], want)
		}
	}
	if len(meshChromeDigests) != len(keys) {
		t.Errorf("digest table has %d rows, the test runs %d", len(meshChromeDigests), len(keys))
	}
}
