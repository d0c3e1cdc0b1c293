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
// still went through encoding/json. The two depth-1 fault rows (a drop that
// stalls an overlapped collective, delays on a comm lane) came later.
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

	"MeshSlice OS depth 1 drop 0:1:1":  0x1eba68a897983684,
	"MeshSlice OS depth 1 delay 0:1:3": 0xb795eb26eb96fb99,
}

// meshJSONDigests pins Snapshot().WriteJSON for the same runs, and
// meshStallDumpDigests the RecvStallError text and forensics dump of the
// stalled runs that record on comm lanes.
var meshJSONDigests = map[string]uint64{
	"MeshSlice OS depth 0":    0xd14a749172a7e193,
	"MeshSlice OS depth 1":    0xfcf3399141ab4e17,
	"MeshSlice LS depth 0":    0x7c2834efd26477f9,
	"MeshSlice LS depth 1":    0x6a7e8b398faa7ad,
	"MeshSlice RS depth 0":    0x577f879ba7829abd,
	"MeshSlice RS depth 1":    0xa3f8b81623d942c9,
	"Collective OS depth 0":   0x228bdd076cee69e9,
	"Collective OS depth 1":   0x228bdd076cee69e9,
	"Collective LS depth 0":   0x383a072a83fc45f1,
	"Collective LS depth 1":   0x383a072a83fc45f1,
	"Collective RS depth 0":   0x9750459d9a27a6e1,
	"Collective RS depth 1":   0x9750459d9a27a6e1,
	"SUMMA OS depth 0":        0x4006de5e9da9aedc,
	"SUMMA OS depth 1":        0x4006de5e9da9aedc,
	"SUMMA LS depth 0":        0xb1677274be80e252,
	"SUMMA LS depth 1":        0xb1677274be80e252,
	"SUMMA RS depth 0":        0xfe2e8b169a2549ac,
	"SUMMA RS depth 1":        0xfe2e8b169a2549ac,
	"Cannon OS depth 0":       0xc8528690be3b13ab,
	"Cannon OS depth 1":       0xc8528690be3b13ab,
	"Wang OS depth 0":         0x8745f5d77fc322e7,
	"Wang OS depth 1":         0xa6ff99e5fbe41ac3,
	"Wang LS depth 0":         0x1c7b3602f72fb7,
	"Wang LS depth 1":         0xb4129f8afa4a88e3,
	"Wang RS depth 0":         0x7061977c3711eddf,
	"Wang RS depth 1":         0x104efbfbc8d4278f,
	"MeshSlice OS drop 0:1:1": 0x2859c09d4437118a,

	"MeshSlice OS depth 1 drop 0:1:1":  0xcc00dda221034a01,
	"MeshSlice OS depth 1 delay 0:1:3": 0x6aa45a5da41e0ca8,
}

var meshStallDumpDigests = map[string]uint64{
	"MeshSlice OS depth 1 drop 0:1:1": 0xa62f4e5a79e7e66f,
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
	gotJSON := map[string]uint64{}
	digest := func(key string, rec *recorder.Recorder) {
		h := fnv.New64a()
		if err := recorder.WriteMeshChromeTrace(h, rec.Snapshot(), key+" <&> —"); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		got[key] = h.Sum64()
		h.Reset()
		if err := rec.Snapshot().WriteJSON(h); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		gotJSON[key] = h.Sum64()
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
	drop := fault.MeshFaults{Drops: []fault.EdgeDrop{{From: 0, To: 1, Nth: 1}}}
	rec, err := recordRun(ms, gemm.OS, false, drop)
	var stall *mesh.RecvStallError
	if !errors.As(err, &stall) {
		t.Fatalf("drop run: got %v, want a *mesh.RecvStallError", err)
	}
	keys = append(keys, "MeshSlice OS drop 0:1:1")
	digest(keys[len(keys)-1], rec)

	// At depth 1 the faulted messages belong to overlapped collectives: the
	// drop and the delays are recorded on a comm lane, and the stall names
	// the op the blocked lane was running.
	gotDump := map[string]uint64{}
	var stallKeys []string
	for _, tc := range []struct {
		key    string
		faults fault.MeshFaults
	}{
		{"MeshSlice OS depth 1 drop 0:1:1", drop},
		{"MeshSlice OS depth 1 delay 0:1:3", fault.MeshFaults{Delays: []fault.EdgeDelay{{From: 0, To: 1, Yields: 3}}}},
	} {
		rec, err := recordRun(ms, gemm.OS, true, tc.faults)
		keys = append(keys, tc.key)
		digest(tc.key, rec)
		if len(tc.faults.Drops) == 0 {
			if err != nil {
				t.Fatalf("%s: %v", tc.key, err)
			}
			continue
		}
		stall = nil
		if !errors.As(err, &stall) {
			t.Fatalf("%s: got %v, want a *mesh.RecvStallError", tc.key, err)
		}
		h := fnv.New64a()
		h.Write([]byte(stall.Error() + "\n" + stall.Dump))
		gotDump[tc.key] = h.Sum64()
		stallKeys = append(stallKeys, tc.key)
	}

	check := func(what string, table, got map[string]uint64, keys []string) {
		for _, key := range keys {
			want, ok := table[key]
			if !ok {
				t.Errorf("no golden %s digest; add\n%q: %#x,", what, key, got[key])
				continue
			}
			if got[key] != want {
				t.Errorf("%s: %s bytes drifted: got %#x, want %#x", key, what, got[key], want)
			}
		}
		if len(table) != len(keys) {
			t.Errorf("%s digest table has %d rows, the test runs %d", what, len(table), len(keys))
		}
	}
	check("Chrome export", meshChromeDigests, got, keys)
	check("snapshot JSON", meshJSONDigests, gotJSON, keys)
	check("stall dump", meshStallDumpDigests, gotDump, stallKeys)
}
