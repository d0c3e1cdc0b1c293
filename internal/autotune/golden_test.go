package autotune_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"meshslice/internal/autotune"
	"meshslice/internal/cluster"
	"meshslice/internal/fault"
	"meshslice/internal/hw"
	"meshslice/internal/model"
	"meshslice/internal/obs"
	"meshslice/internal/topology"
)

// The digests below are FNV-64a over everything a search returns: the mesh
// shape, every pass's problem and slice count S, and the Float64bits of
// BlockTime and of every Estimate field. They were captured while the
// autotuner still built a full Choice for every candidate shape, so any
// refactor of the search must reproduce them untouched. A missing row
// prints the literal to paste.

var goldenTune = map[string]uint64{
	"GPT-3 c16 t16384 opt=true":              0xc058620d20dedb0,
	"GPT-3 c16 t16384 opt=false":             0x6a18821725afef0,
	"GPT-3 c16 t2048 opt=true":               0xc800b051e5e9d10c,
	"GPT-3 c16 t2048 opt=false":              0xc34a04bfe79f136e,
	"GPT-3 c16 t512 opt=true":                0xdcc4620a7250dec4,
	"GPT-3 c16 t512 opt=false":               0xea1782f6f18bf785,
	"GPT-3 c64 t65536 opt=true":              0x5beffef0f14586,
	"GPT-3 c64 t65536 opt=false":             0xfb0e89635689bb21,
	"GPT-3 c64 t2048 opt=true":               0x705d8219f363a36d,
	"GPT-3 c64 t2048 opt=false":              0x661eb3c1019fe4b1,
	"GPT-3 c64 t512 opt=true":                0x5cb51c409391fc9b,
	"GPT-3 c64 t512 opt=false":               0x1bd7bb9e880cafd3,
	"GPT-3 c256 t262144 opt=true":            0xa4fe6bf9b2fa2ef0,
	"GPT-3 c256 t262144 opt=false":           0xa6d00b741347c4f5,
	"GPT-3 c256 t2048 opt=true":              0xfc0e5f54e647209e,
	"GPT-3 c256 t2048 opt=false":             0xa5372af9f48f6066,
	"GPT-3 c256 t512 opt=true":               0xb1b65eb7b781a8ca,
	"GPT-3 c256 t512 opt=false":              0x20c6c0d72fa63157,
	"GPT-3 c1024 t1048576 opt=true":          0x4be6c421ee70da8,
	"GPT-3 c1024 t1048576 opt=false":         0x9c660aec3fbe3073,
	"GPT-3 c1024 t2048 opt=true":             0xfd24e5c9da6264f,
	"GPT-3 c1024 t2048 opt=false":            0x518bfb6a495b3677,
	"GPT-3 c1024 t512 opt=true":              0x8d9777a1860f5dc9,
	"GPT-3 c1024 t512 opt=false":             0xd94f7cb8490eab04,
	"GPT-3 c4096 t4194304 opt=true":          0x2bf3dcdf52c3b85b,
	"GPT-3 c4096 t4194304 opt=false":         0x6675dcbc792f2401,
	"GPT-3 c4096 t2048 opt=true":             0x597ba3e335cc07e6,
	"GPT-3 c4096 t2048 opt=false":            0x447b58735ee2be33,
	"GPT-3 c4096 t512 opt=true":              0x3b7abe35f3b5ce5e,
	"GPT-3 c4096 t512 opt=false":             0x9f3bdff9b85041e0,
	"Megatron-NLG c16 t16384 opt=true":       0x607efbe2e8775668,
	"Megatron-NLG c16 t16384 opt=false":      0x89b6fc308f50cb5e,
	"Megatron-NLG c16 t2048 opt=true":        0x9a585ae10763601a,
	"Megatron-NLG c16 t2048 opt=false":       0x1e8b80a9d1d11dd4,
	"Megatron-NLG c16 t512 opt=true":         0xf8b82bd4ec22cb1e,
	"Megatron-NLG c16 t512 opt=false":        0xbd46d32ea558d95b,
	"Megatron-NLG c64 t65536 opt=true":       0x7a491af797396376,
	"Megatron-NLG c64 t65536 opt=false":      0xc5723f6641369e09,
	"Megatron-NLG c64 t2048 opt=true":        0x142358ec0a325aae,
	"Megatron-NLG c64 t2048 opt=false":       0x1cc96ef467de81a8,
	"Megatron-NLG c64 t512 opt=true":         0x56d6d28f76c544a7,
	"Megatron-NLG c64 t512 opt=false":        0xfb7c75c3992a6526,
	"Megatron-NLG c256 t262144 opt=true":     0x64f5af35dcda953f,
	"Megatron-NLG c256 t262144 opt=false":    0xde130f073784c0cd,
	"Megatron-NLG c256 t2048 opt=true":       0xe768273f48717b1a,
	"Megatron-NLG c256 t2048 opt=false":      0xa00af13f0fe00b12,
	"Megatron-NLG c256 t512 opt=true":        0xe5fa295ef8fc534b,
	"Megatron-NLG c256 t512 opt=false":       0x26f72f4ed3bf5002,
	"Megatron-NLG c1024 t1048576 opt=true":   0x465c5980ed0999ba,
	"Megatron-NLG c1024 t1048576 opt=false":  0x9ab7af492483045b,
	"Megatron-NLG c1024 t2048 opt=true":      0x4cdd6ab507ecfd2e,
	"Megatron-NLG c1024 t2048 opt=false":     0xda8dc49a99fc9842,
	"Megatron-NLG c1024 t512 opt=true":       0x79fe3a1eb7fa1959,
	"Megatron-NLG c1024 t512 opt=false":      0xae5151a02c58fbea,
	"Megatron-NLG c4096 t4194304 opt=true":   0x68f484c20aa81441,
	"Megatron-NLG c4096 t4194304 opt=false":  0x8f218c13e085a84,
	"Megatron-NLG c4096 t2048 opt=true":      0x4da9460def021d73,
	"Megatron-NLG c4096 t2048 opt=false":     0x90cf9a3f29203dd3,
	"Megatron-NLG c4096 t512 opt=true":       0xb6b4b850b770cb29,
	"Megatron-NLG c4096 t512 opt=false":      0x4f257e0f7f9c6728,
	"Llama-3-70B c16 t65536 opt=true":        0xdbcb1a99977ffd95,
	"Llama-3-70B c16 t65536 opt=false":       0x70cef6f61ee3bb7d,
	"Llama-3-70B c16 t2048 opt=true":         0xa3a55dad45b8903,
	"Llama-3-70B c16 t2048 opt=false":        0xf4aea7e7c8000456,
	"Llama-3-70B c16 t512 opt=true":          0xf97671df9a60655d,
	"Llama-3-70B c16 t512 opt=false":         0xac80853270b3e727,
	"Llama-3-70B c64 t262144 opt=true":       0x6ce9e81e826f220f,
	"Llama-3-70B c64 t262144 opt=false":      0x5cead7bbd26c487a,
	"Llama-3-70B c64 t2048 opt=true":         0xc6dd4a7a5f54b078,
	"Llama-3-70B c64 t2048 opt=false":        0xc2c3feaeacbca794,
	"Llama-3-70B c64 t512 opt=true":          0x1013dc050427f5ad,
	"Llama-3-70B c64 t512 opt=false":         0x7c3a4adaa37b0baf,
	"Llama-3-70B c256 t1048576 opt=true":     0x7f57c894725c06c3,
	"Llama-3-70B c256 t1048576 opt=false":    0x6f9d1502be78e5c8,
	"Llama-3-70B c256 t2048 opt=true":        0x5c3cdebe79536fe6,
	"Llama-3-70B c256 t2048 opt=false":       0x65f13b6f9fe2b342,
	"Llama-3-70B c256 t512 opt=true":         0x190eb90f09bf90ea,
	"Llama-3-70B c256 t512 opt=false":        0xd6da796cfd2adf7f,
	"Llama-3-70B c1024 t4194304 opt=true":    0x7f525ba67f9add0c,
	"Llama-3-70B c1024 t4194304 opt=false":   0x7a8f1c3624098c33,
	"Llama-3-70B c1024 t2048 opt=true":       0x986c898498a5f8cd,
	"Llama-3-70B c1024 t2048 opt=false":      0x445c162c904c8859,
	"Llama-3-70B c1024 t512 opt=true":        0x7244feb91fffcea2,
	"Llama-3-70B c1024 t512 opt=false":       0xc2d6f70882bed4c0,
	"Llama-3-70B c4096 t16777216 opt=true":   0xfe1ebe67f1b09ab0,
	"Llama-3-70B c4096 t16777216 opt=false":  0x40249e3af9e49452,
	"Llama-3-70B c4096 t2048 opt=true":       0x30bf7567754572e1,
	"Llama-3-70B c4096 t2048 opt=false":      0x891f67aef6c84f32,
	"Llama-3-70B c4096 t512 opt=true":        0xc646039820c4849,
	"Llama-3-70B c4096 t512 opt=false":       0x19095173b73751ac,
	"Llama-3-405B c16 t65536 opt=true":       0xb4ff2c7906b551c0,
	"Llama-3-405B c16 t65536 opt=false":      0x5b49cf04c52a86f4,
	"Llama-3-405B c16 t2048 opt=true":        0xc86d8f4d67b49380,
	"Llama-3-405B c16 t2048 opt=false":       0x4a0827e20e0c270c,
	"Llama-3-405B c16 t512 opt=true":         0x4a1884f1fd4a2221,
	"Llama-3-405B c16 t512 opt=false":        0x89b888b2bce8cb28,
	"Llama-3-405B c64 t262144 opt=true":      0x2cc6990e4750420b,
	"Llama-3-405B c64 t262144 opt=false":     0x354ef8715f3838e9,
	"Llama-3-405B c64 t2048 opt=true":        0xe2d5415c15be2ba4,
	"Llama-3-405B c64 t2048 opt=false":       0x6f3b3b6037ce5ae,
	"Llama-3-405B c64 t512 opt=true":         0x3e834ce5a59de0cd,
	"Llama-3-405B c64 t512 opt=false":        0xc44340507cf1e920,
	"Llama-3-405B c256 t1048576 opt=true":    0x68b56a432e4f068,
	"Llama-3-405B c256 t1048576 opt=false":   0x719e284ec14de89b,
	"Llama-3-405B c256 t2048 opt=true":       0x8b20a5d63aa25598,
	"Llama-3-405B c256 t2048 opt=false":      0xcc6caa666dcb124f,
	"Llama-3-405B c256 t512 opt=true":        0xbc89e37ca679df7a,
	"Llama-3-405B c256 t512 opt=false":       0x12faaa5aeb8fd26b,
	"Llama-3-405B c1024 t4194304 opt=true":   0x4bfd6325410f67bb,
	"Llama-3-405B c1024 t4194304 opt=false":  0x86217129f09ffb06,
	"Llama-3-405B c1024 t2048 opt=true":      0x3f53de05e5825447,
	"Llama-3-405B c1024 t2048 opt=false":     0x2f31b6106ad56b,
	"Llama-3-405B c1024 t512 opt=true":       0x89836dfefae2d4c0,
	"Llama-3-405B c1024 t512 opt=false":      0xa6aeddf8d27aa9b2,
	"Llama-3-405B c4096 t16777216 opt=true":  0xe1fddc778962c6b2,
	"Llama-3-405B c4096 t16777216 opt=false": 0xaac416e9f4e63312,
	"Llama-3-405B c4096 t2048 opt=true":      0x384c95cc5ae066a1,
	"Llama-3-405B c4096 t2048 opt=false":     0xa957bf2b438ca22e,
	"Llama-3-405B c4096 t512 opt=true":       0x75f11d68f9dc9154,
	"Llama-3-405B c4096 t512 opt=false":      0x4e331f615fea3bcb,
	"PaLM-540B c16 t16384 opt=true":          0xba1550c839857ae1,
	"PaLM-540B c16 t16384 opt=false":         0x5a409b77afb82280,
	"PaLM-540B c16 t2048 opt=true":           0xce0537101240bfb0,
	"PaLM-540B c16 t2048 opt=false":          0x6a7161a5d39402d8,
	"PaLM-540B c16 t512 opt=true":            0x76c27d8bede39454,
	"PaLM-540B c16 t512 opt=false":           0x3f977a684135b1d2,
	"PaLM-540B c64 t65536 opt=true":          0xca229e5a758cabed,
	"PaLM-540B c64 t65536 opt=false":         0xd233801ee7e48e39,
	"PaLM-540B c64 t2048 opt=true":           0x47cb4a661ccfd4d1,
	"PaLM-540B c64 t2048 opt=false":          0x7a58903377686ef7,
	"PaLM-540B c64 t512 opt=true":            0xbf62626e858a1eee,
	"PaLM-540B c64 t512 opt=false":           0x41d97a1a1137f338,
	"PaLM-540B c256 t262144 opt=true":        0xfb37c135b3c97668,
	"PaLM-540B c256 t262144 opt=false":       0xc3fbd9dbf6a5e2f1,
	"PaLM-540B c256 t2048 opt=true":          0x34df817d2d0a3ef4,
	"PaLM-540B c256 t2048 opt=false":         0x4d7ea8ed817b2506,
	"PaLM-540B c256 t512 opt=true":           0x13ed764a866b5a6,
	"PaLM-540B c256 t512 opt=false":          0x244fc6193a631232,
	"PaLM-540B c1024 t1048576 opt=true":      0xeb55ee888d23312,
	"PaLM-540B c1024 t1048576 opt=false":     0xb92322e0bb7a0ba9,
	"PaLM-540B c1024 t2048 opt=true":         0xc374543068836f95,
	"PaLM-540B c1024 t2048 opt=false":        0x727c18f0578f623b,
	"PaLM-540B c1024 t512 opt=true":          0x4476ab1125c29768,
	"PaLM-540B c1024 t512 opt=false":         0xddbe046d7c31d1b1,
	"PaLM-540B c4096 t4194304 opt=true":      0x69585437b9e78e14,
	"PaLM-540B c4096 t4194304 opt=false":     0xec795adf0d5433e3,
	"PaLM-540B c4096 t2048 opt=true":         0x912fd1d08daa0eb7,
	"PaLM-540B c4096 t2048 opt=false":        0x16b7fa650cedcecc,
	"PaLM-540B c4096 t512 opt=true":          0xbee456039340b647,
	"PaLM-540B c4096 t512 opt=false":         0xc13f17703b8a06a1,
}

var goldenFaults = map[string]uint64{
	"col-degrade c16": 0x6bec7b9c0c0b3f68,
	"col-degrade c64": 0xf5c14ca94b8c6cd5,
}

var goldenExhaustive = map[string]uint64{
	"exhaustive GPT-3 4x4": 0x370627752a272f30,
	"gap GPT-3 4x4":        0x6af60e89db51ebe1,
	"exhaustive GPT-3 8x8": 0xfd3e7e160e517106,
	"gap GPT-3 8x8":        0x1b9f85c7cc729945,
	"exhaustive tiny 4x4":  0x650f4628d2e2e7a7,
	"gap tiny 4x4":         0x7f288d3535c91169,
	"exhaustive tiny 8x8":  0x746baab31e67ded1,
	"gap tiny 8x8":         0x1ad3fa1b1b22fc19,
}

var goldenSearch = map[string]uint64{
	"GPT-3 c1024 #0":        0x8c3680f585d63830,
	"GPT-3 c1024 #1":        0xcf71c5e7918dd05c,
	"GPT-3 c1024 #2":        0xcf0d665ec2bbc154,
	"GPT-3 c1024 #3":        0x1f3b18b6f55eb61,
	"GPT-3 c1024 #4":        0xa5f364f6ff74d7ab,
	"Megatron-NLG c2048 #0": 0x57e5461999b6f2a9,
	"Megatron-NLG c2048 #1": 0x9c3d052a31a0a79c,
	"Megatron-NLG c2048 #2": 0xee37f06d3b342528,
	"Megatron-NLG c2048 #3": 0x46a6ca62a56137bf,
	"Megatron-NLG c2048 #4": 0x8b99e4d5f3815fd7,
}

// goldenMetrics pins the Tune metrics snapshot of each row: digest is over
// its JSON with autotune_costmodel_calls left out, and costmodelCalls is
// that counter, declared on its own so its meaning can change in one place.
//
// autotune_costmodel_calls counts the evaluations actually run. It was 648
// for the GPT-3 row while every pass ran its own slice-count search; each
// shape now searches each distinct problem once, and FF2's three problems
// repeat FF1's there, so 3 of 12 searches (162 evaluations) are gone. The
// Megatron-NLG row's small-token plan repeats no problem and keeps its count.
var goldenMetrics = map[string]struct {
	digest         uint64
	costmodelCalls float64
}{
	"GPT-3 c64 t32768":         {0x7a5071fe62933fbb, 486},
	"Megatron-NLG c1024 t2048": {0x2e621cc7350e3c6c, 264},
}

type digest struct{ h hash.Hash64 }

func (d digest) u(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d digest) f(v float64) { d.u(math.Float64bits(v)) }

func (d digest) choice(c autotune.Choice) {
	d.u(uint64(c.Shape.Rows))
	d.u(uint64(c.Shape.Cols))
	d.f(c.BlockTime)
	d.u(uint64(len(c.Layers)))
	for _, l := range c.Layers {
		d.u(uint64(l.Plan.Stationary))
		for _, p := range l.Passes {
			d.u(uint64(p.Problem.M))
			d.u(uint64(p.Problem.N))
			d.u(uint64(p.Problem.K))
			d.u(uint64(p.Problem.Dataflow))
			d.u(uint64(p.S))
			e := p.Estimate
			d.f(e.Prologue)
			d.f(e.SteadyState)
			d.u(uint64(e.Iterations))
			d.f(e.Epilogue)
			d.f(e.CommTime)
			d.f(e.ComputeTime)
		}
	}
}

func choiceDigest(c autotune.Choice, err error) uint64 {
	h := fnv.New64a()
	if err != nil {
		fmt.Fprintf(h, "error: %v", err)
		return h.Sum64()
	}
	digest{h}.choice(c)
	return h.Sum64()
}

func checkGolden(t *testing.T, key string, got uint64, table map[string]uint64) {
	t.Helper()
	want, ok := table[key]
	if !ok {
		t.Errorf("no golden digest; add\n%q: %#x,", key, got)
		return
	}
	if got != want {
		t.Errorf("%s: result drifted: got %#x, want %#x", key, got, want)
	}
}

func checkRows(t *testing.T, table map[string]uint64, rows int) {
	t.Helper()
	if len(table) != rows {
		t.Errorf("table has %d rows, the sweep has %d", len(table), rows)
	}
}

// TestGoldenTune covers every builtin at five chip counts, at its
// weak-scaling token count and at two small ones (where the heuristic picks
// W-stn and X-stn plans), with and without dataflow optimisation.
func TestGoldenTune(t *testing.T) {
	chip := hw.TPUv4()
	rows := 0
	for _, cfg := range model.Builtins() {
		for _, chips := range []int{16, 64, 256, 1024, 4096} {
			for _, tokens := range []int{cfg.WeakScalingTokens(chips), 2048, 512} {
				for _, opt := range []bool{true, false} {
					key := fmt.Sprintf("%s c%d t%d opt=%v", cfg.Name, chips, tokens, opt)
					rows++
					c, err := autotune.Tune(cfg, tokens, chips, chip, autotune.Options{OptimizeDataflow: opt})
					checkGolden(t, key, choiceDigest(c, err), goldenTune)
				}
			}
		}
	}
	checkRows(t, goldenTune, rows)
}

func goldenTiny() model.Config {
	return model.Config{Name: "tiny", Layers: 1, Hidden: 256, Heads: 4, FFHidden: 1024, SeqLen: 128}
}

func TestGoldenTuneUnderFaults(t *testing.T) {
	chip := hw.TPUv4()
	rows := 0
	for _, chips := range []int{16, 64} {
		plan := &fault.Plan{}
		for c := 0; c < chips; c++ {
			plan.Degrades = append(plan.Degrades, fault.LinkDegrade{
				Link: fault.Link{Chip: c, Dir: topology.InterCol}, Factor: 6,
			})
		}
		key := fmt.Sprintf("col-degrade c%d", chips)
		rows++
		fc, err := autotune.TuneUnderFaults(goldenTiny(), 2048, chips, chip, plan, false, autotune.Options{})
		h := fnv.New64a()
		if err != nil {
			fmt.Fprintf(h, "error: %v", err)
		} else {
			d := digest{h}
			d.choice(fc.Choice)
			d.f(fc.SimTime)
			fmt.Fprintf(h, "%v", fc.Failed)
		}
		checkGolden(t, key, h.Sum64(), goldenFaults)
	}
	checkRows(t, goldenFaults, rows)
}

func TestGoldenExhaustive(t *testing.T) {
	chip := hw.TPUv4()
	rows := 0
	for _, cfg := range []model.Config{model.GPT3(), goldenTiny()} {
		for _, n := range []int{4, 8} {
			shape := topology.NewTorus(n, n)
			tokens := 2048
			if cfg.Name != "tiny" {
				tokens = cfg.WeakScalingTokens(n * n)
			}
			key := fmt.Sprintf("%s %dx%d", cfg.Name, n, n)

			h := fnv.New64a()
			c, ok := autotune.ExhaustiveDataflow(cfg, tokens, shape, chip, 0)
			fmt.Fprintf(h, "%v", ok)
			digest{h}.choice(c)
			rows++
			checkGolden(t, "exhaustive "+key, h.Sum64(), goldenExhaustive)

			h = fnv.New64a()
			he, ex, ok := autotune.HeuristicGap(cfg, tokens, shape, chip)
			fmt.Fprintf(h, "%v", ok)
			digest{h}.f(he)
			digest{h}.f(ex)
			rows++
			checkGolden(t, "gap "+key, h.Sum64(), goldenExhaustive)
		}
	}
	checkRows(t, goldenExhaustive, rows)
}

// TestGoldenClusterSearch pins the five fastest 3D plans of the planner,
// whose 2D TP candidates are priced by Tune on a single shape.
func TestGoldenClusterSearch(t *testing.T) {
	chip := hw.TPUv4()
	rows := 0
	for _, tc := range []struct {
		cfg   model.Config
		chips int
	}{{model.GPT3(), 1024}, {model.MegatronNLG(), 2048}} {
		plans := cluster.Search(tc.cfg, tc.chips, 512, chip, 8, cluster.Options{})
		if len(plans) < 5 {
			t.Fatalf("%s on %d chips: %d feasible plans, want ≥ 5", tc.cfg.Name, tc.chips, len(plans))
		}
		for i, ev := range plans[:5] {
			h := fnv.New64a()
			d := digest{h}
			p := ev.Plan
			for _, v := range []int{p.DP, p.PP, p.TPShape.Rows, p.TPShape.Cols, p.Microbatches} {
				d.u(uint64(v))
			}
			for _, v := range []float64{ev.StepTime, ev.TPTime, ev.BubbleTime, ev.DPSyncTime} {
				d.f(v)
			}
			fmt.Fprintf(h, "%v", ev.FitsHBM)
			rows++
			checkGolden(t, fmt.Sprintf("%s c%d #%d", tc.cfg.Name, tc.chips, i), h.Sum64(), goldenSearch)
		}
	}
	checkRows(t, goldenSearch, rows)
}

func TestGoldenTuneMetrics(t *testing.T) {
	chip := hw.TPUv4()
	rows := 0
	for _, tc := range []struct {
		cfg           model.Config
		tokens, chips int
	}{{model.GPT3(), 1 << 15, 64}, {model.MegatronNLG(), 2048, 1024}} {
		key := fmt.Sprintf("%s c%d t%d", tc.cfg.Name, tc.chips, tc.tokens)
		rows++
		reg := obs.NewRegistry()
		if _, err := autotune.Tune(tc.cfg, tc.tokens, tc.chips, chip, autotune.Options{OptimizeDataflow: true, Metrics: reg}); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		snap := reg.Snapshot()
		calls := -1.0
		kept := snap.Counters[:0]
		for _, c := range snap.Counters {
			if c.Name == "autotune_costmodel_calls" {
				calls = c.Value
				continue
			}
			kept = append(kept, c)
		}
		snap.Counters = kept
		var buf bytes.Buffer
		if err := snap.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(buf.Bytes())
		got := h.Sum64()
		want, ok := goldenMetrics[key]
		switch {
		case !ok:
			t.Errorf("no golden metrics; add\n%q: {%#x, %v},", key, got, calls)
		case got != want.digest:
			t.Errorf("%s: metrics snapshot drifted: got %#x, want %#x", key, got, want.digest)
		case calls != want.costmodelCalls: // lint:float-exact integer-valued counter
			t.Errorf("%s: autotune_costmodel_calls = %v, want %v", key, calls, want.costmodelCalls)
		}
	}
	if len(goldenMetrics) != rows {
		t.Errorf("metrics table has %d rows, the sweep has %d", len(goldenMetrics), rows)
	}
}
