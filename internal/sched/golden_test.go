package sched

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"meshslice/internal/gemm"
	"meshslice/internal/topology"
)

// programDigest is an FNV-64a over every field of every op in order, the
// label and the 3D grid: two programs with equal digests have the same
// names, numbers and dependency lists.
func programDigest(p *Program) uint64 {
	h := fnv.New64a()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	str := func(s string) {
		word(uint64(len(s)))
		h.Write([]byte(s))
	}
	str(p.Label)
	word(uint64(p.Torus.Rows))
	word(uint64(p.Torus.Cols))
	if g := p.Grid3; g != nil {
		word(uint64(g.Rows))
		word(uint64(g.Cols))
		word(uint64(g.Depth))
	}
	word(uint64(len(p.Ops)))
	for i := range p.Ops {
		op := &p.Ops[i]
		word(uint64(op.Kind))
		str(op.Name)
		word(uint64(op.Dir))
		word(math.Float64bits(op.Bytes))
		word(uint64(op.Steps))
		word(uint64(op.Packets))
		word(math.Float64bits(op.FLOPs))
		word(uint64(op.M))
		word(uint64(op.N))
		word(uint64(op.K))
		word(math.Float64bits(op.HBMBytes))
		word(uint64(len(op.Deps)))
		for _, d := range op.Deps {
			word(uint64(d))
		}
	}
	return h.Sum64()
}

type namedProgram struct {
	key   string
	build func() *Program
}

// goldenPrograms lists every builder over the shapes that reach each of
// its branches: both ring directions present or degenerate, S = 1 and
// S > 1, iteration counts inside and past the name table, and unrolling.
func goldenPrograms() []namedProgram {
	var out []namedProgram
	add := func(key string, build func() *Program) {
		out = append(out, namedProgram{key, build})
	}
	dfs := []gemm.Dataflow{gemm.OS, gemm.LS, gemm.RS}
	tori := []topology.Torus{
		topology.NewTorus(8, 8), topology.NewTorus(4, 8),
		topology.NewTorus(1, 8), topology.NewTorus(8, 1),
	}
	for _, tor := range tori {
		for _, df := range dfs {
			prob := gemm.Problem{M: 4096, N: 2048, K: 8192, Dataflow: df}
			for _, S := range []int{1, 2, 8, 32} {
				add(fmt.Sprintf("MeshSlice %v %dx%d S=%d", df, tor.Rows, tor.Cols, S), func() *Program {
					return MeshSliceProgram(prob, tor, testHW, S)
				})
			}
			add(fmt.Sprintf("Collective %v %dx%d", df, tor.Rows, tor.Cols), func() *Program {
				return CollectiveProgram(prob, tor, testHW)
			})
		}
	}
	for _, df := range dfs {
		prob := gemm.Problem{M: 4096, N: 2048, K: 8192, Dataflow: df}
		for _, iters := range []int{0, 512} {
			add(fmt.Sprintf("SUMMA %v 4x8 P=%d", df, iters), func() *Program {
				return SUMMAProgram(prob, topology.NewTorus(4, 8), testHW, iters)
			})
		}
	}
	osProb := gemm.Problem{M: 4096, N: 2048, K: 8192, Dataflow: gemm.OS}
	for _, n := range []int{4, 8} {
		add(fmt.Sprintf("Cannon %dx%d", n, n), func() *Program {
			return CannonProgram(osProb, topology.NewTorus(n, n), testHW)
		})
	}
	// OS streams A on 4x8 (the costlier AllGather is the column one) and B
	// on 8x4.
	wang := []struct {
		df  gemm.Dataflow
		tor topology.Torus
	}{
		{gemm.OS, topology.NewTorus(4, 8)}, {gemm.OS, topology.NewTorus(8, 4)},
		{gemm.LS, topology.NewTorus(4, 8)}, {gemm.RS, topology.NewTorus(4, 8)},
	}
	for _, w := range wang {
		prob := gemm.Problem{M: 4096, N: 4096, K: 4096, Dataflow: w.df}
		for _, unroll := range []int{0, 2} {
			add(fmt.Sprintf("Wang %v %dx%d U=%d", w.df, w.tor.Rows, w.tor.Cols, unroll), func() *Program {
				return WangProgram(prob, w.tor, testHW, unroll)
			})
		}
	}
	add("1DTP 8", func() *Program { return OneDTPProgram(1024, 512, 2048, 8, testHW) })
	add("FSDP 8", func() *Program { return FSDPProgram(1024, 512, 2048, 8, testHW) })
	for _, g := range []gemm.Grid3D{{P: 4, C: 2}, {P: 4, C: 1}, {P: 8, C: 2}} {
		add(fmt.Sprintf("2.5D %dx%dx%d", g.P, g.P, g.C), func() *Program {
			return TwoPointFiveDProgram(1024, 1024, 1024, g, testHW)
		})
	}
	for _, depth := range []int{1, 2} {
		add(fmt.Sprintf("MeshSliceDP 4x4x%d", depth), func() *Program {
			return MeshSliceDPProgram(osProb, topology.NewTorus(4, 4), depth, testHW, 4)
		})
	}
	return out
}

// TestProgramGoldenDigests pins every builder's output bit for bit: the
// digests were captured before the builders moved to interned names and a
// shared dependency arena, and any later change to how a program is built
// must reproduce them. A missing or changed row prints its Go literal.
func TestProgramGoldenDigests(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range goldenPrograms() {
		if seen[c.key] {
			t.Fatalf("duplicate golden key %q", c.key)
		}
		seen[c.key] = true
		got := programDigest(c.build())
		want, ok := programGolden[c.key]
		if !ok {
			t.Errorf("no golden row; add\n%q: %#x,", c.key, got)
			continue
		}
		if got != want {
			t.Errorf("%s: digest %#x, want %#x; if the change is deliberate, use\n%q: %#x,",
				c.key, got, want, c.key, got)
		}
	}
	for key := range programGolden {
		if !seen[key] {
			t.Errorf("golden row %q matches no program", key)
		}
	}
}

var programGolden = map[string]uint64{
	"MeshSlice OS 8x8 S=1":  0x648449f17977b6eb,
	"MeshSlice OS 8x8 S=2":  0xd89e7e1948d3d4be,
	"MeshSlice OS 8x8 S=8":  0x5866a75163753e9b,
	"MeshSlice OS 8x8 S=32": 0x68e1e4dabeedb4d1,
	"Collective OS 8x8":     0x32dccda7e2b05886,
	"MeshSlice LS 8x8 S=1":  0x195b1d40dc847681,
	"MeshSlice LS 8x8 S=2":  0x6ee8c6e34fa6e463,
	"MeshSlice LS 8x8 S=8":  0x908de564f536b6e0,
	"MeshSlice LS 8x8 S=32": 0xd876424a384abbc2,
	"Collective LS 8x8":     0xf1f1a864db99759a,
	"MeshSlice RS 8x8 S=1":  0x9cc3a4ecf5a23048,
	"MeshSlice RS 8x8 S=2":  0x15b45eb30f39cf8f,
	"MeshSlice RS 8x8 S=8":  0x8efee8b3fae848d6,
	"MeshSlice RS 8x8 S=32": 0xaca1d50163400652,
	"Collective RS 8x8":     0x5c93ceb867555c9f,
	"MeshSlice OS 4x8 S=1":  0xd657fadc65a7da91,
	"MeshSlice OS 4x8 S=2":  0x9af2518770d4b2b2,
	"MeshSlice OS 4x8 S=8":  0xaeb013d12178a527,
	"MeshSlice OS 4x8 S=32": 0x6b63d753747ed04f,
	"Collective OS 4x8":     0xf79e4b8f309367f0,
	"MeshSlice LS 4x8 S=1":  0xed5146cc30b32951,
	"MeshSlice LS 4x8 S=2":  0x856e28e9160158f7,
	"MeshSlice LS 4x8 S=8":  0x877ec99689888e94,
	"MeshSlice LS 4x8 S=32": 0x8bfd565f41d245f0,
	"Collective LS 4x8":     0x499aa7deb286b9c6,
	"MeshSlice RS 4x8 S=1":  0xbe5b4e7e5de8fd88,
	"MeshSlice RS 4x8 S=2":  0x5c6497142d9640f3,
	"MeshSlice RS 4x8 S=8":  0xc243d478ae5b0ca2,
	"MeshSlice RS 4x8 S=32": 0x2eca65f01f6e8cbc,
	"Collective RS 4x8":     0xbefd4bb374bc2cc7,
	"MeshSlice OS 1x8 S=1":  0x6d51feac654205aa,
	"MeshSlice OS 1x8 S=2":  0xd735328d1976c263,
	"MeshSlice OS 1x8 S=8":  0xc06a1f661a5b4582,
	"MeshSlice OS 1x8 S=32": 0xb26cb267bdc1314c,
	"Collective OS 1x8":     0x47424ec484173887,
	"MeshSlice LS 1x8 S=1":  0xebe21ccf0f9eb87,
	"MeshSlice LS 1x8 S=2":  0xa25f039d4b04c668,
	"MeshSlice LS 1x8 S=8":  0x1d184dc6d2d2a7a1,
	"MeshSlice LS 1x8 S=32": 0xf612e5cf470bada1,
	"Collective LS 1x8":     0x8ea8df2600087c4c,
	"MeshSlice RS 1x8 S=1":  0x8fa77206b4d8c967,
	"MeshSlice RS 1x8 S=2":  0x96352bb1e2da6d4a,
	"MeshSlice RS 1x8 S=8":  0x9efa6d35ee59d98f,
	"MeshSlice RS 1x8 S=32": 0xdefa96590a62a6a1,
	"Collective RS 1x8":     0x35346399f98398f6,
	"MeshSlice OS 8x1 S=1":  0xf2cae7ce7bfcaf9d,
	"MeshSlice OS 8x1 S=2":  0xe3fafd3d500b71ad,
	"MeshSlice OS 8x1 S=8":  0x82f0cf4331973cea,
	"MeshSlice OS 8x1 S=32": 0x123a88b5b0208a52,
	"Collective OS 8x1":     0x8293f1a1e8c0a9e4,
	"MeshSlice LS 8x1 S=1":  0x2db639742314482e,
	"MeshSlice LS 8x1 S=2":  0x49ed328628aec1a2,
	"MeshSlice LS 8x1 S=8":  0x58877b7131f6ac1,
	"MeshSlice LS 8x1 S=32": 0xd1774805485ee31b,
	"Collective LS 8x1":     0xf803f53a48d323b3,
	"MeshSlice RS 8x1 S=1":  0x94e499625a794f32,
	"MeshSlice RS 8x1 S=2":  0x4cc7ea4aea7214e6,
	"MeshSlice RS 8x1 S=8":  0x46876c0c85c9a8a7,
	"MeshSlice RS 8x1 S=32": 0xbddbdfa78a77005b,
	"Collective RS 8x1":     0xa363126d838e3cc9,
	"SUMMA OS 4x8 P=0":      0xd3d70db43fb95dba,
	"SUMMA OS 4x8 P=512":    0x84592f4ab316eaf2,
	"SUMMA LS 4x8 P=0":      0x8a0250ca3ef6f4a5,
	"SUMMA LS 4x8 P=512":    0x8829db239b238311,
	"SUMMA RS 4x8 P=0":      0x8549929d3012fa07,
	"SUMMA RS 4x8 P=512":    0x669345d09e8bd13,
	"Cannon 4x4":            0x61287a464f303543,
	"Cannon 8x8":            0xac06a88c6ebb80c7,
	"Wang OS 4x8 U=0":       0x5ba91b20dfd894fd,
	"Wang OS 4x8 U=2":       0x8d9dd7a95ac3ec95,
	"Wang OS 8x4 U=0":       0x7a07b51507b39c4e,
	"Wang OS 8x4 U=2":       0xedd8e2d18a1e9fdb,
	"Wang LS 4x8 U=0":       0x54ceaa5bacecd1cb,
	"Wang LS 4x8 U=2":       0xdc3b0d4b9f2f84e4,
	"Wang RS 4x8 U=0":       0x5f58e667ea7aa925,
	"Wang RS 4x8 U=2":       0xa30b36a4cb846da1,
	"1DTP 8":                0x9e7623d3674b82b4,
	"FSDP 8":                0x1aa834e24969331c,
	"2.5D 4x4x2":            0x90ba82ef3f186c80,
	"2.5D 4x4x1":            0xf145864aec9f913d,
	"2.5D 8x8x2":            0x1b450ab19f8a0460,
	"MeshSliceDP 4x4x1":     0xba8400e44285d783,
	"MeshSliceDP 4x4x2":     0x6d2190a2f4f79a45,
}

// TestBuildAllocationGate: building a program allocates a fixed number of
// objects whatever its slice count, iteration count or ring size — the
// Program, its op list, its dependency arena and, for most, the formatted
// label and the 3D grid, at most 6 — and every dependency list is a window with no
// spare capacity, so a reader's append cannot overwrite a neighbour's.
func TestBuildAllocationGate(t *testing.T) {
	prob := func(df gemm.Dataflow) gemm.Problem {
		return gemm.Problem{M: 8192, N: 8192, K: 8192, Dataflow: df}
	}
	sq := func(n int) topology.Torus { return topology.NewTorus(n, n) }
	tor := topology.NewTorus(8, 8)
	builders := []struct {
		name    string
		objects int                  // the Program, ops, arena, label, grid
		build   func(n int) *Program // n: S, iterations or ring size
	}{
		{"MeshSlice OS", 4, func(S int) *Program { return MeshSliceProgram(prob(gemm.OS), tor, testHW, S) }},
		{"MeshSlice LS", 4, func(S int) *Program { return MeshSliceProgram(prob(gemm.LS), tor, testHW, S) }},
		{"MeshSlice RS", 4, func(S int) *Program { return MeshSliceProgram(prob(gemm.RS), tor, testHW, S) }},
		{"Collective OS", 4, func(n int) *Program { return CollectiveProgram(prob(gemm.OS), sq(n), testHW) }},
		{"SUMMA OS", 4, func(it int) *Program { return SUMMAProgram(prob(gemm.OS), tor, testHW, it) }},
		{"SUMMA LS", 4, func(it int) *Program { return SUMMAProgram(prob(gemm.LS), tor, testHW, it) }},
		{"SUMMA RS", 4, func(it int) *Program { return SUMMAProgram(prob(gemm.RS), tor, testHW, it) }},
		{"Cannon", 3, func(n int) *Program { return CannonProgram(prob(gemm.OS), sq(n), testHW) }},
		{"Wang OS", 4, func(n int) *Program { return WangProgram(prob(gemm.OS), sq(n), testHW, 0) }},
		{"Wang LS", 4, func(n int) *Program { return WangProgram(prob(gemm.LS), sq(n), testHW, 0) }},
		{"Wang RS unrolled", 4, func(n int) *Program {
			return WangProgram(prob(gemm.RS), topology.NewTorus(2, 64), testHW, n)
		}},
		{"1DTP", 3, func(n int) *Program { return OneDTPProgram(8192, 8192, 8192, n, testHW) }},
		{"FSDP", 3, func(n int) *Program { return FSDPProgram(8192, 8192, 8192, n, testHW) }},
		{"2.5D", 5, func(n int) *Program {
			return TwoPointFiveDProgram(8192, 8192, 8192, gemm.Grid3D{P: n, C: 2}, testHW)
		}},
		{"MeshSlice+DP", 5, func(S int) *Program { return MeshSliceDPProgram(prob(gemm.OS), tor, 2, testHW, S) }},
	}
	for _, b := range builders {
		if raceDetector {
			checkDepWindows(t, b.name, b.build(32))
			continue
		}
		var counts [2]float64
		for i, n := range []int{4, 32} {
			checkDepWindows(t, b.name, b.build(n))
			counts[i] = testing.AllocsPerRun(20, func() { b.build(n) })
		}
		t.Logf("%s: %.0f objects at 4, %.0f at 32", b.name, counts[0], counts[1])
		// An exact count also catches an arena sized too small: its one
		// regrowth is an extra object at every size.
		if counts[0] != float64(b.objects) || counts[1] != float64(b.objects) || b.objects > 6 {
			t.Errorf("%s allocates %.0f objects at 4 and %.0f at 32, want %d (at most 6) at both",
				b.name, counts[0], counts[1], b.objects)
		}
	}
	for _, c := range goldenPrograms() {
		checkDepWindows(t, c.key, c.build())
	}
}

// TestNameFamiliesAreDistinct: the family constants are numbered by hand,
// so every number below numFamilies must have its own prefix, and the
// interned names must equal the concatenation they stand for.
func TestNameFamiliesAreDistinct(t *testing.T) {
	seen := map[string]bool{}
	for f, prefix := range familyPrefix {
		if prefix == "" || seen[prefix] {
			t.Errorf("family %d has prefix %q: empty or shared", f, prefix)
		}
		seen[prefix] = true
		for _, i := range []int{0, 9, 10, 255} {
			if got, want := internedNames[f][i], fmt.Sprintf("%s%d", prefix, i); got != want {
				t.Errorf("family %d index %d is named %q, want %q", f, i, got, want)
			}
		}
	}
}

// raceDetector reports whether the tests run under -race (set in
// race_on_test.go), whose instrumentation allocates on its own.
var raceDetector bool

func checkDepWindows(t *testing.T, name string, p *Program) {
	t.Helper()
	for i := range p.Ops {
		if d := p.Ops[i].Deps; cap(d) != len(d) {
			t.Errorf("%s: op %d (%s) has %d deps in a list of capacity %d", name, i, p.Ops[i].Name, len(d), cap(d))
			return
		}
	}
}
