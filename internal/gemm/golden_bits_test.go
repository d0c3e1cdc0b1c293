package gemm

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"meshslice/internal/mesh"
	"meshslice/internal/tensor"
	"meshslice/internal/topology"
)

// fineGeMMGolden pins the exact result bits of the functional GeMM as
// FNV-64a digests over the Float64bits of each assembled result, in
// row-major order. The "fine/" rows are the six ops of the benchmark's
// gemm_fine workload (4×4, S=32, Block=8, on one persistent mesh); the
// "512/" rows are the three dataflows at 512³ on 4×4, at both prefetch
// depths, of MeshSlice (S=4, Block=2) and of Wang. The literals were
// captured before the slicing and panel paths stopped copying, so a change
// to how data is sliced, gathered or viewed must leave every row untouched.
var fineGeMMGolden = map[string]uint64{
	"fine/meshslice/OS/serial":    0xcdbc28597b3742c4,
	"fine/meshslice/OS/pipelined": 0xcdbc28597b3742c4,
	"fine/meshslice/LS/serial":    0xc5d78bd690149b0d,
	"fine/meshslice/LS/pipelined": 0xc5d78bd690149b0d,
	"fine/wang/OS/serial":         0x1b27e10b0fe38789,
	"fine/wang/OS/pipelined":      0x1b27e10b0fe38789,
	"512/meshslice/OS/serial":     0xb904bd78a8470eb8,
	"512/meshslice/OS/pipelined":  0xb904bd78a8470eb8,
	"512/wang/OS/serial":          0x5fb0898d20636028,
	"512/wang/OS/pipelined":       0x5fb0898d20636028,
	"512/meshslice/LS/serial":     0xbf4eb6e7d82edc49,
	"512/meshslice/LS/pipelined":  0xbf4eb6e7d82edc49,
	"512/wang/LS/serial":          0xbf4eb6e7d82edc49,
	"512/wang/LS/pipelined":       0xbf4eb6e7d82edc49,
	"512/meshslice/RS/serial":     0x54bd781a85c80691,
	"512/meshslice/RS/pipelined":  0x54bd781a85c80691,
	"512/wang/RS/serial":          0x54bd781a85c80691,
	"512/wang/RS/pipelined":       0x54bd781a85c80691,
}

// bitsDigest is FNV-64a over m's element bits, little-endian, row-major.
func bitsDigest(m *tensor.Matrix) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range m.Data {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// goldenOp is one row of fineGeMMGolden.
type goldenOp struct {
	key  string
	prob Problem
	fn   ChipFunc
}

func goldenOps() []goldenOp {
	deepK := Problem{M: 64, N: 64, K: 8192, Dataflow: OS}
	wideN := Problem{M: 64, N: 8192, K: 64, Dataflow: LS}
	fine := func(pipelined bool) MeshSliceConfig { return MeshSliceConfig{S: 32, Block: 8, Pipelined: pipelined} }
	ops := []goldenOp{
		{"fine/meshslice/OS/serial", deepK, MeshSlice(OS, fine(false))},
		{"fine/meshslice/OS/pipelined", deepK, MeshSlice(OS, fine(true))},
		{"fine/meshslice/LS/serial", wideN, MeshSlice(LS, fine(false))},
		{"fine/meshslice/LS/pipelined", wideN, MeshSlice(LS, fine(true))},
		{"fine/wang/OS/serial", deepK, WangDataflow(OS)},
		{"fine/wang/OS/pipelined", deepK, WangPipelined(OS)},
	}
	for _, df := range []Dataflow{OS, LS, RS} {
		p := Problem{M: 512, N: 512, K: 512, Dataflow: df}
		for _, pipelined := range []bool{false, true} {
			depth := "serial"
			if pipelined {
				depth = "pipelined"
			}
			ops = append(ops, goldenOp{"512/meshslice/" + df.String() + "/" + depth, p, MeshSlice(df, MeshSliceConfig{S: 4, Block: 2, Pipelined: pipelined})})
			ops = append(ops, goldenOp{"512/wang/" + df.String() + "/" + depth, p, wang(df, pipelined)})
		}
	}
	return ops
}

// TestFineGeMMGoldenBits runs every row on one persistent 4×4 mesh, so the
// mesh's arenas and lanes, warm from the rows before, are exercised too, and
// requires each result to hash to the row's literal. Under -race only the
// fine rows run: they hold the many-slice buffer reuse the detector should
// watch, while the 512³ rows are kernel time it would slow twentyfold.
func TestFineGeMMGoldenBits(t *testing.T) {
	tor := topology.NewTorus(4, 4)
	m := mesh.New(tor)
	ops := goldenOps()
	for _, op := range ops {
		if raceDetector && !strings.HasPrefix(op.key, "fine/") {
			continue
		}
		a, b, ref := makeProblem(op.prob, 7)
		as := tensor.Partition(a, tor.Rows, tor.Cols)
		bs := tensor.Partition(b, tor.Rows, tor.Cols)
		got := tensor.Assemble(Run(m, op.fn, as, bs), tor.Rows, tor.Cols)
		if !got.Equal(ref, tol) {
			t.Fatalf("%s: wrong result (max diff %g)", op.key, got.MaxAbsDiff(ref))
		}
		if d := bitsDigest(got); d != fineGeMMGolden[op.key] {
			t.Errorf("%s: digest %#x; want row\n\t%q: %#x,", op.key, d, op.key, d)
		}
	}
	if len(fineGeMMGolden) != len(ops) {
		t.Errorf("golden table has %d rows, the op list %d", len(fineGeMMGolden), len(ops))
	}
}
