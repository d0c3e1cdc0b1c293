package netsim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"meshslice/internal/fault"
	"meshslice/internal/gemm"
	"meshslice/internal/sched"
	"meshslice/internal/topology"
)

// The golden table pins the simulator's arithmetic and event order: the
// literals in goldenBits were captured at the commit before the DES/netsim
// hot loop was rebuilt on slabs (PR 17) and every later change to the
// kernel or the grant path must reproduce them bit for bit. A deliberate
// model change regenerates the table from the test's failure output (each
// mismatch prints its row as a Go literal).

// goldenResult is the part of a Result the table pins: the float bit
// patterns, the completion count, whether the run halted, and a digest of
// everything observed (all-chip traces, chip-0 trace, critical path).
type goldenResult struct {
	makespan, exposed, commBusy uint64
	events                      int
	failed                      bool
	observed                    uint64
}

func goldenOf(r Result) goldenResult {
	h := fnv.New64a()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	events := func(tr Trace) {
		word(uint64(len(tr)))
		for _, e := range tr {
			word(uint64(e.Op))
			word(math.Float64bits(e.Start))
			word(math.Float64bits(e.End))
		}
	}
	events(r.Trace)
	for _, tr := range r.Traces {
		events(tr)
	}
	if cp := r.CritPath; cp != nil {
		for _, v := range []float64{cp.Attribution.Launch, cp.Attribution.Sync, cp.Attribution.Transfer, cp.Attribution.Compute} {
			word(math.Float64bits(v))
		}
		for _, st := range cp.Steps {
			word(uint64(st.Chip))
			word(uint64(st.Op))
			word(math.Float64bits(st.End))
		}
	}
	return goldenResult{
		makespan: math.Float64bits(r.Makespan),
		exposed:  math.Float64bits(r.ExposedComm),
		commBusy: math.Float64bits(r.CommBusy),
		events:   r.Events,
		failed:   r.Failed != nil,
		observed: h.Sum64(),
	}
}

func (g goldenResult) literal(key string) string {
	return fmt.Sprintf("%q: {%#x, %#x, %#x, %d, %v, %#x},",
		key, g.makespan, g.exposed, g.commBusy, g.events, g.failed, g.observed)
}

type goldenCase struct {
	name string
	prog *sched.Program
}

// goldenPrograms covers every 2D algorithm on a square and a skewed mesh
// (Cannon only runs on square meshes), a ReduceScatter dataflow, and both
// 3D arrangements.
func goldenPrograms() []goldenCase {
	sq, skew := topology.NewTorus(4, 4), topology.NewTorus(8, 4)
	ls := critProb
	ls.Dataflow = gemm.LS
	return []goldenCase{
		{"meshslice/4x4", sched.MeshSliceProgram(critProb, sq, testHW, 4)},
		{"meshslice/8x4", sched.MeshSliceProgram(critProb, skew, testHW, 8)},
		{"meshsliceLS/8x4", sched.MeshSliceProgram(ls, skew, testHW, 4)},
		{"wang/4x4", sched.WangProgram(critProb, sq, testHW, 4)},
		{"wang/8x4", sched.WangProgram(critProb, skew, testHW, 4)},
		{"summa/4x4", sched.SUMMAProgram(critProb, sq, testHW, 8)},
		{"summa/8x4", sched.SUMMAProgram(critProb, skew, testHW, 8)},
		{"cannon/4x4", sched.CannonProgram(critProb, sq, testHW)},
		{"collective/4x4", sched.CollectiveProgram(critProb, sq, testHW)},
		{"collective/8x4", sched.CollectiveProgram(critProb, skew, testHW)},
		{"2.5d/4x4x2", sched.TwoPointFiveDProgram(critProb.M, critProb.N, critProb.K, gemm.Grid3D{P: 4, C: 2}, testHW)},
		{"meshsliceDP/4x4x2", sched.MeshSliceDPProgram(critProb, sq, 2, testHW, 4)},
	}
}

type goldenVariant struct {
	name string
	opts Options
}

// goldenVariants are the option sets the table crosses every program with.
// deadLink kills chip 0's inter-col link halfway through a typical run, so
// the plain variant halts with Result.Failed and the reroute variant
// detours; stretchPlan keeps every program alive under degraded links and
// a straggler.
func goldenVariants() []goldenVariant {
	deadLink := &fault.Plan{
		Degrades:  []fault.LinkDegrade{{Link: fault.Link{Chip: 1, Dir: topology.InterRow}, Factor: 2, Start: 1e-4, End: 2e-3}},
		LinkFails: []fault.LinkFail{{Link: fault.Link{Chip: 0, Dir: topology.InterCol}, At: 5e-4}},
	}
	return []goldenVariant{
		{"default", Options{}},
		{"noOverlap", Options{NoOverlap: true}},
		{"stepLevel", Options{StepLevel: true}},
		{"fabric1.5", Options{FabricContention: 1.5}},
		{"bidir", Options{BidirectionalRings: true}},
		{"observed", Options{CriticalPath: true, TraceAllChips: true, CollectTrace: true}},
		{"stretch", Options{Faults: stretchPlan()}},
		{"stretchStepLevel", Options{Faults: stretchPlan(), StepLevel: true, TraceAllChips: true}},
		{"deadLink", Options{Faults: deadLink}},
		{"deadLinkReroute", Options{Faults: deadLink, FaultReroute: true}},
	}
}

func TestGoldenBitIdentity(t *testing.T) {
	halted := 0
	for _, c := range goldenPrograms() {
		for _, v := range goldenVariants() {
			key := c.name + " " + v.name
			got := goldenOf(Simulate(c.prog, testHW, v.opts))
			want, ok := goldenBits[key]
			if !ok {
				t.Errorf("no golden row; add\n%s", got.literal(key))
				continue
			}
			if got != want {
				t.Errorf("%s drifted from the golden table (makespan %v, was %v); got row\n%s",
					key, math.Float64frombits(got.makespan), math.Float64frombits(want.makespan), got.literal(key))
			}
			if got.failed {
				halted++
			}
		}
	}
	if halted == 0 {
		t.Errorf("no golden row halts with Result.Failed; the fault variants lost their coverage")
	}
	if want := len(goldenPrograms()) * len(goldenVariants()); len(goldenBits) != want {
		t.Errorf("golden table has %d rows, the cross product has %d", len(goldenBits), want)
	}
}
