package sched

import (
	"strings"
	"testing"

	"meshslice/internal/gemm"
	"meshslice/internal/hw"
	"meshslice/internal/topology"
)

var testHW = hw.TPUv4()

func validate(t *testing.T, p *Program) {
	t.Helper()
	if err := p.Validate(); err != nil {
		t.Fatalf("%s: %v", p.Label, err)
	}
}

func countKind(p *Program, k OpKind) int {
	n := 0
	for _, op := range p.Ops {
		if op.Kind == k {
			n++
		}
	}
	return n
}

func TestMeshSliceProgramStructureOS(t *testing.T) {
	tor := topology.NewTorus(4, 8)
	prob := gemm.Problem{M: 1024, N: 512, K: 2048, Dataflow: gemm.OS}
	const S = 4
	p := MeshSliceProgram(prob, tor, testHW, S)
	validate(t, p)
	if got := countKind(p, AllGather); got != 2*S {
		t.Errorf("OS AllGather count = %d, want %d", got, 2*S)
	}
	if got := countKind(p, Compute); got != S {
		t.Errorf("OS Compute count = %d, want %d", got, S)
	}
	if got := countKind(p, Slice); got != 2*S {
		t.Errorf("OS Slice count = %d, want %d", got, 2*S)
	}
	if got := countKind(p, ReduceScatter); got != 0 {
		t.Errorf("OS must not reduce-scatter, got %d", got)
	}
	// Total compute must equal the chip's share of the full GeMM.
	want := 2.0 * 1024 / 4 * 512 / 8 * 2048
	if got := p.TotalFLOPs(); got != want {
		t.Errorf("TotalFLOPs = %g, want %g", got, want)
	}
}

func TestMeshSliceProgramStructureLSRS(t *testing.T) {
	tor := topology.NewTorus(4, 8)
	const S = 2
	for _, df := range []gemm.Dataflow{gemm.LS, gemm.RS} {
		prob := gemm.Problem{M: 1024, N: 512, K: 2048, Dataflow: df}
		p := MeshSliceProgram(prob, tor, testHW, S)
		validate(t, p)
		if got := countKind(p, AllGather); got != S {
			t.Errorf("%v AllGather count = %d, want %d", df, got, S)
		}
		if got := countKind(p, ReduceScatter); got != S {
			t.Errorf("%v ReduceScatter count = %d, want %d", df, got, S)
		}
		want := 2.0 * 1024 / 4 * 512 / 8 * 2048
		if got := p.TotalFLOPs(); got != want {
			t.Errorf("%v TotalFLOPs = %g, want %g", df, got, want)
		}
	}
}

func TestMeshSliceProgramS1HasNoSliceOps(t *testing.T) {
	tor := topology.NewTorus(2, 2)
	prob := gemm.Problem{M: 64, N: 64, K: 64, Dataflow: gemm.OS}
	p := MeshSliceProgram(prob, tor, testHW, 1)
	if got := countKind(p, Slice); got != 0 {
		t.Errorf("S=1 program has %d slice ops", got)
	}
}

func TestMeshSliceProgramDegenerateRings(t *testing.T) {
	// On a 1×4 mesh there is no inter-row communication.
	tor := topology.NewTorus(1, 4)
	prob := gemm.Problem{M: 64, N: 64, K: 64, Dataflow: gemm.OS}
	p := MeshSliceProgram(prob, tor, testHW, 2)
	validate(t, p)
	for _, op := range p.Ops {
		if op.Kind.IsComm() && op.Dir == topology.InterRow {
			t.Errorf("1-row mesh emitted inter-row op %q", op.Name)
		}
	}
}

func TestCollectiveProgramLabel(t *testing.T) {
	p := CollectiveProgram(gemm.Problem{M: 8, N: 8, K: 8, Dataflow: gemm.LS}, topology.NewTorus(2, 2), testHW)
	if !strings.HasPrefix(p.Label, "Collective") {
		t.Errorf("label = %q", p.Label)
	}
	validate(t, p)
}

func TestSUMMAProgramStructure(t *testing.T) {
	tor := topology.NewTorus(4, 8)
	prob := gemm.Problem{M: 1024, N: 512, K: 2048, Dataflow: gemm.OS}
	p := SUMMAProgram(prob, tor, testHW, 8)
	validate(t, p)
	if got := countKind(p, Broadcast); got != 16 {
		t.Errorf("SUMMA bcast count = %d, want 16", got)
	}
	want := 2.0 * 1024 / 4 * 512 / 8 * 2048
	if got := p.TotalFLOPs(); got != want {
		t.Errorf("TotalFLOPs = %g, want %g", got, want)
	}
	// Pipeline stage count includes bubbles: ring + packets - 2.
	for _, op := range p.Ops {
		if op.Kind == Broadcast && op.Dir == topology.InterCol {
			if op.Steps != tor.Cols+testHW.BcastPackets-2 {
				t.Errorf("bcast_col steps = %d, want %d", op.Steps, tor.Cols+testHW.BcastPackets-2)
			}
		}
	}
}

func TestSUMMAProgramDefaultsToLCM(t *testing.T) {
	tor := topology.NewTorus(4, 6)
	prob := gemm.Problem{M: 96, N: 96, K: 96, Dataflow: gemm.OS}
	p := SUMMAProgram(prob, tor, testHW, 0)
	if got := countKind(p, Compute); got != 12 { // lcm(4,6)
		t.Errorf("default iterations = %d, want 12", got)
	}
}

func TestSUMMAProgramLSReduces(t *testing.T) {
	tor := topology.NewTorus(4, 4)
	prob := gemm.Problem{M: 256, N: 256, K: 256, Dataflow: gemm.LS}
	p := SUMMAProgram(prob, tor, testHW, 4)
	validate(t, p)
	if got := countKind(p, Reduce); got != 4 {
		t.Errorf("SUMMA LS reduce count = %d, want 4", got)
	}
	if got := countKind(p, Broadcast); got != 4 {
		t.Errorf("SUMMA LS bcast count = %d, want 4", got)
	}
}

func TestCannonProgramStructure(t *testing.T) {
	tor := topology.NewTorus(4, 4)
	prob := gemm.Problem{M: 256, N: 256, K: 256, Dataflow: gemm.OS}
	p := CannonProgram(prob, tor, testHW)
	validate(t, p)
	if got := countKind(p, Compute); got != 4 {
		t.Errorf("Cannon compute count = %d, want 4", got)
	}
	// 2 skews + 2·(P-1) loop shifts.
	if got := countKind(p, Shift); got != 2+2*3 {
		t.Errorf("Cannon shift count = %d, want 8", got)
	}
	want := 2.0 * 256 / 4 * 256 / 4 * 256
	if got := p.TotalFLOPs(); got != want {
		t.Errorf("TotalFLOPs = %g, want %g", got, want)
	}
}

func TestCannonProgramRejectsRectangular(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("rectangular Cannon should panic")
		}
	}()
	CannonProgram(gemm.Problem{M: 8, N: 8, K: 8, Dataflow: gemm.OS}, topology.NewTorus(2, 4), testHW)
}

func TestWangProgramStructure(t *testing.T) {
	tor := topology.NewTorus(4, 8)
	prob := gemm.Problem{M: 1024, N: 512, K: 2048, Dataflow: gemm.OS}
	p := WangProgram(prob, tor, testHW, 0)
	validate(t, p)
	if got := countKind(p, AllGather); got != 1 {
		t.Errorf("Wang AG count = %d, want 1 (only the non-overlapped direction)", got)
	}
	if got := countKind(p, Shift); got != tor.Cols-1 {
		t.Errorf("Wang shift count = %d, want %d", got, tor.Cols-1)
	}
	if got := countKind(p, Compute); got != tor.Cols {
		t.Errorf("Wang compute count = %d, want %d", got, tor.Cols)
	}
	want := 2.0 * 1024 / 4 * 512 / 8 * 2048
	if got := p.TotalFLOPs(); got-want > 1e-6*want || want-got > 1e-6*want {
		t.Errorf("TotalFLOPs = %g, want %g", got, want)
	}
}

func TestWangProgramUnrolled(t *testing.T) {
	tor := topology.NewTorus(4, 8)
	prob := gemm.Problem{M: 1024, N: 512, K: 2048, Dataflow: gemm.OS}
	p := WangProgram(prob, tor, testHW, 4)
	validate(t, p)
	if got := countKind(p, Compute); got != 4 {
		t.Errorf("unrolled Wang compute count = %d, want 4", got)
	}
	// Total shift steps must still cover Pc-1 shard deliveries.
	steps := 0
	for _, op := range p.Ops {
		if op.Kind == Shift {
			steps += op.Steps
		}
	}
	if steps != tor.Cols-1 {
		t.Errorf("unrolled Wang total shift steps = %d, want %d", steps, tor.Cols-1)
	}
	want := 2.0 * 1024 / 4 * 512 / 8 * 2048
	if got := p.TotalFLOPs(); got-want > 1e-6*want || want-got > 1e-6*want {
		t.Errorf("TotalFLOPs = %g, want %g", got, want)
	}
}

func TestOneDPrograms(t *testing.T) {
	const chips = 8
	tp := OneDTPProgram(1024, 512, 2048, chips, testHW)
	validate(t, tp)
	fsdp := FSDPProgram(1024, 512, 2048, chips, testHW)
	validate(t, fsdp)
	want := 2.0 * 1024 * 512 * 2048 / chips
	for _, p := range []*Program{tp, fsdp} {
		if got := p.TotalFLOPs(); got-want > 1e-6*want || want-got > 1e-6*want {
			t.Errorf("%s TotalFLOPs = %g, want %g", p.Label, got, want)
		}
		if got := countKind(p, Shift); got != chips-1 {
			t.Errorf("%s shift count = %d, want %d", p.Label, got, chips-1)
		}
	}
	// 1D TP moves activations, FSDP moves weights: different shard bytes.
	if tp.Ops[0].Bytes == fsdp.Ops[0].Bytes {
		t.Errorf("1DTP and FSDP should move different payloads")
	}
}

func TestCommBytesOnWire(t *testing.T) {
	tor := topology.NewTorus(4, 8)
	prob := gemm.Problem{M: 1024, N: 512, K: 2048, Dataflow: gemm.OS}
	p := CollectiveProgram(prob, tor, testHW)
	// AG_col of A: (Pc-1)·|A_ij| bytes; AG_row of B: (Pr-1)·|B_ij| bytes.
	bpe := testHW.BytesPerElement
	wantCol := 7.0 * (1024 / 4) * (2048 / 8) * bpe
	wantRow := 3.0 * (2048 / 4) * (512 / 8) * bpe
	if got := p.CommBytesOnWire(topology.InterCol); got != wantCol {
		t.Errorf("inter-col wire bytes = %g, want %g", got, wantCol)
	}
	if got := p.CommBytesOnWire(topology.InterRow); got != wantRow {
		t.Errorf("inter-row wire bytes = %g, want %g", got, wantRow)
	}
}

func TestValidateCatchesBadPrograms(t *testing.T) {
	bad := []*Program{
		{Torus: topology.NewTorus(1, 2), Ops: []Op{{Kind: Compute, Deps: []int{0}}}},
		{Torus: topology.NewTorus(1, 2), Ops: []Op{{Kind: Compute}, {Kind: Compute, Deps: []int{5}}}},
		{Torus: topology.NewTorus(1, 2), Ops: []Op{{Kind: AllGather, Steps: 0}}},
		{Torus: topology.NewTorus(1, 2), Ops: []Op{{Kind: AllGather, Steps: 1, Bytes: -4}}},
		{Torus: topology.NewTorus(1, 2), Ops: []Op{{Kind: Compute, FLOPs: -1}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad program %d accepted", i)
		}
	}
}

// TestValidateRejectsPacketlessPipelines: netsim divides a Broadcast or
// Reduce payload by its packet count, so a count of zero (or less) must
// stop at Validate, with an error that names the op; the ring kinds never
// read Packets and may leave it zero.
func TestValidateRejectsPacketlessPipelines(t *testing.T) {
	for _, kind := range []OpKind{Broadcast, Reduce} {
		for _, packets := range []int{0, -3} {
			for _, bytes := range []float64{0, 1 << 20} {
				p := &Program{Torus: topology.NewTorus(1, 2), Ops: []Op{
					{Kind: kind, Name: "bcast A t=0", Steps: 3, Bytes: bytes, Packets: packets}}}
				err := p.Validate()
				if err == nil {
					t.Errorf("%v with %d packets, %g bytes accepted", kind, packets, bytes)
				} else if !strings.Contains(err.Error(), "bcast A t=0") || !strings.Contains(err.Error(), "packets") {
					t.Errorf("%v with %d packets: error %q does not name the op and the field", kind, packets, err)
				}
			}
		}
		ok := &Program{Torus: topology.NewTorus(1, 2), Ops: []Op{{Kind: kind, Steps: 3, Bytes: 8, Packets: 1}}}
		if err := ok.Validate(); err != nil {
			t.Errorf("%v with one packet rejected: %v", kind, err)
		}
	}
	ring := &Program{Torus: topology.NewTorus(1, 2), Ops: []Op{{Kind: AllGather, Steps: 1, Bytes: 8}}}
	if err := ring.Validate(); err != nil {
		t.Errorf("AllGather without packets rejected: %v", err)
	}
}

func TestOpKindStrings(t *testing.T) {
	kinds := []OpKind{Compute, Slice, AllGather, ReduceScatter, Broadcast, Reduce, Shift}
	for _, k := range kinds {
		if k.String() == "" || strings.HasPrefix(k.String(), "OpKind(") {
			t.Errorf("kind %d has no name", int(k))
		}
	}
	if !AllGather.IsComm() || Compute.IsComm() || Slice.IsComm() {
		t.Errorf("IsComm misclassifies")
	}
}

// TestBuildersAllocateTheOpListOnce: every schedule reserves its op list
// up front. cap(Ops) is the reserved bound only if append never regrew the
// list (a regrown list has a larger, runtime-chosen capacity), so pinning
// the capacity pins both the bound and the fact that it held.
func TestBuildersAllocateTheOpListOnce(t *testing.T) {
	tor := topology.NewTorus(4, 8)
	sq := topology.NewTorus(4, 4)
	osProb := gemm.Problem{M: 1024, N: 512, K: 2048, Dataflow: gemm.OS}
	lsProb := gemm.Problem{M: 1024, N: 512, K: 2048, Dataflow: gemm.LS}
	for _, c := range []struct {
		prog     *Program
		ops, cap int
	}{
		{MeshSliceProgram(osProb, tor, testHW, 8), 40, 42},
		{MeshSliceProgram(lsProb, tor, testHW, 8), 40, 42},
		{CollectiveProgram(osProb, tor, testHW), 3, 7},
		{MeshSliceDPProgram(osProb, sq, 2, testHW, 4), 22, 22},
		{SUMMAProgram(osProb, tor, testHW, 8), 24, 24},
		{CannonProgram(osProb, sq, testHW), 12, 14},
		{WangProgram(osProb, tor, testHW, 0), 16, 17},
		{WangProgram(lsProb, tor, testHW, 2), 5, 5},
		{OneDTPProgram(1024, 512, 2048, 8, testHW), 15, 16},
		{TwoPointFiveDProgram(1024, 512, 2048, gemm.Grid3D{P: 4, C: 2}, testHW), 9, 11},
	} {
		if len(c.prog.Ops) != c.ops || cap(c.prog.Ops) != c.cap {
			t.Errorf("%s: %d ops in a list of capacity %d, want %d in %d",
				c.prog.Label, len(c.prog.Ops), cap(c.prog.Ops), c.ops, c.cap)
		}
	}
}

// CommBytesOnWire returns the total bytes each chip's links carry in the
// given direction (the traffic cost numerator of §2.3.1).
func (p *Program) CommBytesOnWire(d topology.Direction) float64 {
	var total float64
	for i := range p.Ops {
		op := &p.Ops[i]
		if !op.Kind.IsComm() || op.Dir != d {
			continue
		}
		switch op.Kind {
		case Broadcast, Reduce:
			total += op.Bytes * float64(op.Steps) / float64(op.Packets)
		default:
			total += op.Bytes * float64(op.Steps)
		}
	}
	return total
}
