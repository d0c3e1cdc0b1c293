package netsim

import (
	"math"
	"strings"
	"testing"

	"meshslice/internal/costmodel"
	"meshslice/internal/fault"
	"meshslice/internal/gemm"
	"meshslice/internal/hw"
	"meshslice/internal/sched"
	"meshslice/internal/topology"
)

var testHW = hw.TPUv4()

// ideal hardware without contention for closed-form cross-checks.
func idealOpts() Options { return Options{NoHBMContention: true} }

func TestSingleComputeOp(t *testing.T) {
	p := &sched.Program{
		Torus: topology.NewTorus(1, 1),
		Ops:   []sched.Op{{Kind: sched.Compute, FLOPs: testHW.EffFLOPS}},
	}
	r := Simulate(p, testHW, idealOpts())
	if math.Abs(r.Makespan-1) > 1e-9 {
		t.Errorf("makespan = %v, want 1s", r.Makespan)
	}
	if r.ComputeBusy != r.Makespan {
		t.Errorf("compute busy %v != makespan %v", r.ComputeBusy, r.Makespan)
	}
}

func TestComputeRooflineHBMBound(t *testing.T) {
	// 1 FLOP but a huge memory footprint: duration = bytes/HBM bandwidth.
	p := &sched.Program{
		Torus: topology.NewTorus(1, 1),
		Ops:   []sched.Op{{Kind: sched.Compute, FLOPs: 1, HBMBytes: testHW.HBMBandwidth}},
	}
	r := Simulate(p, testHW, idealOpts())
	if math.Abs(r.Makespan-1) > 1e-9 {
		t.Errorf("HBM-bound op makespan = %v, want 1s", r.Makespan)
	}
}

func TestAllGatherMatchesCostModel(t *testing.T) {
	// A lone ring AllGather must cost exactly the paper's linear model.
	const ring = 8
	bytes := 1e6
	p := &sched.Program{
		Torus: topology.NewTorus(1, ring),
		Ops: []sched.Op{{
			Kind: sched.AllGather, Dir: topology.InterCol,
			Bytes: bytes, Steps: ring - 1,
		}},
	}
	r := Simulate(p, testHW, idealOpts())
	want := costmodel.RingCollective(testHW, ring, bytes)
	if math.Abs(r.Makespan-want) > 1e-12 {
		t.Errorf("AG makespan = %v, cost model %v", r.Makespan, want)
	}
	if math.Abs(r.Comm.Total()-want) > 1e-12 {
		t.Errorf("breakdown total = %v, want %v", r.Comm.Total(), want)
	}
}

func TestBreakdownComponents(t *testing.T) {
	const ring = 4
	bytes := 2e6
	p := &sched.Program{
		Torus: topology.NewTorus(ring, 1),
		Ops: []sched.Op{{
			Kind: sched.ReduceScatter, Dir: topology.InterRow,
			Bytes: bytes, Steps: ring - 1,
		}},
	}
	r := Simulate(p, testHW, idealOpts())
	if r.Comm.Launch != testHW.LaunchOverhead {
		t.Errorf("launch = %v, want %v", r.Comm.Launch, testHW.LaunchOverhead)
	}
	if want := 3 * testHW.SyncLatency; math.Abs(r.Comm.Sync-want) > 1e-15 {
		t.Errorf("sync = %v, want %v", r.Comm.Sync, want)
	}
	if want := 3 * bytes / testHW.LinkBandwidth; math.Abs(r.Comm.Transfer-want) > 1e-15 {
		t.Errorf("transfer = %v, want %v", r.Comm.Transfer, want)
	}
}

func TestIndependentDirectionsRunInParallel(t *testing.T) {
	// Two collectives in different directions with no dependency overlap
	// fully: makespan = max, not sum.
	p := &sched.Program{
		Torus: topology.NewTorus(4, 4),
		Ops: []sched.Op{
			{Kind: sched.AllGather, Dir: topology.InterCol, Bytes: 1e6, Steps: 3},
			{Kind: sched.AllGather, Dir: topology.InterRow, Bytes: 2e6, Steps: 3},
		},
	}
	r := Simulate(p, testHW, idealOpts())
	want := costmodel.RingCollective(testHW, 4, 2e6)
	if math.Abs(r.Makespan-want) > 1e-12 {
		t.Errorf("parallel collectives makespan = %v, want %v", r.Makespan, want)
	}
}

func TestSameDirectionSerialises(t *testing.T) {
	p := &sched.Program{
		Torus: topology.NewTorus(1, 4),
		Ops: []sched.Op{
			{Kind: sched.AllGather, Dir: topology.InterCol, Bytes: 1e6, Steps: 3},
			{Kind: sched.AllGather, Dir: topology.InterCol, Bytes: 1e6, Steps: 3},
		},
	}
	r := Simulate(p, testHW, idealOpts())
	want := 2 * costmodel.RingCollective(testHW, 4, 1e6)
	if math.Abs(r.Makespan-want) > 1e-12 {
		t.Errorf("serial collectives makespan = %v, want %v", r.Makespan, want)
	}
}

func TestCommOverlapsCompute(t *testing.T) {
	// Independent comm and compute overlap; exposed comm is only the
	// non-overlapped remainder.
	commDur := costmodel.RingCollective(testHW, 4, 1e6)
	compDur := 2 * commDur
	p := &sched.Program{
		Torus: topology.NewTorus(1, 4),
		Ops: []sched.Op{
			{Kind: sched.Compute, FLOPs: compDur * testHW.EffFLOPS},
			{Kind: sched.AllGather, Dir: topology.InterCol, Bytes: 1e6, Steps: 3},
		},
	}
	r := Simulate(p, testHW, idealOpts())
	if math.Abs(r.Makespan-compDur) > 1e-9*compDur {
		t.Errorf("overlapped makespan = %v, want %v", r.Makespan, compDur)
	}
	if r.ExposedComm > 1e-12 {
		t.Errorf("fully overlapped comm exposed %v", r.ExposedComm)
	}
}

func TestNoOverlapSerialisesEverything(t *testing.T) {
	p := &sched.Program{
		Torus: topology.NewTorus(1, 4),
		Ops: []sched.Op{
			{Kind: sched.Compute, FLOPs: 1e9},
			{Kind: sched.AllGather, Dir: topology.InterCol, Bytes: 1e6, Steps: 3},
		},
	}
	overlap := Simulate(p, testHW, idealOpts())
	serial := Simulate(p, testHW, Options{NoOverlap: true, NoHBMContention: true})
	wantSerial := 1e9/testHW.EffFLOPS + costmodel.RingCollective(testHW, 4, 1e6)
	if math.Abs(serial.Makespan-wantSerial) > 1e-12 {
		t.Errorf("no-overlap makespan = %v, want %v", serial.Makespan, wantSerial)
	}
	if serial.Makespan <= overlap.Makespan {
		t.Errorf("no-overlap (%v) should be slower than overlap (%v)", serial.Makespan, overlap.Makespan)
	}
}

func TestDependencyChainRespected(t *testing.T) {
	p := &sched.Program{
		Torus: topology.NewTorus(1, 2),
		Ops: []sched.Op{
			{Kind: sched.AllGather, Dir: topology.InterCol, Bytes: 1e6, Steps: 1},
			{Kind: sched.Compute, FLOPs: 1e9, Deps: []int{0}},
			{Kind: sched.ReduceScatter, Dir: topology.InterCol, Bytes: 1e6, Steps: 1, Deps: []int{1}},
		},
	}
	r := Simulate(p, testHW, idealOpts())
	want := 2*costmodel.RingCollective(testHW, 2, 1e6) + 1e9/testHW.EffFLOPS
	if math.Abs(r.Makespan-want) > 1e-12 {
		t.Errorf("chained makespan = %v, want %v", r.Makespan, want)
	}
	if math.Abs(r.ExposedComm-2*costmodel.RingCollective(testHW, 2, 1e6)) > 1e-12 {
		t.Errorf("chained exposed comm = %v", r.ExposedComm)
	}
}

func TestBroadcastPipelineBubbles(t *testing.T) {
	// A bcast over P chips with D packets takes P+D-2 stages; with the
	// same payload an AG is cheaper per byte (Fig. 3's comparison).
	const ring, bytes = 8, 8e6
	d := testHW.BcastPackets
	bc := &sched.Program{
		Torus: topology.NewTorus(1, ring),
		Ops: []sched.Op{{
			Kind: sched.Broadcast, Dir: topology.InterCol,
			Bytes: bytes, Steps: ring + d - 2, Packets: d,
		}},
	}
	r := Simulate(bc, testHW, idealOpts())
	stage := testHW.SyncLatency + bytes/float64(d)/testHW.LinkBandwidth
	want := testHW.LaunchOverhead + float64(ring+d-2)*stage
	if math.Abs(r.Makespan-want) > 1e-12 {
		t.Errorf("bcast makespan = %v, want %v", r.Makespan, want)
	}
	// An AllGather moving the equivalent per-chip shard (bytes/ring each)
	// completes the same data distribution faster.
	ag := &sched.Program{
		Torus: topology.NewTorus(1, ring),
		Ops: []sched.Op{{
			Kind: sched.AllGather, Dir: topology.InterCol,
			Bytes: bytes / ring, Steps: ring - 1,
		}},
	}
	ra := Simulate(ag, testHW, idealOpts())
	if ra.Makespan >= r.Makespan {
		t.Errorf("AG (%v) should beat bcast (%v) for the same data", ra.Makespan, r.Makespan)
	}
}

func TestPacketlessBroadcastIsAProgramPrecondition(t *testing.T) {
	// Packets divides the payload; zero used to surface as an infinite
	// makespan (Bytes > 0) or a NaN event time (Bytes == 0). It now stops
	// at the program-precondition check, naming the op.
	for _, bytes := range []float64{0, 8e6} {
		prog := &sched.Program{
			Torus: topology.NewTorus(1, 4),
			Ops:   []sched.Op{{Kind: sched.Broadcast, Name: "bcast X", Dir: topology.InterCol, Bytes: bytes, Steps: 4}},
		}
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "netsim: sched:") || !strings.Contains(msg, "bcast X") {
					t.Errorf("bytes=%g: panic %q, want the program-precondition panic naming the op", bytes, msg)
				}
			}()
			Simulate(prog, testHW, Options{})
		}()
	}
}

func TestBadFabricContentionIsAPrecondition(t *testing.T) {
	// NaN used to select the physical mesh silently (every comparison with
	// it is false), +Inf to stretch a comm op to an infinite duration, and a
	// negative factor was accepted.
	prog := &sched.Program{
		Torus: topology.NewTorus(2, 2),
		Ops:   []sched.Op{{Kind: sched.AllGather, Dir: topology.InterCol, Bytes: 1e6, Steps: 1}},
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -2} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "netsim: fabric contention") {
					t.Errorf("FabricContention %g: panic %q, want the options-precondition panic", f, msg)
				}
			}()
			Simulate(prog, testHW, Options{FabricContention: f})
		}()
	}
}

func TestHBMContentionSlowsOverlap(t *testing.T) {
	// A memory-hungry compute op overlapping a large transfer should take
	// longer with contention than without.
	// The compute op saturates HBM and starts first; the longer AllGather
	// then contends for memory bandwidth and stretches past its nominal
	// duration, extending the makespan.
	mkProg := func() *sched.Program {
		return &sched.Program{
			Torus: topology.NewTorus(1, 4),
			Ops: []sched.Op{
				{Kind: sched.Compute, FLOPs: 1e9, HBMBytes: 1.2e12},
				{Kind: sched.AllGather, Dir: topology.InterCol, Bytes: 25e9, Steps: 3},
			},
		}
	}
	with := Simulate(mkProg(), testHW, Options{})
	without := Simulate(mkProg(), testHW, idealOpts())
	if with.Makespan <= without.Makespan {
		t.Errorf("contention (%v) should slow the overlap-free run (%v)", with.Makespan, without.Makespan)
	}
}

// --- whole-algorithm properties on real programs ---

func simGeMM(t *testing.T, prog *sched.Program) Result {
	t.Helper()
	return Simulate(prog, testHW, Options{})
}

// scaleProb is the FF1 layer of GPT-3 under 256-chip weak scaling
// (batch 128 × sequence 2048 tokens, hidden 12288 → 4·12288); on the 32×8
// mesh the paper's Fig. 14 uses, computation can hide most communication —
// the regime where overlap pays.
var (
	scaleProb = gemm.Problem{M: 1 << 18, N: 49152, K: 12288, Dataflow: gemm.OS}
	scaleTor  = topology.NewTorus(32, 8)
)

func TestMeshSliceFasterThanCollectiveWhenCommBound(t *testing.T) {
	ms := simGeMM(t, sched.MeshSliceProgram(scaleProb, scaleTor, testHW, 8))
	col := simGeMM(t, sched.CollectiveProgram(scaleProb, scaleTor, testHW))
	if ms.Makespan >= col.Makespan {
		t.Errorf("MeshSlice (%v) should beat Collective (%v) at 256 chips", ms.Makespan, col.Makespan)
	}
}

func TestMeshSliceBeatsWangBothDirectionsOverlapped(t *testing.T) {
	ms := simGeMM(t, sched.MeshSliceProgram(scaleProb, scaleTor, testHW, 8))
	wang := simGeMM(t, sched.WangProgram(scaleProb, scaleTor, testHW, 8))
	if ms.Makespan >= wang.Makespan {
		t.Errorf("MeshSlice (%v) should beat Wang (%v): Wang leaves one direction exposed", ms.Makespan, wang.Makespan)
	}
}

func TestSUMMASyncOverheadGrowsQuadratically(t *testing.T) {
	// SUMMA's total synchronisation count grows as O(P²) (paper §2.3.3):
	// doubling the mesh dimension should roughly quadruple sync time.
	prob := gemm.Problem{M: 1 << 15, N: 8192, K: 8192, Dataflow: gemm.OS}
	sync8 := simGeMM(t, sched.SUMMAProgram(prob, topology.NewTorus(8, 8), testHW, 0)).Comm.Sync
	sync16 := simGeMM(t, sched.SUMMAProgram(prob, topology.NewTorus(16, 16), testHW, 0)).Comm.Sync
	// P iterations × (P+D-2) stages: with D=16 fixed, doubling P from 8 to
	// 16 multiplies the sync count by 16·30/(8·22) ≈ 2.7, approaching 4×
	// asymptotically as P outgrows D.
	ratio := sync16 / sync8
	if ratio < 2.5 || ratio > 4.5 {
		t.Errorf("SUMMA sync scaling 8→16 = %.2fx, want superlinear ≈2.7–4x", ratio)
	}
	// The count must be superlinear in P (more than 2x for 2x chips per
	// ring), unlike AG/RdS whose sync count is linear.
	if ratio <= 2 {
		t.Errorf("SUMMA sync growth %.2fx not superlinear", ratio)
	}
}

func TestCannonHigherTrafficThanCollectiveOnSkewedShapes(t *testing.T) {
	// With imbalanced matrices, Cannon's square-mesh restriction plus
	// skewing make it slower than Collective on its optimal mesh shape.
	prob := gemm.Problem{M: 1 << 17, N: 4096, K: 12288, Dataflow: gemm.OS}
	cannon := simGeMM(t, sched.CannonProgram(prob, topology.NewTorus(16, 16), testHW))
	col := simGeMM(t, sched.CollectiveProgram(prob, topology.NewTorus(64, 4), testHW))
	if cannon.Makespan <= col.Makespan {
		t.Errorf("Cannon (%v) should lose to shape-optimised Collective (%v)", cannon.Makespan, col.Makespan)
	}
}

func TestOneDSlowerThan2DAtScale(t *testing.T) {
	prob := scaleProb
	tor := topology.NewTorus(16, 16)
	ms := simGeMM(t, sched.MeshSliceProgram(prob, tor, testHW, 8))
	oned := simGeMM(t, sched.OneDTPProgram(prob.M, prob.N, prob.K, 256, testHW))
	if ms.Makespan >= oned.Makespan {
		t.Errorf("MeshSlice (%v) should beat 1D TP (%v) at 256 chips", ms.Makespan, oned.Makespan)
	}
}

func TestMakespanAtLeastComputeLowerBound(t *testing.T) {
	for _, mk := range []func() *sched.Program{
		func() *sched.Program { return sched.MeshSliceProgram(scaleProb, topology.NewTorus(8, 8), testHW, 4) },
		func() *sched.Program { return sched.CollectiveProgram(scaleProb, topology.NewTorus(8, 8), testHW) },
		func() *sched.Program { return sched.WangProgram(scaleProb, topology.NewTorus(8, 8), testHW, 0) },
		func() *sched.Program { return sched.SUMMAProgram(scaleProb, topology.NewTorus(8, 8), testHW, 8) },
		func() *sched.Program { return sched.CannonProgram(scaleProb, topology.NewTorus(8, 8), testHW) },
	} {
		prog := mk()
		r := simGeMM(t, prog)
		lower := prog.TotalFLOPs() / testHW.EffFLOPS
		if r.Makespan < lower {
			t.Errorf("%s makespan %v below compute bound %v", prog.Label, r.Makespan, lower)
		}
		if r.Makespan <= 0 || r.ComputeBusy <= 0 {
			t.Errorf("%s degenerate result %+v", prog.Label, r)
		}
	}
}

func TestOverlapNeverSlowerThanNoOverlap(t *testing.T) {
	progs := []*sched.Program{
		sched.MeshSliceProgram(scaleProb, topology.NewTorus(8, 8), testHW, 4),
		sched.CollectiveProgram(scaleProb, topology.NewTorus(8, 8), testHW),
		sched.WangProgram(scaleProb, topology.NewTorus(8, 8), testHW, 0),
	}
	for _, prog := range progs {
		over := Simulate(prog, testHW, idealOpts())
		serial := Simulate(prog, testHW, Options{NoOverlap: true, NoHBMContention: true})
		if over.Makespan > serial.Makespan+1e-12 {
			t.Errorf("%s: overlap (%v) slower than no-overlap (%v)", prog.Label, over.Makespan, serial.Makespan)
		}
	}
}

func TestEventsCounted(t *testing.T) {
	prog := sched.MeshSliceProgram(scaleProb, topology.NewTorus(4, 4), testHW, 2)
	r := simGeMM(t, prog)
	if r.Events != len(prog.Ops)*16 {
		t.Errorf("events = %d, want ops×chips = %d", r.Events, len(prog.Ops)*16)
	}
}

func TestExposedCommIntervalArithmetic(t *testing.T) {
	got := exposed(
		[]interval{{0, 10}, {20, 30}},
		[]interval{{5, 25}},
	)
	// comm measure 20; overlap: [5,10] and [20,25] = 10 → exposed 10.
	if math.Abs(got-10) > 1e-12 {
		t.Errorf("exposed = %v, want 10", got)
	}
	if exposed(nil, nil) != 0 {
		t.Errorf("exposed of nothing should be 0")
	}
	if got := exposed([]interval{{0, 5}, {3, 7}}, nil); math.Abs(got-7) > 1e-12 {
		t.Errorf("merged comm exposed = %v, want 7", got)
	}
}

func TestFabricContentionStretchesConcurrentDirections(t *testing.T) {
	// Two simultaneous collectives in opposite directions: on a physical
	// mesh they fully overlap; on a logical mesh (shared fabric) at least
	// one is stretched.
	mk := func() *sched.Program {
		return &sched.Program{
			Torus: topology.NewTorus(4, 4),
			Ops: []sched.Op{
				{Kind: sched.AllGather, Dir: topology.InterCol, Bytes: 1e7, Steps: 3},
				{Kind: sched.AllGather, Dir: topology.InterRow, Bytes: 1e7, Steps: 3},
			},
		}
	}
	physical := Simulate(mk(), testHW, idealOpts())
	logical := Simulate(mk(), testHW, Options{NoHBMContention: true, FabricContention: 2})
	if logical.Makespan <= physical.Makespan {
		t.Errorf("logical mesh (%v) should be slower than physical (%v)", logical.Makespan, physical.Makespan)
	}
}

func TestFabricContentionNoEffectWhenSerial(t *testing.T) {
	// A single collective at a time never contends.
	p := &sched.Program{
		Torus: topology.NewTorus(1, 4),
		Ops: []sched.Op{
			{Kind: sched.AllGather, Dir: topology.InterCol, Bytes: 1e7, Steps: 3},
			{Kind: sched.ReduceScatter, Dir: topology.InterCol, Bytes: 1e7, Steps: 3, Deps: []int{0}},
		},
	}
	physical := Simulate(p, testHW, idealOpts())
	logical := Simulate(p, testHW, Options{NoHBMContention: true, FabricContention: 4})
	if logical.Makespan != physical.Makespan {
		t.Errorf("serial comm should not contend: %v vs %v", logical.Makespan, physical.Makespan)
	}
}

func TestFabricContentionDegradesMeshSlice(t *testing.T) {
	// Paper §6: on a logical mesh MeshSlice becomes less efficient because
	// its concurrent bidirectional AG/RdS operations contend for the
	// shared fabric, a contention physical 2D tori do not have.
	tor := topology.NewTorus(8, 8)
	prob := gemm.Problem{M: 1 << 16, N: 12288, K: 12288, Dataflow: gemm.OS}
	prog := sched.MeshSliceProgram(prob, tor, testHW, 8)
	physical := Simulate(prog, testHW, idealOpts())
	logical := Simulate(prog, testHW, Options{NoHBMContention: true, FabricContention: 2})
	if logical.Makespan <= physical.Makespan {
		t.Errorf("logical mesh (%v) should be slower than physical (%v)", logical.Makespan, physical.Makespan)
	}
	// The slowdown is bounded by the contention factor itself.
	if logical.Makespan > physical.Makespan*2+1e-12 {
		t.Errorf("slowdown %.2fx exceeds the contention factor 2", logical.Makespan/physical.Makespan)
	}
}

func TestStepLevelMatchesAtomicWithoutContention(t *testing.T) {
	// On uncontended hardware the per-step decomposition sums to exactly
	// the atomic linear model.
	prob := gemm.Problem{M: 1 << 15, N: 8192, K: 8192, Dataflow: gemm.OS}
	for _, mk := range []func() *sched.Program{
		func() *sched.Program { return sched.MeshSliceProgram(prob, topology.NewTorus(4, 8), testHW, 4) },
		func() *sched.Program { return sched.CollectiveProgram(prob, topology.NewTorus(4, 8), testHW) },
		func() *sched.Program { return sched.WangProgram(prob, topology.NewTorus(4, 8), testHW, 4) },
		func() *sched.Program { return sched.CannonProgram(prob, topology.NewTorus(4, 4), testHW) },
	} {
		prog := mk()
		atomic := Simulate(prog, testHW, Options{NoHBMContention: true})
		step := Simulate(prog, testHW, Options{NoHBMContention: true, StepLevel: true})
		if math.Abs(atomic.Makespan-step.Makespan) > 1e-9*atomic.Makespan {
			t.Errorf("%s: step-level %v != atomic %v", prog.Label, step.Makespan, atomic.Makespan)
		}
		if math.Abs(atomic.Comm.Total()-step.Comm.Total()) > 1e-9 {
			t.Errorf("%s: breakdowns differ: %v vs %v", prog.Label, step.Comm, atomic.Comm)
		}
	}
}

func TestStepLevelSamplesContentionFiner(t *testing.T) {
	// With HBM contention on, per-step sampling reacts to compute ops
	// that start mid-collective; results stay close to but need not equal
	// the atomic model.
	prob := gemm.Problem{M: 1 << 16, N: 12288, K: 12288, Dataflow: gemm.OS}
	prog := sched.MeshSliceProgram(prob, topology.NewTorus(8, 8), testHW, 8)
	atomic := Simulate(prog, testHW, Options{})
	step := Simulate(prog, testHW, Options{StepLevel: true})
	if step.Makespan <= 0 {
		t.Fatalf("degenerate step-level makespan")
	}
	ratio := step.Makespan / atomic.Makespan
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("step-level diverges wildly from atomic: ratio %.3f", ratio)
	}
}

func TestStepLevelTraceStillCompletes(t *testing.T) {
	prob := gemm.Problem{M: 1 << 14, N: 8192, K: 8192, Dataflow: gemm.LS}
	prog := sched.MeshSliceProgram(prob, topology.NewTorus(4, 4), testHW, 4)
	r := Simulate(prog, testHW, Options{StepLevel: true, CollectTrace: true})
	if len(r.Trace) != len(prog.Ops) {
		t.Errorf("step-level trace has %d events for %d ops", len(r.Trace), len(prog.Ops))
	}
	if r.Events != len(prog.Ops)*16 {
		t.Errorf("step-level events = %d, want %d", r.Events, len(prog.Ops)*16)
	}
}

func TestTiledComputeSlowerForFineSlices(t *testing.T) {
	// The tiled chip model charges fine-grained partial GeMMs for tile
	// occupancy and prefetch overheads the flat roofline ignores, so a
	// heavily sliced MeshSlice program slows down more under tiled compute
	// than a mildly sliced one.
	prob := gemm.Problem{M: 1 << 16, N: 12288, K: 12288, Dataflow: gemm.OS}
	tor := topology.NewTorus(8, 8)
	slowdown := func(s int) float64 {
		prog := sched.MeshSliceProgram(prob, tor, testHW, s)
		flat := Simulate(prog, testHW, Options{NoHBMContention: true})
		tiled := Simulate(prog, testHW, Options{NoHBMContention: true, TiledCompute: true})
		return tiled.ComputeBusy / flat.ComputeBusy
	}
	coarse := slowdown(2)
	fine := slowdown(12)
	if coarse < 1 || fine < 1 {
		t.Errorf("tiled compute cannot beat the roofline: %v %v", coarse, fine)
	}
	if fine <= coarse {
		t.Errorf("fine slicing (%.3fx) should pay more tile overhead than coarse (%.3fx)", fine, coarse)
	}
}

func TestTiledComputeFallsBackWithoutDims(t *testing.T) {
	// Ops without GeMM dimensions (slices, hand-built programs) use the
	// roofline even in tiled mode.
	p := &sched.Program{
		Torus: topology.NewTorus(1, 1),
		Ops:   []sched.Op{{Kind: sched.Compute, FLOPs: testHW.EffFLOPS}},
	}
	r := Simulate(p, testHW, Options{NoHBMContention: true, TiledCompute: true})
	if math.Abs(r.Makespan-1) > 1e-9 {
		t.Errorf("fallback makespan = %v, want 1s", r.Makespan)
	}
}

func TestSimulate3DTwoPointFiveD(t *testing.T) {
	// The 2.5D schedule runs end to end on the 3D torus, and the
	// simulated time lands near the analytical estimate.
	m, n, k := 1<<16, 12288, 49152
	g := gemm.Grid3D{P: 16, C: 4}
	prog := sched.TwoPointFiveDProgram(m, n, k, g, testHW)
	r := Simulate(prog, testHW, Options{NoHBMContention: true})
	if r.Makespan <= 0 {
		t.Fatalf("degenerate makespan")
	}
	est := costmodel.TwoPointFiveDTime(int64(m), int64(n), int64(k), g.P, g.C, testHW)
	ratio := r.Makespan / est
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("simulated %v vs estimated %v diverge (%.2fx)", r.Makespan, est, ratio)
	}
	if r.Events != len(prog.Ops)*g.Size() {
		t.Errorf("events = %d, want %d", r.Events, len(prog.Ops)*g.Size())
	}
}

func TestSimulate3DMeshSliceDPBeats25D(t *testing.T) {
	// The §7 conclusion, now SIMULATED rather than estimated: on 1024
	// chips computing the GPT-3 FC layer, MeshSlice+DP on 32×8×4 beats
	// 2.5D on 16×16×4.
	m, n, k := 1<<20, 12288, 49152
	p25 := sched.TwoPointFiveDProgram(m, n, k, gemm.Grid3D{P: 16, C: 4}, testHW)
	r25 := Simulate(p25, testHW, Options{})
	prob := gemm.Problem{M: m, N: n, K: k, Dataflow: gemm.OS}
	pms := sched.MeshSliceDPProgram(prob, topology.NewTorus(32, 8), 4, testHW, 8)
	rms := Simulate(pms, testHW, Options{})
	if rms.Makespan >= r25.Makespan {
		t.Errorf("MeshSlice+DP (%v) should beat 2.5D (%v)", rms.Makespan, r25.Makespan)
	}
}

func TestDepthCollectiveUsesOwnResource(t *testing.T) {
	// A depth collective and an in-layer collective with no dependencies
	// overlap fully: separate link resources.
	grid := topology.NewTorus3D(4, 4, 4)
	prog := &sched.Program{
		Torus: grid.Layer(),
		Grid3: &grid,
		Ops: []sched.Op{
			{Kind: sched.AllGather, Dir: topology.InterCol, Bytes: 1e6, Steps: 3},
			{Kind: sched.AllGather, Dir: topology.InterDepth, Bytes: 1e6, Steps: 3},
		},
	}
	r := Simulate(prog, testHW, Options{NoHBMContention: true})
	want := costmodel.RingCollective(testHW, 4, 1e6)
	if math.Abs(r.Makespan-want) > 1e-12 {
		t.Errorf("parallel depth+layer collectives makespan = %v, want %v", r.Makespan, want)
	}
}

func TestBidirectionalRingsMatchCostModel(t *testing.T) {
	const ring = 8
	bytes := 1e6
	p := &sched.Program{
		Torus: topology.NewTorus(1, ring),
		Ops: []sched.Op{{
			Kind: sched.AllGather, Dir: topology.InterCol,
			Bytes: bytes, Steps: ring - 1,
		}},
	}
	r := Simulate(p, testHW, Options{NoHBMContention: true, BidirectionalRings: true})
	want := costmodel.RingCollectiveBidir(testHW, ring, bytes)
	if math.Abs(r.Makespan-want) > 1e-12 {
		t.Errorf("bidirectional AG makespan = %v, cost model %v", r.Makespan, want)
	}
	uni := Simulate(p, testHW, idealOpts())
	if r.Makespan >= uni.Makespan {
		t.Errorf("bidirectional (%v) should beat unidirectional (%v)", r.Makespan, uni.Makespan)
	}
}

func TestBidirectionalDoesNotChangeShifts(t *testing.T) {
	// SendRecv shifts and bcast pipelines are inherently directional; only
	// AG/RdS benefit.
	p := &sched.Program{
		Torus: topology.NewTorus(1, 8),
		Ops: []sched.Op{{
			Kind: sched.Shift, Dir: topology.InterCol, Bytes: 1e6, Steps: 7,
		}},
	}
	bi := Simulate(p, testHW, Options{NoHBMContention: true, BidirectionalRings: true})
	uni := Simulate(p, testHW, idealOpts())
	if bi.Makespan != uni.Makespan {
		t.Errorf("shift changed under bidirectional rings: %v vs %v", bi.Makespan, uni.Makespan)
	}
}

func TestBidirectionalSpeedsUpMeshSlice(t *testing.T) {
	// The Table 3 headroom: the same MeshSlice program on full
	// bidirectional ICI is strictly faster in a comm-bound regime.
	prob := gemm.Problem{M: 1 << 16, N: 12288, K: 12288, Dataflow: gemm.OS}
	prog := sched.MeshSliceProgram(prob, topology.NewTorus(16, 16), testHW, 8)
	uni := Simulate(prog, testHW, idealOpts())
	bi := Simulate(prog, testHW, Options{NoHBMContention: true, BidirectionalRings: true})
	if bi.Makespan >= uni.Makespan {
		t.Errorf("bidirectional (%v) not faster than unidirectional (%v)", bi.Makespan, uni.Makespan)
	}
}

// TestSimulateAllocationGate holds the simulator to "nothing is allocated
// per event": a whole 8×8 MeshSlice simulation fits in a fixed set of
// slabs (at most 26 objects on the single class), and quadrupling the slice
// count (4× the ops and events) may only add the few extra growth steps of
// the event slab and interval merge. CriticalPath and TraceAllChips on the
// single class stay within 37 objects (73 when they simulated every chip).
// The identity map — every chip simulated — stays within the 74 objects it
// took before the class map. A uniform fault plan (every inter-col link
// degraded) runs on the single class for the fault index's fixed slabs and
// FaultSpans, and on the identity map below the 82 objects it took when
// every hook scanned the plan.
func TestSimulateAllocationGate(t *testing.T) {
	tor := topology.NewTorus(8, 8)
	identity := func(p *sched.Program, c hw.Chip, opts Options) Result { return identityRun(t, p, c, opts) }
	measure := func(sim func(*sched.Program, hw.Chip, Options) Result, S int, name string, opts Options) float64 {
		prog := sched.MeshSliceProgram(scaleProb, tor, testHW, S)
		events := sim(prog, testHW, opts).Events
		allocs := testing.AllocsPerRun(5, func() { sim(prog, testHW, opts) })
		t.Logf("S=%d %s: %d ops, %d events, %.0f allocs per run", S, name, len(prog.Ops), events, allocs)
		return allocs
	}
	s8, s32 := measure(Simulate, 8, "one class", Options{}), measure(Simulate, 32, "one class", Options{})
	if s8 > 26 {
		t.Errorf("Simulate(8x8 MeshSlice, S=8) allocates %.0f objects, want <= 26", s8)
	}
	if s32-s8 > 16 {
		t.Errorf("allocations grow by %.0f from S=8 to S=32, want <= 16 (something allocates per event)", s32-s8)
	}
	if observed := measure(Simulate, 8, "observed one class", Options{CriticalPath: true, TraceAllChips: true}); observed > 37 {
		t.Errorf("Simulate(8x8 MeshSlice, S=8, CriticalPath+TraceAllChips) allocates %.0f objects, want <= 37", observed)
	}
	if ident := measure(identity, 8, "observed identity", Options{CriticalPath: true, TraceAllChips: true}); ident > 74 {
		t.Errorf("the identity map of 8x8 MeshSlice, S=8, CriticalPath+TraceAllChips allocates %.0f objects, want <= 74", ident)
	}
	colDegrade := &fault.Plan{}
	for c := 0; c < tor.Size(); c++ {
		colDegrade.Degrades = append(colDegrade.Degrades, fault.LinkDegrade{Link: fault.Link{Chip: c, Dir: topology.InterCol}, Factor: 6})
	}
	steps := measure(Simulate, 8, "step-level one class", Options{StepLevel: true})
	if faulted := measure(Simulate, 8, "col-degrade one class", Options{StepLevel: true, Faults: colDegrade}); faulted > steps+4 {
		t.Errorf("Simulate(8x8 MeshSlice, S=8, StepLevel, col-degrade) allocates %.0f objects, want <= %.0f (the fault-free run's plus the index's three slabs and FaultSpans)", faulted, steps+4)
	}
	if faulted := measure(identity, 8, "col-degrade identity", Options{StepLevel: true, Faults: colDegrade, CriticalPath: true}); faulted > 78 {
		t.Errorf("the identity map of 8x8 MeshSlice, S=8, StepLevel+CriticalPath, col-degrade allocates %.0f objects, want <= 78 (82 before the fault index)", faulted)
	}
}
