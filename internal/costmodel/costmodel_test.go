package costmodel

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"meshslice/internal/gemm"
	"meshslice/internal/hw"
	"meshslice/internal/topology"
)

var testHW = hw.TPUv4()

func TestRingCollectiveFormula(t *testing.T) {
	c := testHW
	got := RingCollective(c, 8, 1e6)
	want := c.LaunchOverhead + 7*(c.SyncLatency+1e6/c.LinkBandwidth)
	if math.Abs(got-want) > 1e-15 {
		t.Errorf("RingCollective = %v, want %v", got, want)
	}
	if RingCollective(c, 1, 1e6) != 0 {
		t.Errorf("single-chip ring must cost nothing")
	}
}

func TestEstimateTotalComposition(t *testing.T) {
	e := Estimate{Prologue: 1, SteadyState: 2, Iterations: 3, Epilogue: 4}
	if e.Total() != 11 {
		t.Errorf("Total = %v, want 11", e.Total())
	}
}

// TestMeshSliceS1EqualsCollective: MeshSlice with S=1 is Collective 2D
// GeMM, whose one iteration leaves no steady state to overlap.
func TestMeshSliceS1EqualsCollective(t *testing.T) {
	p := gemm.Problem{M: 1 << 16, N: 12288, K: 12288, Dataflow: gemm.OS}
	ms := MeshSlice(p, topology.NewTorus(16, 16), testHW, 1)
	if ms.Iterations != 0 {
		t.Errorf("S=1 has %d steady iterations", ms.Iterations)
	}
}

func TestCollectiveIsProloguePlusEpilogue(t *testing.T) {
	// With S=1 nothing overlaps: the total is the full communication of
	// the first iteration plus the full computation (paper §2.3.4).
	p := gemm.Problem{M: 1 << 16, N: 12288, K: 12288, Dataflow: gemm.OS}
	tor := topology.NewTorus(16, 16)
	e := MeshSlice(p, tor, testHW, 1)
	if e.Total() != e.Prologue+e.Epilogue {
		t.Errorf("Collective total %v != prologue %v + epilogue %v", e.Total(), e.Prologue, e.Epilogue)
	}
	if e.Prologue <= 0 || e.Epilogue <= 0 {
		t.Errorf("degenerate estimate %+v", e)
	}
}

func TestMeshSliceOverlapBenefit(t *testing.T) {
	// In a compute-rich regime, slicing must reduce the estimated total
	// relative to S=1 (communication hides under computation).
	p := gemm.Problem{M: 1 << 18, N: 49152, K: 12288, Dataflow: gemm.OS}
	tor := topology.NewTorus(32, 8)
	s1 := MeshSlice(p, tor, testHW, 1).Total()
	s8 := MeshSlice(p, tor, testHW, 8).Total()
	if s8 >= s1 {
		t.Errorf("S=8 (%v) should beat S=1 (%v)", s8, s1)
	}
}

func TestMeshSliceSliceCountTradeoff(t *testing.T) {
	// Very large S pays per-iteration launch+sync overheads without
	// further shrinking the prologue: the optimum is interior (the
	// trade-off of paper §3.1 and Fig. 14).
	p := gemm.Problem{M: 1 << 18, N: 49152, K: 12288, Dataflow: gemm.OS}
	tor := topology.NewTorus(32, 8)
	best := math.Inf(1)
	bestS := 0
	for _, s := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512} {
		if tot := MeshSlice(p, tor, testHW, s).Total(); tot < best {
			best, bestS = tot, s
		}
	}
	if bestS == 1 {
		t.Errorf("optimal S=1: slicing never helped")
	}
	if bestS >= 512 {
		t.Errorf("optimal S=%d: overheads never bite", bestS)
	}
}

func TestMeshSliceLSandRSShapes(t *testing.T) {
	tor := topology.NewTorus(8, 4)
	for _, df := range []gemm.Dataflow{gemm.LS, gemm.RS} {
		p := gemm.Problem{M: 1 << 14, N: 8192, K: 8192, Dataflow: df}
		e := MeshSlice(p, tor, testHW, 4)
		if e.Total() <= 0 || e.CommTime <= 0 || e.ComputeTime <= 0 {
			t.Errorf("%v estimate degenerate: %+v", df, e)
		}
		// LS/RS epilogue includes the final ReduceScatter.
		if e.Epilogue <= e.ComputeTime/4 {
			t.Errorf("%v epilogue %v should include the trailing RdS", df, e.Epilogue)
		}
	}
}

func TestComputeTimeMatchesFLOPs(t *testing.T) {
	p := gemm.Problem{M: 4096, N: 4096, K: 4096, Dataflow: gemm.OS}
	tor := topology.NewTorus(4, 4)
	e := MeshSlice(p, tor, testHW, 2)
	want := testHW.GeMMTime(2 * 4096.0 * 4096 * 4096 / 16)
	if math.Abs(e.ComputeTime-want) > 1e-12 {
		t.Errorf("ComputeTime = %v, want %v", e.ComputeTime, want)
	}
}

func TestMeshSlicePanicsOnBadS(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("S=0 should panic")
		}
	}()
	MeshSlice(gemm.Problem{M: 4, N: 4, K: 4, Dataflow: gemm.OS}, topology.NewTorus(2, 2), testHW, 0)
}

func TestTrafficCostFormula(t *testing.T) {
	tor := topology.NewTorus(4, 8)
	got := TrafficCost(tor, 32e9, 64e9, 50e9, 50e9)
	vert := 3.0 * 32e9 / 32 / 50e9
	horz := 7.0 * 64e9 / 32 / 50e9
	want := math.Max(vert, horz)
	if math.Abs(got-want) > 1e-15 {
		t.Errorf("TrafficCost = %v, want %v", got, want)
	}
}

// Property (paper §2.3.1): with equal bandwidths the traffic cost is
// minimised near the shape where (Pr-1)/(Pc-1) = size(Mc)/size(Mr).
func TestTrafficCostBalancePointProperty(t *testing.T) {
	f := func(ratio8 uint8) bool {
		ratio := float64(ratio8%15) + 1 // size(Mc)/size(Mr) in [1,15]
		mr := 1e9
		mc := ratio * mr
		const chips = 256
		best := math.Inf(1)
		var bestShape topology.Torus
		for _, shape := range topology.MeshShapes(chips) {
			cost := TrafficCost(shape, mr, mc, 50e9, 50e9)
			if cost < best {
				best, bestShape = cost, shape
			}
		}
		// The discrete optimum must satisfy the balance condition better
		// than a 4x-misbalanced alternative.
		balance := float64(bestShape.Rows-1) / math.Max(float64(bestShape.Cols-1), 0.5)
		return balance > ratio/8 && balance < ratio*8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPerChipTraffic2D(t *testing.T) {
	tor := topology.NewTorus(4, 8)
	got := PerChipTraffic2D(tor, 32e9, 64e9)
	want := 3.0*32e9/32 + 7.0*64e9/32
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("PerChipTraffic2D = %v, want %v", got, want)
	}
}

// The §7 worked example: a 1024-chip cluster computing a GPT-3 FC layer
// with (M,N,K) = (1024K, 12K, 48K). 2.5D GeMM on 16×16×4 moves ≈1.6 GB per
// chip; MeshSlice+DP on 32×8×4 moves ≈336 MB.
func TestSection7TrafficComparison(t *testing.T) {
	const bpe = 2.0
	m, n, k := int64(1024)<<10, int64(12)<<10, int64(48)<<10
	t25 := PerChipTraffic25D(m, n, k, 16, 4, bpe)
	if t25 < 1.4e9 || t25 > 1.8e9 {
		t.Errorf("2.5D per-chip traffic = %.3g, want ≈1.6 GB", t25)
	}
	tms := PerChipTrafficMeshSliceDP(m, n, k, topology.NewTorus(32, 8), 4, bpe)
	if tms < 0.28e9 || tms > 0.40e9 {
		t.Errorf("MeshSlice+DP per-chip traffic = %.3g, want ≈336 MB", tms)
	}
	if ratio := t25 / tms; ratio < 3 {
		t.Errorf("2.5D/MeshSlice traffic ratio = %.2f, paper reports ≈4.8x", ratio)
	}
}

func TestPerChipTraffic25DPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("invalid 2.5D shape should panic")
		}
	}()
	PerChipTraffic25D(8, 8, 8, 6, 4, 2)
}

func TestPerChipTrafficMeshSliceDPPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("c=0 should panic")
		}
	}()
	PerChipTrafficMeshSliceDP(8, 8, 8, topology.NewTorus(2, 2), 0, 2)
}

func TestRingCollectiveBidirHalvesSteps(t *testing.T) {
	uni := RingCollective(testHW, 8, 1e6)
	bi := RingCollectiveBidir(testHW, 8, 1e6)
	if bi >= uni {
		t.Errorf("bidirectional (%v) should beat unidirectional (%v)", bi, uni)
	}
	// 4 steps instead of 7: strictly more than half the step cost remains.
	stepsUni := (uni - testHW.LaunchOverhead)
	stepsBi := (bi - testHW.LaunchOverhead)
	if ratio := stepsBi / stepsUni; ratio < 4.0/7.0-1e-9 || ratio > 4.0/7.0+1e-9 {
		t.Errorf("step ratio = %v, want 4/7", ratio)
	}
	if RingCollectiveBidir(testHW, 1, 1e6) != 0 {
		t.Errorf("single chip ring must cost nothing")
	}
}

// TestFabricIterationsDirections pins which ring direction each dataflow's
// collectives ride. On a fabric whose Col links are 4× slower, exactly the
// collectives over a ring of Cols (OS's AG_col A_s, LS's RdS_col C_s, RS's
// AG_col A_s) must be priced on the degraded chip; every other term must
// stay bit-identical to the healthy fabric. The healthy fabric in turn must
// reproduce MeshSliceEval, whose formula is independent of Iterations.
func TestFabricIterationsDirections(t *testing.T) {
	c := testHW
	slow := c
	slow.LinkBandwidth /= 4
	healthy := Uniform(c)
	colSick := Fabric{Row: c, Col: slow, Compute: c}
	allSick := Fabric{Row: slow, Col: slow, Compute: c}
	const m, n, k = 1 << 12, 3 << 11, 5 << 10
	for _, tor := range []topology.Torus{topology.NewTorus(2, 8), topology.NewTorus(8, 2), topology.NewTorus(4, 4)} {
		for _, s := range []int{1, 2, 3, 8} {
			u := healthy.Iterations(m, n, k, tor, s)
			d := colSick.Iterations(m, n, k, tor, s)
			a := allSick.Iterations(m, n, k, tor, s)
			for _, df := range []gemm.Dataflow{gemm.OS, gemm.LS, gemm.RS} {
				name := fmt.Sprintf("%v %dx%d S=%d", df, tor.Rows, tor.Cols, s)
				p := gemm.Problem{M: m, N: n, K: k, Dataflow: df}
				ev := NewMeshSliceEval(p, tor, c)
				c1, c2, comp, first, tail := ev.terms(s)
				if got := u[df]; got != (Iteration{c1, c2, comp, first, tail}) {
					t.Errorf("%s: Uniform %+v, MeshSliceEval %+v", name, got, Iteration{c1, c2, comp, first, tail})
				}
				e := MeshSlice(p, tor, c, s)
				if e != ev.Estimate(s) {
					t.Errorf("%s: MeshSlice %+v, MeshSliceEval %+v", name, e, ev.Estimate(s))
				}

				// OS and RS gather A over a ring of Cols first; LS reduces
				// C over it second. The other collective rides InterRow.
				col, row := [3]float64{d[df].Comm1, a[df].Comm1, u[df].Comm1}, [2]float64{d[df].Comm2, u[df].Comm2}
				if df == gemm.LS {
					col, row = [3]float64{d[df].Comm2, a[df].Comm2, u[df].Comm2}, [2]float64{d[df].Comm1, u[df].Comm1}
				}
				if col[0] != col[1] || !(col[0] > col[2]) {
					t.Errorf("%s: InterCol collective %v, want %v on the degraded chip (healthy %v)", name, col[0], col[1], col[2])
				}
				if row[0] != row[1] {
					t.Errorf("%s: InterRow collective %v, want healthy %v", name, row[0], row[1])
				}
				if d[df].Compute != u[df].Compute {
					t.Errorf("%s: compute %v moved off healthy %v", name, d[df].Compute, u[df].Compute)
				}
				wantFirst, wantTail := d[df].Comm1, d[df].Comm2
				if df == gemm.OS {
					wantFirst, wantTail = max(d[df].Comm1, d[df].Comm2), 0
				}
				if d[df].First != wantFirst || d[df].Tail != wantTail {
					t.Errorf("%s: first/tail %v/%v, want %v/%v", name, d[df].First, d[df].Tail, wantFirst, wantTail)
				}
			}
		}
	}
}
