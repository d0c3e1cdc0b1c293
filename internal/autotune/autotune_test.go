package autotune

import (
	"fmt"
	"strings"
	"testing"

	"meshslice/internal/fault"
	"meshslice/internal/gemm"
	"meshslice/internal/hw"
	"meshslice/internal/model"
	"meshslice/internal/topology"
)

var testHW = hw.TPUv4()

func TestPlanForTableOneRows(t *testing.T) {
	fc := model.FCLayer{Name: "FF2", InDim: 49152, OutDim: 12288}
	const tokens = 1 << 18

	y := PlanFor(fc, tokens, gemm.YStn)
	if y.Passes[model.Forward].Dataflow != gemm.OS ||
		y.Passes[model.BackwardData].Dataflow != gemm.LS ||
		y.Passes[model.BackwardWeight].Dataflow != gemm.RS {
		t.Errorf("Y-stn dataflows wrong: %+v", y.Passes)
	}
	x := PlanFor(fc, tokens, gemm.XStn)
	if x.Passes[model.Forward].Dataflow != gemm.LS ||
		x.Passes[model.BackwardData].Dataflow != gemm.OS ||
		x.Passes[model.BackwardWeight].Dataflow != gemm.RS {
		t.Errorf("X-stn dataflows wrong: %+v", x.Passes)
	}
	w := PlanFor(fc, tokens, gemm.WStn)
	if w.Passes[model.Forward].Dataflow != gemm.RS ||
		w.Passes[model.BackwardData].Dataflow != gemm.LS ||
		w.Passes[model.BackwardWeight].Dataflow != gemm.OS {
		t.Errorf("W-stn dataflows wrong: %+v", w.Passes)
	}
	if !w.TransposedInput || y.TransposedInput || x.TransposedInput {
		t.Errorf("TransposedInput flags wrong")
	}
}

func TestPlanShapesConsistent(t *testing.T) {
	// Every pass's problem must describe the same amount of work:
	// 2·tokens·in·out FLOPs.
	fc := model.FCLayer{Name: "QKV", InDim: 12288, OutDim: 36864}
	const tokens = 4096
	want := 2.0 * tokens * 12288 * 36864
	for _, s := range []gemm.Stationary{gemm.YStn, gemm.XStn, gemm.WStn} {
		plan := PlanFor(fc, tokens, s)
		for pass, p := range plan.Passes {
			got := 2.0 * float64(p.M) * float64(p.N) * float64(p.K)
			if got != want {
				t.Errorf("%v pass %d FLOPs = %g, want %g", s, pass, got, want)
			}
		}
	}
}

func TestChooseDataflowKeepsLargestStationary(t *testing.T) {
	const tokens = 1 << 18
	// FF1: output (tokens×4h) is largest → Y-stn.
	ff1 := ChooseDataflow(model.FCLayer{Name: "FF1", InDim: 12288, OutDim: 49152}, tokens)
	if ff1.Stationary != gemm.YStn {
		t.Errorf("FF1 stationary = %v, want Y-stn", ff1.Stationary)
	}
	// FF2: input (tokens×4h) is largest → X-stn.
	ff2 := ChooseDataflow(model.FCLayer{Name: "FF2", InDim: 49152, OutDim: 12288}, tokens)
	if ff2.Stationary != gemm.XStn {
		t.Errorf("FF2 stationary = %v, want X-stn", ff2.Stationary)
	}
	// Tiny token count: weight dominates → W-stn.
	w := ChooseDataflow(model.FCLayer{Name: "FF2", InDim: 49152, OutDim: 12288}, 64)
	if w.Stationary != gemm.WStn {
		t.Errorf("weight-dominated stationary = %v, want W-stn", w.Stationary)
	}
	// Square layer under ties → the non-transposed default.
	sq := ChooseDataflow(model.FCLayer{Name: "AttnOut", InDim: 12288, OutDim: 12288}, tokens)
	if sq.Stationary != gemm.YStn {
		t.Errorf("tie stationary = %v, want Y-stn", sq.Stationary)
	}
}

func TestPlanModelOptimizedVsDefault(t *testing.T) {
	cfg := model.GPT3()
	tokens := cfg.WeakScalingTokens(256)
	def := PlanModel(cfg, tokens, false)
	opt := PlanModel(cfg, tokens, true)
	if len(def) != 4 || len(opt) != 4 {
		t.Fatalf("plan lengths %d/%d", len(def), len(opt))
	}
	for _, p := range def {
		if p.Stationary != gemm.YStn {
			t.Errorf("default plan for %s = %v, want Y-stn", p.Layer.Name, p.Stationary)
		}
	}
	// The optimised plan must differ somewhere (FF2 flips to X-stn).
	differ := false
	for i := range opt {
		if opt[i].Stationary != def[i].Stationary {
			differ = true
		}
	}
	if !differ {
		t.Errorf("optimised plan identical to default")
	}
}

// validSliceCounts enumerates the slice counts S usable for the problem on
// the shape: the divisors of gemm.Problem.MaxSliceCount, in increasing
// order; empty means the problem cannot run on this shape. It is the
// reference searchS's bounded trial division is checked against.
func validSliceCounts(p gemm.Problem, shape topology.Torus, chip hw.Chip) []int {
	g, ok := p.MaxSliceCount(shape, chip.SliceBlock)
	if !ok {
		return nil
	}
	// Divisors in O(√g) pairs: each divisor s ≤ √g pairs with g/s ≥ √g, so
	// appending the large half in reverse yields ascending order.
	var small, large []int
	for s := 1; s*s <= g; s++ {
		if g%s == 0 {
			small = append(small, s)
			if q := g / s; q != s {
				large = append(large, q)
			}
		}
	}
	for i := len(large) - 1; i >= 0; i-- {
		small = append(small, large[i])
	}
	return small
}

func TestValidSliceCounts(t *testing.T) {
	p := gemm.Problem{M: 1 << 17, N: 12288, K: 12288, Dataflow: gemm.OS}
	shape := topology.NewTorus(16, 16)
	counts := validSliceCounts(p, shape, testHW)
	if len(counts) == 0 || counts[0] != 1 {
		t.Fatalf("validSliceCounts = %v", counts)
	}
	// Sliced dims: K/16 = 768, /B(8) = 96 per direction; gcd = 96.
	for _, s := range counts {
		if 96%s != 0 {
			t.Errorf("S=%d does not divide 96", s)
		}
	}
	// Unshardable problem yields nothing.
	bad := gemm.Problem{M: 100, N: 100, K: 100, Dataflow: gemm.OS}
	if got := validSliceCounts(bad, shape, testHW); got != nil {
		t.Errorf("unshardable problem returned %v", got)
	}
}

func TestTunePassPicksInteriorS(t *testing.T) {
	// Compute-rich FF1 on the Fig. 14 mesh: slicing must pay off.
	p := gemm.Problem{M: 1 << 18, N: 49152, K: 12288, Dataflow: gemm.OS}
	pc, ok := TunePass(p, topology.NewTorus(32, 8), testHW, 64)
	if !ok {
		t.Fatalf("TunePass failed")
	}
	if pc.S <= 1 {
		t.Errorf("tuned S = %d, want > 1 (overlap should help)", pc.S)
	}
	if pc.Estimate.Total() <= 0 {
		t.Errorf("degenerate estimate %+v", pc.Estimate)
	}
}

func TestTuneEndToEnd(t *testing.T) {
	cfg := model.GPT3()
	const chips = 256
	tokens := cfg.WeakScalingTokens(chips)
	choice, err := Tune(cfg, tokens, chips, testHW, Options{OptimizeDataflow: true})
	if err != nil {
		t.Fatalf("Tune: %v", err)
	}
	if choice.Shape.Size() != chips {
		t.Errorf("chosen shape %v has %d chips", choice.Shape, choice.Shape.Size())
	}
	if choice.BlockTime <= 0 {
		t.Errorf("block time %v", choice.BlockTime)
	}
	if len(choice.Layers) != 4 {
		t.Errorf("layers = %d", len(choice.Layers))
	}
	// The chosen shape must beat (or match) every other candidate when
	// re-evaluated with the same models — the definition of the search.
	for _, shape := range topology.MeshShapes2D(chips) {
		alt, err := Tune(cfg, tokens, chips, testHW, Options{
			OptimizeDataflow: true, Shapes: []topology.Torus{shape},
		})
		if err != nil {
			continue
		}
		if alt.BlockTime < choice.BlockTime-1e-12 {
			t.Errorf("shape %v (%v) beats chosen %v (%v)", shape, alt.BlockTime, choice.Shape, choice.BlockTime)
		}
	}
}

func TestTuneOptimizedBeatsDefaultDataflow(t *testing.T) {
	// Table 2: dataflow optimisation speeds up GPT-3 FC training.
	cfg := model.GPT3()
	const chips = 256
	tokens := cfg.WeakScalingTokens(chips)
	opt, err := Tune(cfg, tokens, chips, testHW, Options{OptimizeDataflow: true})
	if err != nil {
		t.Fatalf("Tune opt: %v", err)
	}
	def, err := Tune(cfg, tokens, chips, testHW, Options{OptimizeDataflow: false})
	if err != nil {
		t.Fatalf("Tune def: %v", err)
	}
	if opt.BlockTime >= def.BlockTime {
		t.Errorf("optimised (%v) should beat default (%v)", opt.BlockTime, def.BlockTime)
	}
}

func TestTuneErrors(t *testing.T) {
	cfg := model.GPT3()
	if _, err := Tune(cfg, 0, 256, testHW, Options{}); err == nil {
		t.Errorf("tokens=0 accepted")
	}
	if _, err := Tune(cfg, 2048, 0, testHW, Options{}); err == nil {
		t.Errorf("chips=0 accepted")
	}
	bad := cfg
	bad.Layers = 0
	if _, err := Tune(bad, 2048, 256, testHW, Options{}); err == nil {
		t.Errorf("invalid model accepted")
	}
}

// TestTuneRejectsBadShapes: a candidate shape with a non-positive dimension
// is an error naming it, never a divide-by-zero panic (which, on a pool
// goroutine, would kill the process) or a misleading "cannot shard".
func TestTuneRejectsBadShapes(t *testing.T) {
	cfg := tinyModel()
	for _, tc := range []struct {
		shape   topology.Torus
		workers int
		faults  bool
	}{
		{topology.Torus{Rows: 0, Cols: 64}, 1, false},
		{topology.Torus{Rows: 0, Cols: 64}, 4, false},
		{topology.Torus{Rows: 8, Cols: -8}, 1, false},
		{topology.Torus{Rows: 0, Cols: 64}, 4, true},
		{topology.Torus{Rows: 8, Cols: -8}, 1, true},
	} {
		name := fmt.Sprintf("%dx%d", tc.shape.Rows, tc.shape.Cols)
		opts := Options{Shapes: []topology.Torus{topology.NewTorus(8, 8), tc.shape}, Workers: tc.workers}
		var err error
		if tc.faults {
			_, err = TuneUnderFaults(cfg, 2048, 64, testHW, &fault.Plan{}, false, opts)
		} else {
			_, err = Tune(cfg, 2048, 64, testHW, opts)
		}
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("shape %s (workers %d, faults %v): err = %v, want one naming the shape", name, tc.workers, tc.faults, err)
		}
	}
}

func TestStationaryString(t *testing.T) {
	if gemm.YStn.String() != "Y-stn" || gemm.XStn.String() != "X-stn" || gemm.WStn.String() != "W-stn" {
		t.Errorf("strings: %v %v %v", gemm.YStn, gemm.XStn, gemm.WStn)
	}
	if gemm.Stationary(9).String() == "" {
		t.Errorf("unknown stationary must render")
	}
}
