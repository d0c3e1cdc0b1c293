package autotune

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"meshslice/internal/gemm"
	"meshslice/internal/model"
	"meshslice/internal/obs"
	"meshslice/internal/topology"
)

// TestTuneByteIdenticalAcrossWorkers pins the deterministic-merge contract:
// the Choice and the full metrics snapshot must be byte-identical whatever
// the worker count and whatever GOMAXPROCS the pool actually runs on.
func TestTuneByteIdenticalAcrossWorkers(t *testing.T) {
	cfg, ok := model.ByName("gpt3")
	if !ok {
		t.Fatal("gpt3 builtin missing")
	}
	run := func(workers, procs int) (Choice, []byte) {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		r := obs.NewRegistry()
		c, err := Tune(cfg, 1<<15, 64, testHW, Options{OptimizeDataflow: true, Metrics: r, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return c, buf.Bytes()
	}
	wantChoice, wantJSON := run(1, 1)
	for _, tc := range []struct{ workers, procs int }{{2, 2}, {8, 8}, {3, 1}, {0, 8}} {
		c, j := run(tc.workers, tc.procs)
		if !reflect.DeepEqual(c, wantChoice) {
			t.Errorf("workers=%d GOMAXPROCS=%d: Choice differs from serial", tc.workers, tc.procs)
		}
		if !bytes.Equal(j, wantJSON) {
			t.Errorf("workers=%d GOMAXPROCS=%d: metrics snapshot differs from serial", tc.workers, tc.procs)
		}
	}
}

// TestTuneUnderFaultsByteIdenticalAcrossWorkers extends the contract to the
// degradation-aware search, whose candidate generation runs on the same
// pool.
func TestTuneUnderFaultsByteIdenticalAcrossWorkers(t *testing.T) {
	const chips, tokens = 16, 2048
	plan := colDegradePlan(chips)
	run := func(workers int) FaultChoice {
		fc, err := TuneUnderFaults(tinyModel(), tokens, chips, testHW, plan, false, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return fc
	}
	want := run(1)
	for _, workers := range []int{2, 8} {
		if got := run(workers); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: FaultChoice differs from serial", workers)
		}
	}
}

// TestValidSliceCountsMatchesTrialDivision checks the O(√g) divisor
// enumeration against the straightforward trial division it replaced.
func TestValidSliceCountsMatchesTrialDivision(t *testing.T) {
	shapes := []topology.Torus{topology.NewTorus(2, 2), topology.NewTorus(4, 8), topology.NewTorus(8, 8), topology.NewTorus(1, 16)}
	probs := []gemm.Problem{
		{M: 1 << 15, N: 12288, K: 12288, Dataflow: gemm.OS},
		{M: 1 << 15, N: 12288, K: 12288, Dataflow: gemm.LS},
		{M: 1 << 15, N: 12288, K: 12288, Dataflow: gemm.RS},
		{M: 4096, N: 6720, K: 13440, Dataflow: gemm.OS},
	}
	for _, shape := range shapes {
		for _, p := range probs {
			got := validSliceCounts(p, shape, testHW)
			want := trialDivisionSliceCounts(p, shape)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v on %v: validSliceCounts = %v, want %v", p.Dataflow, shape, got, want)
			}
		}
	}
}

// trialDivisionSliceCounts is the reference O(g) enumeration.
func trialDivisionSliceCounts(p gemm.Problem, shape topology.Torus) []int {
	g, ok := p.MaxSliceCount(shape, testHW.SliceBlock)
	if !ok {
		return nil
	}
	var out []int
	for s := 1; s <= g; s++ {
		if g%s == 0 {
			out = append(out, s)
		}
	}
	return out
}

// TestExhaustiveDataflowMemoMatchesHeuristicGapInvariants re-runs the
// memoised exhaustive search twice and requires identical results — the
// memo must be a pure cache.
func TestExhaustiveDataflowDeterministicWithMemo(t *testing.T) {
	shape := topology.NewTorus(4, 4)
	a, okA := ExhaustiveDataflow(tinyModel(), 2048, shape, testHW, 0)
	b, okB := ExhaustiveDataflow(tinyModel(), 2048, shape, testHW, 0)
	if okA != okB || !reflect.DeepEqual(a, b) {
		t.Errorf("two identical exhaustive searches disagree")
	}
}

// TestTuneAllocationGate holds a one-worker GPT-3 Tune on 256 chips (seven
// candidate shapes) to a fixed object count. The search used to allocate
// 20 objects per call — a []LayerChoice per candidate shape plus
// append-grown shape lists; it now builds one Choice for the winner from
// presized tables.
func TestTuneAllocationGate(t *testing.T) {
	const prevAllocs, maxAllocs = 20, 12
	cfg := model.GPT3()
	tokens := cfg.WeakScalingTokens(256)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Tune(cfg, tokens, 256, testHW, Options{OptimizeDataflow: true, Workers: 1}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("GPT-3 Tune on 256 chips: %.0f allocs per call (was %d)", allocs, prevAllocs)
	if allocs > maxAllocs {
		t.Errorf("Tune allocates %.0f objects per call, want ≤ %d", allocs, maxAllocs)
	}
}
