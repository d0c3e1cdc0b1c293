package meshslice_test

import (
	"bytes"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	meshslice "meshslice"
	"meshslice/internal/tensor"
)

func TestFacadeMultiply(t *testing.T) {
	p := meshslice.Problem{M: 32, N: 32, K: 32, Dataflow: meshslice.OS}
	tor := meshslice.NewTorus(2, 2)
	rng := rand.New(rand.NewSource(1))
	a := tensor.Random(32, 32, rng)
	b := tensor.Random(32, 32, rng)
	got, err := meshslice.Multiply(p, tor, meshslice.MeshSliceConfig{S: 2, Block: 2}, a, b)
	if err != nil {
		t.Fatalf("Multiply: %v", err)
	}
	want := tensor.MatMul(a, b)
	if !got.Equal(want, 1e-9) {
		t.Errorf("facade Multiply wrong: max diff %g", got.MaxAbsDiff(want))
	}
	if _, err := meshslice.Multiply(p, tor, meshslice.MeshSliceConfig{S: 7, Block: 3}, a, b); err == nil {
		t.Errorf("invalid config accepted")
	}
}

func TestFacadeSimulateAndEstimate(t *testing.T) {
	p := meshslice.Problem{M: 1 << 14, N: 8192, K: 8192, Dataflow: meshslice.OS}
	tor := meshslice.NewTorus(4, 4)
	chip := meshslice.TPUv4()
	r := meshslice.Simulate(p, tor, chip, 4, meshslice.SimOptions{})
	if r.Makespan <= 0 {
		t.Errorf("Simulate makespan %v", r.Makespan)
	}
	e := meshslice.EstimateCost(p, tor, chip, 4)
	if e.Total() <= 0 {
		t.Errorf("EstimateCost total %v", e.Total())
	}
	// The cost model and simulator must agree within a loose band — they
	// model the same machine (the simulator adds contention and skew).
	ratio := r.Makespan / e.Total()
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("simulation %v vs estimate %v diverge (ratio %.2f)", r.Makespan, e.Total(), ratio)
	}
}

func TestFacadeTuneAndTrainStep(t *testing.T) {
	cfg := meshslice.GPT3()
	chip := meshslice.TPUv4()
	const chips = 16
	tokens := cfg.WeakScalingTokens(chips)
	choice, err := meshslice.Tune(cfg, tokens, chips, chip)
	if err != nil {
		t.Fatalf("Tune: %v", err)
	}
	if choice.Shape.Size() != chips {
		t.Errorf("tuned shape %v", choice.Shape)
	}
	step, err := meshslice.TrainStep(cfg, tokens, chips, chip)
	if err != nil {
		t.Fatalf("TrainStep: %v", err)
	}
	if step.Total <= 0 || step.FCTime <= 0 || step.NonFCTime <= 0 {
		t.Errorf("degenerate step %+v", step)
	}
}

func TestFacadePlanningAPIs(t *testing.T) {
	cfg := meshslice.GPT3()
	chip := meshslice.TPUv4()

	foot, err := meshslice.EstimateMemory(cfg, meshslice.MemoryParams{
		TPDegree: 64, PPDegree: 8, TokensPerReplica: 4096,
		BytesPerParam: 2, SliceCount: 8,
	})
	if err != nil {
		t.Fatalf("EstimateMemory: %v", err)
	}
	if foot.Total() <= 0 {
		t.Errorf("degenerate footprint %+v", foot)
	}

	plans := meshslice.PlanCluster(cfg, 512, 128, chip, 8)
	if len(plans) == 0 {
		t.Fatalf("PlanCluster found nothing")
	}
	if plans[0].StepTime <= 0 || plans[0].Plan.Chips() != 512 {
		t.Errorf("bad best plan %+v", plans[0])
	}
}

func TestFacadeProfileLoaders(t *testing.T) {
	if _, err := meshslice.LoadChipProfile("/nonexistent.json"); err == nil {
		t.Errorf("missing chip profile accepted")
	}
	if _, err := meshslice.LoadModelConfig("/nonexistent.json"); err == nil {
		t.Errorf("missing model config accepted")
	}
}

// TestOneBenchmarkHarness keeps the measuring instrument single: every PR
// is judged by benchmark/ against its parent commit, so a testing.B function
// or a committed BENCH_*.json elsewhere would be a second, ungated harness.
// DESIGN.md and README.md may not name a Benchmark function either: none
// exists, so such a name sends the reader to a harness that is not there.
func TestOneBenchmarkHarness(t *testing.T) {
	if stale, _ := filepath.Glob("BENCH_*.json"); len(stale) > 0 {
		t.Errorf("%v: baselines live in benchmark/baseline.json (see benchmark/README.md)", stale)
	}
	benchName := regexp.MustCompile(`\bBenchmark[A-Z]\w*`)
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		if names := benchName.FindAll(src, -1); len(names) > 0 {
			t.Errorf("%s names %d Benchmark functions (first %s), and the repo has none: point at cmd/experiments or benchmark/ instead", doc, len(names), names[0])
		}
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// Dot directories hold no source: .git, .bench_build's caches.
			if path == "benchmark" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if bytes.Contains(src, []byte("\nfunc Benchmark")) {
			t.Errorf("%s declares a Benchmark function: add a workload or per-layer probe under benchmark/ instead (see benchmark/README.md)", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
