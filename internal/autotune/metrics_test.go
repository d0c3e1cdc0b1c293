package autotune

import (
	"bytes"
	"testing"

	"meshslice/internal/gemm"
	"meshslice/internal/model"
	"meshslice/internal/obs"
	"meshslice/internal/topology"
)

func TestTunePublishesSearchMetrics(t *testing.T) {
	cfg, ok := model.ByName("gpt3")
	if !ok {
		t.Fatal("gpt3 builtin missing")
	}
	r := obs.NewRegistry()
	_, err := Tune(cfg, 1<<15, 64, testHW, Options{OptimizeDataflow: true, Metrics: r})
	if err != nil {
		t.Fatal(err)
	}
	evaluated := r.Counter("autotune_shapes_evaluated").Value()
	pruned := r.Counter("autotune_shapes_pruned").Value()
	if evaluated != float64(len(topology.MeshShapes2D(64))) {
		t.Errorf("shapes evaluated = %v, want %d", evaluated, len(topology.MeshShapes2D(64)))
	}
	if pruned > evaluated {
		t.Errorf("pruned %v > evaluated %v", pruned, evaluated)
	}
	if calls := r.Counter("autotune_costmodel_calls").Value(); calls <= 0 {
		t.Errorf("costmodel calls = %v, want > 0", calls)
	}
	if passes := r.Counter("autotune_passes_tuned").Value(); passes <= 0 {
		t.Errorf("passes tuned = %v, want > 0", passes)
	}
	// Best-so-far trajectory is non-increasing and ends at the result.
	snap := r.Snapshot()
	var traj *obs.SeriesPoint
	for i := range snap.Series {
		if snap.Series[i].Name == "autotune_best_blocktime" {
			traj = &snap.Series[i]
		}
	}
	if traj == nil || len(traj.Y) == 0 {
		t.Fatal("autotune_best_blocktime trajectory missing or empty")
	}
	for i := 1; i < len(traj.Y); i++ {
		if traj.Y[i] > traj.Y[i-1] {
			t.Errorf("best-so-far increased at %d: %v -> %v", i, traj.Y[i-1], traj.Y[i])
		}
	}
}

func TestTuneMetricsDeterministic(t *testing.T) {
	cfg, ok := model.ByName("gpt3")
	if !ok {
		t.Fatal("gpt3 builtin missing")
	}
	run := func() []byte {
		r := obs.NewRegistry()
		if _, err := Tune(cfg, 1<<15, 64, testHW, Options{OptimizeDataflow: true, Metrics: r}); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if a, b := run(), run(); !bytes.Equal(a, b) {
		t.Errorf("two identical tunes snapshot differently")
	}
}

func TestInstrumentedTunePassMatchesTunePass(t *testing.T) {
	p := gemm.Problem{M: 1 << 15, N: 12288, K: 12288, Dataflow: gemm.OS}
	shape := topology.NewTorus(8, 8)
	r := obs.NewRegistry()
	got, ok := InstrumentedTunePass(p, shape, testHW, 0, r)
	want, ok2 := TunePass(p, shape, testHW, 0)
	if ok != ok2 || got.S != want.S {
		t.Errorf("instrumented pass diverged: S=%d ok=%v vs S=%d ok=%v", got.S, ok, want.S, ok2)
	}
	if calls := r.Counter("autotune_costmodel_calls").Value(); calls <= 0 {
		t.Errorf("costmodel calls not counted")
	}
}

// TestDistinctPasses checks the distinct-problem table on GPT-3's plan and
// that the search counters count what ran: one slice-count search per
// distinct problem and shape, every (layer, pass) assignment counted.
func TestDistinctPasses(t *testing.T) {
	cfg := model.GPT3()
	const chips = 256
	tokens := cfg.WeakScalingTokens(chips)
	plans := PlanModel(cfg, tokens, true)
	table := newPassTable(plans)
	if len(table.probs) != 9 {
		t.Fatalf("GPT-3 plan has %d distinct problems, want 9 (FF2 repeats FF1's three)", len(table.probs))
	}
	for i, plan := range plans {
		for pass, p := range plan.Passes {
			if got := table.probs[table.rows[i][pass]]; got != p {
				t.Errorf("layer %d pass %d reads %+v, want %+v", i, pass, got, p)
			}
		}
	}
	// Each distinct search evaluates every valid slice count up to MaxS.
	var evals int
	shapes := topology.MeshShapes2D(chips)
	for _, shape := range shapes {
		for _, p := range table.probs {
			counts := validSliceCounts(p, shape, testHW)
			if len(counts) == 0 {
				t.Fatalf("%v does not shard on %v; the expected count assumes every shape shards", p, shape)
			}
			for _, s := range counts {
				if s <= 64 {
					evals++
				}
			}
		}
	}
	r := obs.NewRegistry()
	if _, err := Tune(cfg, tokens, chips, testHW, Options{OptimizeDataflow: true, Metrics: r}); err != nil {
		t.Fatal(err)
	}
	if got := r.Counter("autotune_costmodel_calls").Value(); got != float64(evals) {
		t.Errorf("autotune_costmodel_calls = %v, want %d (the sum over the distinct searches)", got, evals)
	}
	if got, want := r.Counter("autotune_passes_tuned").Value(), float64(len(shapes)*3*len(plans)); got != want {
		t.Errorf("autotune_passes_tuned = %v, want %v (one per pass and shape)", got, want)
	}
}
