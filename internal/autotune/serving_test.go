package autotune

import (
	"bytes"
	"math"
	"testing"

	"meshslice/internal/fault"
	"meshslice/internal/hw"
	"meshslice/internal/model"
	"meshslice/internal/serve"
	"meshslice/internal/topology"
)

func servingTestInputs() (model.Config, hw.Chip, serve.SLO, []serve.Request, ServingOptions) {
	cfg := model.GPT3()
	chip := hw.TPUv4()
	slo := serve.SLO{TTFT: 1.0, PerToken: 0.05}
	wl := serve.WorkloadSpec{Seed: 42, Rate: 15, Requests: 20}.Generate()
	opts := ServingOptions{
		MaxBatches:  []int{16},
		ChunkTokens: []int{256},
		SliceCounts: []int{1, 4},
		HBMBytes:    64 * 1 << 30, // GPT-3's 22 GB weight shard needs headroom on 16 chips
	}
	return cfg, chip, slo, wl, opts
}

func TestTuneServingDeterministicAcrossWorkers(t *testing.T) {
	cfg, chip, slo, wl, opts := servingTestInputs()
	var snaps [][]byte
	for _, workers := range []int{1, 8} {
		o := opts
		o.Workers = workers
		choice, err := TuneServing(cfg, 16, chip, slo, wl, o)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		if err := choice.Report.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, buf.Bytes())
	}
	if !bytes.Equal(snaps[0], snaps[1]) {
		t.Fatal("TuneServing result differs between 1 and 8 workers")
	}
}

func TestTuneServingFindsServingConfiguration(t *testing.T) {
	cfg, chip, slo, wl, opts := servingTestInputs()
	choice, err := TuneServing(cfg, 16, chip, slo, wl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !choice.Report.Feasible {
		t.Fatalf("winner infeasible: %s", choice.Report.Reason)
	}
	if !(choice.Report.Goodput > 0) {
		t.Fatalf("winner goodput %g, want > 0", choice.Report.Goodput)
	}
	if choice.Shape.Size() != 16 {
		t.Fatalf("healthy-fabric winner uses %d chips, want 16", choice.Shape.Size())
	}
	// The winner must be at least as good as every other grid point.
	for _, shape := range topology.MeshShapes2D(16) {
		for _, s := range opts.SliceCounts {
			rep, err := serve.Run(serve.Config{
				Model: cfg, Chip: chip, Mesh: shape,
				Policy:   serve.Policy{MaxBatch: 16, ChunkTokens: 256, SliceCount: s},
				SLO:      slo,
				HBMBytes: opts.HBMBytes,
			}, wl)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Feasible && rep.Goodput > choice.Report.Goodput {
				t.Fatalf("%dx%d S=%d goodput %g beats winner's %g",
					shape.Rows, shape.Cols, s, rep.Goodput, choice.Report.Goodput)
			}
		}
	}
}

func TestTuneServingUnderChipFailuresStrictlyImproves(t *testing.T) {
	cfg, chip, slo, wl, opts := servingTestInputs()
	// Fail 7 of 16 chips: no 16-chip mesh survives, but 9 chips still fit
	// a 3×3 (or smaller) mesh — the stale shape is infeasible, so retuning
	// must strictly improve goodput.
	var plan fault.Plan
	for _, c := range []int{1, 3, 6, 8, 11, 13, 14} {
		plan.ChipFails = append(plan.ChipFails, fault.ChipFail{Chip: c, At: 0})
	}
	res, err := TuneServingUnderFaults(cfg, 16, chip, slo, wl, &plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.StaleUnderFaults.Feasible {
		t.Fatalf("stale %dx%d mesh reported feasible with 9 survivors", res.Stale.Shape.Rows, res.Stale.Shape.Cols)
	}
	if !(res.StaleUnderFaults.Goodput < 1e-12) {
		t.Fatalf("stale goodput %g under 7 chip failures, want 0", res.StaleUnderFaults.Goodput)
	}
	if res.Retuned.Shape.Size() > 9 {
		t.Fatalf("retuned mesh %dx%d needs %d chips, only 9 survive",
			res.Retuned.Shape.Rows, res.Retuned.Shape.Cols, res.Retuned.Shape.Size())
	}
	if !(res.Retuned.Report.Goodput > 0) || !(res.Gain() > 0) {
		t.Fatalf("retuning gain %g (retuned goodput %g), want strictly positive",
			res.Gain(), res.Retuned.Report.Goodput)
	}
	if res.Retuned.Report.SLOMet == 0 {
		t.Fatal("retuned configuration meets the SLO for no request")
	}
}

func TestTuneServingUnderColDegradeNeverWorse(t *testing.T) {
	cfg, chip, slo, wl, opts := servingTestInputs()
	var plan fault.Plan
	for c := 0; c < 16; c++ {
		plan.Degrades = append(plan.Degrades, fault.LinkDegrade{
			Link: fault.Link{Chip: c, Dir: topology.InterCol}, Factor: 16,
		})
	}
	res, err := TuneServingUnderFaults(cfg, 16, chip, slo, wl, &plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Gain() < 0 {
		t.Fatalf("retuning made goodput worse by %g — stale config missing from candidate set?", -res.Gain())
	}
	if !res.Retuned.Report.Feasible {
		t.Fatalf("retuned infeasible: %s", res.Retuned.Report.Reason)
	}
}

// TestTuneServingReportsTraceError: a malformed trace is the caller's
// error, not "no feasible serving configuration".
func TestTuneServingReportsTraceError(t *testing.T) {
	cfg, chip, slo, wl, opts := servingTestInputs()
	wl[3].Arrival = math.NaN()
	want := serve.ValidateTrace(wl)
	if want == nil {
		t.Fatal("test premise broken: NaN arrival validates")
	}
	_, err := TuneServing(cfg, 16, chip, slo, wl, opts)
	if err == nil || err.Error() != want.Error() {
		t.Fatalf("TuneServing error %v, want the trace's %v", err, want)
	}
}

func TestSurvivorShapes(t *testing.T) {
	got := survivorShapes(9)
	want := []topology.Torus{{Rows: 2, Cols: 2}, {Rows: 2, Cols: 3}, {Rows: 2, Cols: 4},
		{Rows: 3, Cols: 2}, {Rows: 3, Cols: 3}, {Rows: 4, Cols: 2}}
	if len(got) != len(want) {
		t.Fatalf("survivorShapes(9) = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("survivorShapes(9)[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}
