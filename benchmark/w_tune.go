package main

import (
	"bytes"
	"hash/fnv"
	"math/rand"

	"meshslice/internal/autotune"
	"meshslice/internal/cluster"
	"meshslice/internal/costmodel"
	"meshslice/internal/hw"
	"meshslice/internal/model"
	"meshslice/internal/obs"
	"meshslice/internal/serve"
	"meshslice/internal/topology"
)

// ---- tune_train ----

const tuneRepeats = 100

// tuneOp is one autotuner or planner call. search ops run cluster.Search
// with chips as the cluster size; the rest run autotune.Tune.
type tuneOp struct {
	cfg    model.Config
	chips  int
	search bool
}

// tuneResult is what a tune op is checked on.
type tuneResult struct {
	choice autotune.Choice
	plans  []cluster.Evaluation
	err    error
}

type tuneTrain struct {
	chip   hw.Chip
	combos []tuneOp // the distinct calls
	order  []int    // one round: indices into combos, seed-shuffled
	ref    []tuneResult
	got    []tuneResult // per op of the round
}

const searchBatch, max1DTP = 512, 8

func setupTuneTrain(seed int64) (instance, error) {
	w := &tuneTrain{chip: hw.TPUv4()}
	for _, cfg := range model.Builtins() {
		for _, chips := range []int{64, 256, 1024, 4096} {
			w.combos = append(w.combos, tuneOp{cfg: cfg, chips: chips})
		}
	}
	tunes := len(w.combos)
	w.combos = append(w.combos,
		tuneOp{cfg: model.GPT3(), chips: 1024, search: true},
		tuneOp{cfg: model.MegatronNLG(), chips: 2048, search: true})
	for i := range w.combos {
		reps := 1
		if i < tunes {
			reps = tuneRepeats
		}
		for r := 0; r < reps; r++ {
			w.order = append(w.order, i)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(w.order), func(i, j int) { w.order[i], w.order[j] = w.order[j], w.order[i] })

	w.ref = make([]tuneResult, len(w.combos))
	for i, op := range w.combos {
		w.ref[i] = w.run(nil, op)
		if w.ref[i].err != nil || op.search && len(w.ref[i].plans) == 0 {
			return nil, errorf("tune_train: %s on %d chips has no feasible configuration: %v", op.cfg.Name, op.chips, w.ref[i].err)
		}
	}
	w.got = make([]tuneResult, len(w.order))
	return w, nil
}

func (w *tuneTrain) run(tr *tracer, op tuneOp) tuneResult {
	var r tuneResult
	if op.search {
		tr.do("cluster", "cluster.Search", func() {
			r.plans = cluster.Search(op.cfg, op.chips, searchBatch, w.chip, max1DTP, cluster.Options{})
		})
		return r
	}
	tr.do("autotune", "autotune.Tune", func() {
		r.choice, r.err = autotune.Tune(op.cfg, op.cfg.WeakScalingTokens(op.chips), op.chips, w.chip,
			autotune.Options{OptimizeDataflow: true})
	})
	return r
}

func (w *tuneTrain) round() {
	for i, c := range w.order {
		w.got[i] = w.run(nil, w.combos[c])
	}
}

func (w *tuneTrain) traced(tr *tracer) error {
	for i, c := range w.order {
		tr.nextOp()
		w.got[i] = w.run(tr, w.combos[c])
	}
	return nil
}

func sameChoice(a, b autotune.Choice) bool {
	if a.Shape != b.Shape || !bitsEqual(a.BlockTime, b.BlockTime) || len(a.Layers) != len(b.Layers) {
		return false
	}
	for i := range a.Layers {
		for p := range a.Layers[i].Passes {
			if a.Layers[i].Passes[p].S != b.Layers[i].Passes[p].S {
				return false
			}
		}
	}
	return true
}

func samePlans(a, b []cluster.Evaluation) bool {
	return len(a) > 0 && len(a) == len(b) && a[0].Plan == b[0].Plan && bitsEqual(a[0].StepTime, b[0].StepTime)
}

func (w *tuneTrain) check() (int, int) {
	failed := 0
	for i, c := range w.order {
		got, ref := w.got[i], w.ref[c]
		switch {
		case got.err != nil:
			failed++
		case w.combos[c].search && !samePlans(got.plans, ref.plans):
			failed++
		case !w.combos[c].search && !sameChoice(got.choice, ref.choice):
			failed++
		}
	}
	return len(w.order), failed
}

func (w *tuneTrain) probes(tr *tracer, out metricSet) error {
	var plans float64
	type priced struct {
		prob  autotune.PassChoice
		shape topology.Torus
	}
	var winners []priced
	reg := obs.NewRegistry()
	tunes := w.combos[:len(w.combos)-2]
	for i, op := range w.combos {
		if op.search {
			plans += float64(len(w.ref[i].plans))
			continue
		}
		if _, err := autotune.Tune(op.cfg, op.cfg.WeakScalingTokens(op.chips), op.chips, w.chip,
			autotune.Options{OptimizeDataflow: true, Metrics: reg}); err != nil {
			return err
		}
		for _, layer := range w.ref[i].choice.Layers {
			for _, pc := range layer.Passes {
				winners = append(winners, priced{pc, w.ref[i].choice.Shape})
			}
		}
	}
	snap := reg.Snapshot()

	// The serial pieces of Tune, replayed over exactly the (shape, pass)
	// pairs it visits: what is left of a one-worker Tune is its own
	// overhead (worker pool, result staging, fold, allocation).
	planMs := timeIt(5, func() {
		for _, op := range tunes {
			autotune.PlanModel(op.cfg, op.cfg.WeakScalingTokens(op.chips), true)
		}
	})
	passMs := timeIt(5, func() {
		for _, op := range tunes {
			layers := autotune.PlanModel(op.cfg, op.cfg.WeakScalingTokens(op.chips), true)
			for _, shape := range topology.MeshShapes2D(op.chips) {
				w.tuneShape(layers, shape)
			}
		}
	}) - planMs
	serialMs := timeIt(5, func() {
		for _, op := range tunes {
			autotune.Tune(op.cfg, op.cfg.WeakScalingTokens(op.chips), op.chips, w.chip,
				autotune.Options{OptimizeDataflow: true, Workers: 1})
		}
	})
	passes := sumCounter(snap, "autotune_passes_tuned")
	const evalLoops = 200
	evalMs := timeIt(5, func() {
		for l := 0; l < evalLoops; l++ {
			for _, p := range winners {
				costmodel.MeshSlice(p.prob.Problem, p.shape, w.chip, p.prob.S)
			}
		}
	})
	evals := make([]costmodel.MeshSliceEval, len(winners))
	for i, p := range winners {
		evals[i] = costmodel.NewMeshSliceEval(p.prob.Problem, p.shape, w.chip)
	}
	var sink float64
	scalarMs := timeIt(5, func() {
		for l := 0; l < evalLoops; l++ {
			for i := range evals {
				sink += evals[i].Total(winners[i].prob.S)
			}
		}
	})
	if sink <= 0 {
		return errorf("tune_train: cost model totals sum to %v", sink)
	}
	perEval := float64(evalLoops * len(winners))
	out["costmodel.eval_ns"] = evalMs * 1e6 / perEval
	out["costmodel.eval_scalar_ns"] = scalarMs * 1e6 / perEval
	out["costmodel.evals"] = tuneRepeats * sumCounter(snap, "autotune_costmodel_calls")
	out["autotune.tune_us"] = tr.ms("autotune.Tune") * 1e3 / tr.calls("autotune.Tune")
	out["autotune.planmodel_us"] = planMs * 1e3 / float64(len(tunes))
	out["autotune.tunepass_us"] = passMs * 1e3 / passes
	out["autotune.tunepass_calls"] = tuneRepeats * passes
	out["autotune.fold_overhead_pct"] = 100 * (serialMs - planMs - passMs) / serialMs
	out["autotune.candidates"] = tuneRepeats * sumCounter(snap, "autotune_shapes_evaluated")
	out["cluster.search_ms"] = tr.ms("cluster.Search")
	out["cluster.plans"] = plans
	return nil
}

// tuneShape visits the passes autotune.Tune visits on one shape: in plan
// order, stopping at the first pass that does not shard.
func (w *tuneTrain) tuneShape(layers []autotune.LayerPlan, shape topology.Torus) {
	for _, layer := range layers {
		for _, prob := range layer.Passes {
			if _, ok := autotune.TunePass(prob, shape, w.chip, 0); !ok {
				return
			}
		}
	}
}

func (w *tuneTrain) close() {}

// ---- serve_tune ----

// serveTrace is one request trace with the HBM budget it is served under.
type serveTrace struct {
	name string
	spec serve.WorkloadSpec
	hbm  float64
	reqs []serve.Request
}

// serveRef pins one TuneServing result: which deployment won and the exact
// bytes of its report.
type serveRef struct {
	shape      topology.Torus
	policy     serve.Policy
	goodput    float64
	reportHash uint64
	reportLen  int
}

type serveTune struct {
	cfg    model.Config
	chip   hw.Chip
	slo    serve.SLO
	traces []serveTrace
	ref    []serveRef
	got    []autotune.ServingChoice
	errs   []error
}

const (
	serveChips    = 64
	serveRequests = 768
)

// servingGrid is autotune.ServingOptions' default grid, spelt out so the
// serial composition enumerates the same candidates in the same order.
func servingGrid(hbm float64) autotune.ServingOptions {
	return autotune.ServingOptions{
		Shapes:      topology.MeshShapes2D(serveChips),
		MaxBatches:  []int{16, 32, 64},
		ChunkTokens: []int{256, 512},
		SliceCounts: []int{1, 4},
		HBMBytes:    hbm,
	}
}

func setupServeTune(seed int64) (instance, error) {
	w := &serveTune{
		cfg: model.GPT3(), chip: hw.TPUv4(),
		slo: serve.SLO{TTFT: 1.0, PerToken: 0.05},
		traces: []serveTrace{
			// lo: requests trickle in, batches stay small — ~10 k cheap
			// decode steps per candidate.
			{name: "lo", spec: serve.WorkloadSpec{Seed: 1, Rate: 5, Requests: serveRequests}, hbm: 64 << 30},
			// hi_kv: ten times the rate into a tenth of the memory — the
			// KV budget binds, so admission stalls and preemption run.
			{name: "hi_kv", spec: serve.WorkloadSpec{Seed: 2, Rate: 50, Requests: serveRequests}, hbm: 5.8 * (1 << 30)},
		},
	}
	// The seed decides which request of trace lo carries which lengths:
	// arrival instants and the multiset of lengths are fixed, so every seed
	// serves the same number of tokens while admissions and batch make-up
	// differ (drawing a whole trace per seed moved a round's work by
	// ±10 %). Trace hi_kv is the same for every seed: which request gets
	// evicted is chaotic in the input - swapping the lengths of two
	// neighbouring requests moves preemptions by ±13 % and allocated
	// bytes by ±25 % - so a seeded hi_kv would bury a change to serve
	// under the spread between seeds.
	for i := range w.traces {
		w.traces[i].reqs = w.traces[i].spec.Generate()
	}
	lo := w.traces[0].reqs
	rand.New(rand.NewSource(seed)).Shuffle(len(lo), func(a, b int) {
		lo[a].PromptTokens, lo[b].PromptTokens = lo[b].PromptTokens, lo[a].PromptTokens
		lo[a].OutputTokens, lo[b].OutputTokens = lo[b].OutputTokens, lo[a].OutputTokens
	})
	hi := w.traces[1]
	rep, err := serve.Run(serve.Config{
		Model: w.cfg, Chip: w.chip, Mesh: topology.NewTorus(8, 8),
		Policy: serve.Policy{MaxBatch: 64}, SLO: w.slo, HBMBytes: hi.hbm,
	}, hi.reqs)
	if err != nil {
		return nil, err
	}
	if rep.Preemptions == 0 {
		return nil, errorf("serve_tune: trace hi_kv causes no preemption on 8x8 with seed %d; the workload would not exercise eviction", seed)
	}
	w.got = make([]autotune.ServingChoice, len(w.traces))
	w.errs = make([]error, len(w.traces))
	w.round()
	for i, c := range w.got {
		if w.errs[i] != nil {
			return nil, w.errs[i]
		}
		r := serveRef{shape: c.Shape, policy: c.Policy, goodput: c.Report.Goodput}
		r.reportHash, r.reportLen = reportDigest(c.Report)
		w.ref = append(w.ref, r)
	}
	return w, nil
}

func reportDigest(r *serve.Report) (uint64, int) {
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		return 0, 0
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	return h.Sum64(), buf.Len()
}

func (w *serveTune) round() {
	for i, t := range w.traces {
		w.got[i], w.errs[i] = autotune.TuneServing(w.cfg, serveChips, w.chip, w.slo, t.reqs, servingGrid(t.hbm))
	}
}

func (w *serveTune) check() (int, int) {
	failed := 0
	for i, c := range w.got {
		if w.errs[i] != nil || c.Report == nil || c.Report.Completed+c.Report.Rejected != c.Report.Requests {
			failed++
			continue
		}
		if hash, n := reportDigest(c.Report); hash != w.ref[i].reportHash || n != w.ref[i].reportLen {
			failed++
		}
	}
	return len(w.traces), failed
}

// sweep is TuneServing taken apart: one serve.Run per grid point, serially,
// then the same strict-greater, first-index-wins fold.
func (w *serveTune) sweep(tr *tracer, t serveTrace, visit func(*serve.Report)) autotune.ServingChoice {
	grid := servingGrid(t.hbm)
	var best autotune.ServingChoice
	for _, shape := range grid.Shapes {
		for _, mb := range grid.MaxBatches {
			for _, chunk := range grid.ChunkTokens {
				for _, s := range grid.SliceCounts {
					policy := serve.Policy{MaxBatch: mb, ChunkTokens: chunk, SliceCount: s}
					var rep *serve.Report
					var err error
					tr.do("serve", "serve.Run", func() {
						rep, err = serve.Run(serve.Config{
							Model: w.cfg, Chip: w.chip, Mesh: shape, Policy: policy, SLO: w.slo,
							HBMBytes: t.hbm, ClusterChips: serveChips,
						}, t.reqs)
					})
					if err != nil {
						continue
					}
					if visit != nil {
						visit(rep)
					}
					if rep.Feasible && (best.Report == nil || rep.Goodput > best.Report.Goodput) {
						best = autotune.ServingChoice{Shape: shape, Policy: policy, Report: rep}
					}
				}
			}
		}
	}
	return best
}

func (w *serveTune) traced(tr *tracer) error {
	for i, t := range w.traces {
		tr.nextOp()
		tr.do("autotune", "sweep:"+t.name, func() { w.got[i] = w.sweep(tr, t, nil) })
		w.errs[i] = nil
		c, ref := w.got[i], w.ref[i]
		if c.Report == nil || c.Shape != ref.shape || c.Policy != ref.policy || !bitsEqual(c.Report.Goodput, ref.goodput) {
			return errorf("serve_tune: serial fold over trace %s picks %v %+v, TuneServing picked %v %+v",
				t.name, c.Shape, c.Policy, ref.shape, ref.policy)
		}
	}
	return nil
}

func (w *serveTune) probes(tr *tracer, out metricSet) error {
	var runs, steps, preemptions, goodput float64
	objects, _ := mallocsDuring(func() {
		for _, t := range w.traces {
			best := w.sweep(nil, t, func(r *serve.Report) {
				runs++
				steps += float64(r.Steps)
				preemptions += float64(r.Preemptions)
			})
			goodput += best.Report.Goodput
		}
	})
	runMs := tr.ms("serve.Run")
	sweepMs := tr.ms("sweep:lo", "sweep:hi_kv")
	out["serve.run_ms"] = runMs
	out["serve.runs"] = runs
	out["serve.steps"] = steps
	out["serve.ns_per_step"] = runMs * 1e6 / steps
	out["serve.allocs_per_run"] = objects / runs
	out["serve.preemptions"] = preemptions
	out["serve.best_goodput_rps"] = goodput
	out["serve.generate_ms"] = timeIt(5, func() {
		for _, t := range w.traces {
			t.spec.Generate()
		}
	})
	out["serve.report_json_ms"] = timeIt(5, func() {
		for _, c := range w.got {
			reportDigest(c.Report)
		}
	})
	out["autotune.serving_ms"] = tr.blackMs
	out["autotune.serving_parallel_gain"] = sweepMs / tr.blackMs
	out["autotune.candidates"] = runs
	return nil
}

func (w *serveTune) close() {}
