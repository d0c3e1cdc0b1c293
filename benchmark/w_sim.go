package main

import (
	"math"
	"math/rand"

	"meshslice/internal/autotune"
	"meshslice/internal/des"
	"meshslice/internal/fault"
	"meshslice/internal/gemm"
	"meshslice/internal/hw"
	"meshslice/internal/model"
	"meshslice/internal/netsim"
	"meshslice/internal/obs"
	"meshslice/internal/sched"
	"meshslice/internal/topology"
	"meshslice/internal/train"
)

// simOp is one simulated GeMM: a problem, a mesh and an algorithm.
type simOp struct {
	prob  gemm.Problem
	shape topology.Torus
	algo  train.Algo
}

// gpt3Passes returns GPT-3's twelve training GeMMs (four FC layers × three
// passes) at the weak-scaling token count of the cluster size, after the
// autotuner's dataflow phase.
func gpt3Passes(chips int) []gemm.Problem {
	cfg := model.GPT3()
	var out []gemm.Problem
	for _, plan := range autotune.PlanModel(cfg, cfg.WeakScalingTokens(chips), true) {
		out = append(out, plan.Passes[:]...)
	}
	return out
}

// resolveProgram rebuilds, from exported calls only, the schedule
// train.EvaluateGeMMOnShape builds internally: the slice count (or the
// baselines' matching unroll) from autotune.TunePass, then the algorithm's
// sched builder, returned unevaluated so callers can time or count the
// build alone. The traced run checks the composition against the black-box
// makespan bit for bit, so drift from package train fails loudly.
func resolveProgram(tr *tracer, op simOp, chip hw.Chip) func() *sched.Program {
	tuned := func() int {
		var pc autotune.PassChoice
		var ok bool
		tr.do("autotune", "autotune.TunePass", func() { pc, ok = autotune.TunePass(op.prob, op.shape, chip, 0) })
		if !ok {
			return 0
		}
		return pc.S
	}
	switch op.algo {
	case train.MeshSliceAlgo:
		s := tuned()
		if (gemm.MeshSliceConfig{S: s, Block: chip.SliceBlock}).Validate(op.prob, op.shape) != nil {
			s = 1
		}
		return func() *sched.Program { return sched.MeshSliceProgram(op.prob, op.shape, chip, s) }
	case train.WangAlgo:
		unroll := tuned()
		return func() *sched.Program { return sched.WangProgram(op.prob, op.shape, chip, unroll) }
	case train.SUMMAAlgo:
		lcm := op.shape.Rows / gcd(op.shape.Rows, op.shape.Cols) * op.shape.Cols
		iters := max((tuned()+lcm-1)/lcm, 1) * lcm
		return func() *sched.Program { return sched.SUMMAProgram(op.prob, op.shape, chip, iters) }
	case train.CannonAlgo:
		os := gemm.Problem{M: op.prob.M, N: op.prob.N, K: op.prob.K, Dataflow: gemm.OS}
		return func() *sched.Program { return sched.CannonProgram(os, op.shape, chip) }
	default:
		return func() *sched.Program { return sched.CollectiveProgram(op.prob, op.shape, chip) }
	}
}

func composeProgram(tr *tracer, op simOp, chip hw.Chip) *sched.Program {
	build := resolveProgram(tr, op, chip)
	var prog *sched.Program
	tr.do("sched", "sched.Program", func() { prog = build() })
	return prog
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func sumCounter(s obs.Snapshot, name string) float64 {
	var v float64
	for _, c := range s.Counters {
		if c.Name == name {
			v += c.Value
		}
	}
	return v
}

func maxGauge(s obs.Snapshot, name string) float64 {
	var v float64
	for _, g := range s.Gauges {
		if g.Name == name {
			v = math.Max(v, g.Value)
		}
	}
	return v
}

// desReplay schedules and runs `events` no-op events on a bare kernel,
// holding the queue near `depth` pending events the way a simulation does:
// the price of dispatch alone, with no netsim model attached.
func desReplay(events, depth int) {
	sim := des.New()
	remaining := events
	var tick func()
	tick = func() {
		if remaining > 0 {
			remaining--
			sim.After(1e-6*float64(1+remaining%7), tick)
		}
	}
	for i := 0; i < depth && remaining > 0; i++ {
		remaining--
		sim.After(1e-6*float64(1+i%5), tick)
	}
	sim.Run()
}

// desProbe stores the des dispatch metrics for a round that processed
// `events` kernel events with the given queue high-water mark.
func desProbe(events, highWater float64, out metricSet) {
	n := int(events)
	out["des.events"] = events
	out["des.queue_high_water"] = highWater
	out["des.dispatch_ns_per_event"] = timeIt(5, func() { desReplay(n, int(highWater)) }) * 1e6 / events
	objects, _ := mallocsDuring(func() { desReplay(n, int(highWater)) })
	out["des.dispatch_allocs_per_event"] = objects / events
}

// ---- sim_sweep ----

type simSweep struct {
	chip hw.Chip
	ops  []simOp
	ref  []float64 // makespans of the first warm-up round
	got  []float64
	ok   []bool
}

func setupSimSweep(seed int64) (instance, error) {
	w := &simSweep{chip: hw.TPUv4()}
	for _, prob := range gpt3Passes(64) {
		for _, algo := range train.TwoDAlgos {
			w.ops = append(w.ops, simOp{prob, topology.NewTorus(8, 8), algo})
		}
	}
	for i, prob := range gpt3Passes(256) {
		if i%3 == int(model.Forward) {
			w.ops = append(w.ops, simOp{prob, topology.NewTorus(32, 8), train.MeshSliceAlgo})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(w.ops), func(i, j int) { w.ops[i], w.ops[j] = w.ops[j], w.ops[i] })
	w.got = make([]float64, len(w.ops))
	w.ok = make([]bool, len(w.ops))
	w.round()
	w.ref = append([]float64(nil), w.got...)
	for i, ok := range w.ok {
		if !ok {
			return nil, errorf("sim_sweep: op %d (%v on %v) does not shard", i, w.ops[i].algo, w.ops[i].shape)
		}
	}
	return w, nil
}

func (w *simSweep) round() {
	for i, op := range w.ops {
		r, ok := train.EvaluateGeMMOnShape(op.prob, op.shape, op.shape.Size(), w.chip, op.algo, train.Options{})
		w.got[i], w.ok[i] = r.Time, ok
	}
}

func (w *simSweep) check() (int, int) {
	failed := 0
	for i, v := range w.got {
		if !w.ok[i] || !finitePositive(v) || !bitsEqual(v, w.ref[i]) {
			failed++
		}
	}
	return len(w.ops), failed
}

func (w *simSweep) traced(tr *tracer) error {
	for i, op := range w.ops {
		tr.nextOp()
		prog := composeProgram(tr, op, w.chip)
		var res netsim.Result
		tr.do("netsim", "netsim.Simulate", func() { res = netsim.Simulate(prog, w.chip, netsim.Options{}) })
		w.got[i], w.ok[i] = res.Makespan, true
		if !bitsEqual(res.Makespan, w.ref[i]) {
			return errorf("sim_sweep: composed makespan %v of op %d (%v) differs from train.EvaluateGeMMOnShape's %v",
				res.Makespan, i, op.algo, w.ref[i])
		}
	}
	return nil
}

func (w *simSweep) probes(tr *tracer, out metricSet) error {
	builders := make([]func() *sched.Program, len(w.ops))
	for i, op := range w.ops {
		builders[i] = resolveProgram(nil, op, w.chip)
	}
	progs := make([]*sched.Program, len(w.ops))
	objects, _ := mallocsDuring(func() {
		for i, build := range builders {
			progs[i] = build()
		}
	})
	var opsBuilt int
	for _, p := range progs {
		opsBuilt += len(p.Ops)
	}
	out["sched.build_ms"] = tr.ms("sched.Program")
	out["sched.ops_built"] = float64(opsBuilt)
	out["sched.build_allocs"] = objects

	var simEvents int
	var makespans, desEvents, highWater float64
	simObjects, _ := mallocsDuring(func() {
		for _, p := range progs {
			netsim.Simulate(p, w.chip, netsim.Options{})
		}
	})
	for _, p := range progs {
		reg := obs.NewRegistry()
		res := netsim.Simulate(p, w.chip, netsim.Options{Metrics: reg})
		snap := reg.Snapshot()
		simEvents += res.Events
		makespans += res.Makespan
		desEvents += sumCounter(snap, "des_events_processed")
		highWater = math.Max(highWater, maxGauge(snap, "des_queue_high_water"))
	}
	simMs := tr.ms("netsim.Simulate")
	out["netsim.simulate_ms"] = simMs
	out["netsim.ns_per_event"] = simMs * 1e6 / desEvents
	out["netsim.allocs_per_sim"] = simObjects / float64(len(progs))
	out["netsim.sim_events"] = float64(simEvents)
	out["netsim.makespan_sum_s"] = makespans
	desProbe(desEvents, highWater, out)

	tuneMs := tr.ms("autotune.TunePass")
	out["autotune.tunepass_calls"] = tr.calls("autotune.TunePass")
	out["autotune.tunepass_us"] = tuneMs * 1e3 / tr.calls("autotune.TunePass")
	out["train.evaluate_ms"] = tr.blackMs
	out["train.glue_pct"] = 100 * (tr.blackMs - simMs - tuneMs - tr.ms("sched.Program")) / tr.blackMs
	return nil
}

func (w *simSweep) close() {}

// ---- sim_observed ----

// countWriter discards what it is given and counts it.
type countWriter struct{ n int }

func (c *countWriter) Write(p []byte) (int, error) { c.n += len(p); return len(p), nil }

// simObserved drives the same simulator the instrumented way: whole-cluster
// traces, critical path, a metrics registry and their writers, then the
// step-level model under a column-link degrade.
type simObserved struct {
	chip   hw.Chip
	progs  []*sched.Program
	faults *fault.Plan
	ref    []observed
	got    []observed
}

// observed is what one program's four ops produce.
type observed struct {
	makespan, critTotal   float64
	traceBytes, snapBytes int
	stepMakespan          float64
	stepEvents            int
	err                   error
}

func setupSimObserved(seed int64) (instance, error) {
	w := &simObserved{chip: hw.TPUv4(), faults: &fault.Plan{}}
	shape := topology.NewTorus(8, 8)
	for i, prob := range gpt3Passes(64) {
		if i%2 == 0 {
			w.progs = append(w.progs, composeProgram(nil, simOp{prob, shape, train.MeshSliceAlgo}, w.chip))
		}
	}
	for c := 0; c < shape.Size(); c++ {
		w.faults.Degrades = append(w.faults.Degrades, fault.LinkDegrade{
			Link: fault.Link{Chip: c, Dir: topology.InterCol}, Factor: 6,
		})
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(w.progs), func(i, j int) { w.progs[i], w.progs[j] = w.progs[j], w.progs[i] })
	w.got = make([]observed, len(w.progs))
	w.run(nil)
	w.ref = append([]observed(nil), w.got...)
	return w, nil
}

// run is both the black-box and the traced round: the ops already are
// single exported calls, so tracing only adds the spans.
func (w *simObserved) run(tr *tracer) {
	for i, p := range w.progs {
		var o observed
		var res netsim.Result
		reg := obs.NewRegistry()
		tr.nextOp()
		tr.do("netsim", "netsim.Simulate(observed)", func() {
			res = netsim.Simulate(p, w.chip, netsim.Options{CriticalPath: true, TraceAllChips: true, Metrics: reg})
		})
		o.makespan, o.critTotal = res.Makespan, res.CritPath.Attribution.Total()
		var trace, snap countWriter
		tr.nextOp()
		tr.do("netsim", "netsim.WriteClusterChromeTrace", func() {
			o.err = netsim.WriteClusterChromeTrace(&trace, res.Traces, p.Label)
		})
		tr.nextOp()
		tr.do("obs", "obs.Registry.WriteJSON", func() {
			if err := reg.WriteJSON(&snap); err != nil {
				o.err = err
			}
		})
		o.traceBytes, o.snapBytes = trace.n, snap.n
		tr.nextOp()
		tr.do("netsim", "netsim.Simulate(steplevel)", func() {
			res = netsim.Simulate(p, w.chip, netsim.Options{StepLevel: true, Faults: w.faults})
		})
		o.stepMakespan, o.stepEvents = res.Makespan, res.Events
		w.got[i] = o
	}
}

func (w *simObserved) round() { w.run(nil) }

func (w *simObserved) traced(tr *tracer) error { w.run(tr); return nil }

func (w *simObserved) check() (int, int) {
	failed := 0
	for i, o := range w.got {
		ref := w.ref[i]
		if !finitePositive(o.makespan) || !bitsEqual(o.makespan, ref.makespan) ||
			math.Abs(o.critTotal-o.makespan) > 1e-9 {
			failed++
		}
		if o.err != nil || o.traceBytes == 0 || o.traceBytes != ref.traceBytes {
			failed++
		}
		if o.err != nil || o.snapBytes == 0 || o.snapBytes != ref.snapBytes {
			failed++
		}
		if !finitePositive(o.stepMakespan) || !bitsEqual(o.stepMakespan, ref.stepMakespan) {
			failed++
		}
	}
	return 4 * len(w.progs), failed
}

func (w *simObserved) probes(tr *tracer, out metricSet) error {
	var traceBytes, snapBytes, stepEvents int
	var residual, desEvents, highWater float64
	for i, p := range w.progs {
		o := w.ref[i]
		traceBytes += o.traceBytes
		snapBytes += o.snapBytes
		stepEvents += o.stepEvents
		residual = math.Max(residual, math.Abs(o.critTotal-o.makespan)/o.makespan)
		for _, opts := range []netsim.Options{{CriticalPath: true, TraceAllChips: true}, {StepLevel: true, Faults: w.faults}} {
			opts.Metrics = obs.NewRegistry()
			netsim.Simulate(p, w.chip, opts)
			snap := opts.Metrics.Snapshot()
			desEvents += sumCounter(snap, "des_events_processed")
			highWater = math.Max(highWater, maxGauge(snap, "des_queue_high_water"))
		}
	}
	plainMs := timeIt(5, func() {
		for _, p := range w.progs {
			netsim.Simulate(p, w.chip, netsim.Options{})
		}
	})
	observedMs := tr.ms("netsim.Simulate(observed)")
	out["netsim.simulate_ms"] = plainMs
	out["netsim.observed_ms"] = observedMs
	out["netsim.observe_overhead_x"] = observedMs / plainMs
	out["netsim.trace_export_ms"] = tr.ms("netsim.WriteClusterChromeTrace")
	out["netsim.trace_export_mb"] = float64(traceBytes) / 1e6
	out["netsim.steplevel_ms"] = tr.ms("netsim.Simulate(steplevel)")
	out["netsim.steplevel_events"] = float64(stepEvents)
	out["netsim.critpath_residual"] = residual
	out["obs.snapshot_ms"] = tr.ms("obs.Registry.WriteJSON")
	out["obs.snapshot_kb"] = float64(snapBytes) / 1e3
	desProbe(desEvents, highWater, out)
	return nil
}

func (w *simObserved) close() {}
