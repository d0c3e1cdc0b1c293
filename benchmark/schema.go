package main

import "encoding/json"

// metricDef is one named metric. Exact marks counts and simulated values
// that repeat bit for bit with a fixed seed, so two commits compare exactly.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// Floor is an absolute slack in the metric's unit: -sets allows
	// max(Bound × parent, Floor), so a small value (a 0.15 s set-up, a 20 MB
	// resident set) is not gated on relative noise alone. BENCHMARK.json has
	// no key for it - the driver's bound is a share only.
	Floor float64
	// Resolve is the share ISSUE 12 wanted two sets of the same code to
	// agree within (10 % on the time metrics). Bound is wider because the
	// driver refuses a benchmark whose ten-seed spread exceeds its bound on
	// any workload, and that spread reaches 13 % here; -sets reports a pair
	// that differs by more than Resolve as UNRESOLVED, not as PASS.
	Resolve float64
	Exact   bool
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEndDefs are what a user of the repo waits for or pays, per round of
// each workload. fail ratio is not among them because the result line
// carries it as correct/attempted/failed.
var endToEndDefs = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25, Floor: 0.25},
	{Name: "round_ms_cal", Unit: "ms", Better: lower, Bound: 0.20, Resolve: 0.10},
	{Name: "cpu_ms_cal", Unit: "ms", Better: lower, Bound: 0.20, Resolve: 0.10},
	{Name: "allocs_per_round", Unit: "count", Better: lower, Bound: 0.02},
	{Name: "alloc_mb_per_round", Unit: "MB", Better: lower, Bound: 0.02},
	{Name: "peak_rss_mb", Unit: "MB", Better: lower, Bound: 0.10, Floor: 4},
}

func timed(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: lower} }
func rate(name, unit string) metricDef  { return metricDef{Name: name, Unit: unit, Better: higher} }
func counted(name, unit string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: lower, Exact: true}
}

// perLayerDefs are the per-layer metrics of the traced run, grouped by the
// package they attribute to (the prefix before the dot). A workload that
// never enters a layer reports 0 for that layer's metrics.
var perLayerDefs = []metricDef{
	timed("netsim.simulate_ms", "ms"),
	timed("netsim.ns_per_event", "ns"),
	timed("netsim.allocs_per_sim", "count"),
	counted("netsim.sim_events", "count"),
	counted("netsim.makespan_sum_s", "s"),
	timed("netsim.observed_ms", "ms"),
	timed("netsim.observe_overhead_x", "x"),
	timed("netsim.trace_export_ms", "ms"),
	counted("netsim.trace_export_mb", "MB"),
	timed("netsim.steplevel_ms", "ms"),
	counted("netsim.steplevel_events", "count"),
	counted("netsim.critpath_residual", "ratio"),

	counted("des.events", "count"),
	counted("des.queue_high_water", "count"),
	timed("des.dispatch_ns_per_event", "ns"),
	timed("des.dispatch_allocs_per_event", "count"),

	timed("sched.build_ms", "ms"),
	counted("sched.ops_built", "count"),
	timed("sched.build_allocs", "count"),

	timed("train.evaluate_ms", "ms"),
	timed("train.glue_pct", "%"),

	timed("costmodel.eval_ns", "ns"),
	timed("costmodel.eval_scalar_ns", "ns"),
	counted("costmodel.evals", "count"),

	timed("autotune.tune_us", "us"),
	timed("autotune.planmodel_us", "us"),
	timed("autotune.tunepass_us", "us"),
	counted("autotune.tunepass_calls", "count"),
	timed("autotune.fold_overhead_pct", "%"),
	counted("autotune.candidates", "count"),
	timed("autotune.serving_ms", "ms"),
	rate("autotune.serving_parallel_gain", "x"),

	timed("cluster.search_ms", "ms"),
	counted("cluster.plans", "count"),

	timed("serve.run_ms", "ms"),
	counted("serve.runs", "count"),
	counted("serve.steps", "count"),
	timed("serve.ns_per_step", "ns"),
	timed("serve.allocs_per_run", "count"),
	counted("serve.preemptions", "count"),
	{Name: "serve.best_goodput_rps", Unit: "1/s", Better: higher, Exact: true},
	timed("serve.generate_ms", "ms"),
	timed("serve.report_json_ms", "ms"),

	timed("tensor.kernel_ms", "ms"),
	rate("tensor.kernel_gflops", "GFLOP/s"),
	counted("tensor.kernel_calls", "count"),
	counted("tensor.flops", "count"),
	timed("tensor.slice_ms", "ms"),
	counted("tensor.slice_mb", "MB"),
	timed("tensor.partition_ms", "ms"),

	timed("collective.ring_ms", "ms"),
	timed("collective.us_per_msg", "us"),
	rate("collective.mb_per_s", "MB/s"),
	timed("collective.allocs_per_op", "count"),

	timed("mesh.new_us", "us"),
	counted("mesh.msgs", "count"),
	counted("mesh.elements", "count"),

	timed("gemm.run_ms", "ms"),
	timed("gemm.serial_ms", "ms"),
	timed("gemm.pipelined_ms", "ms"),
	rate("gemm.pipeline_speedup", "x"),
	{Name: "gemm.overlap_fraction", Unit: "ratio", Better: higher, Exact: true},
	timed("gemm.exposed_ms", "ms"),
	counted("gemm.max_abs_err", "abs"),

	timed("obs.snapshot_ms", "ms"),
	counted("obs.snapshot_kb", "kB"),
	timed("obs.recorder_overhead_pct", "%"),

	timed("ckpt.encode_ms", "ms"),
	timed("ckpt.encode_alloc_mb", "MB"),
	rate("ckpt.encode_mb_per_s", "MB/s"),
	counted("ckpt.snapshot_mb", "MB"),
	timed("ckpt.verify_ms", "ms"),
	timed("ckpt.decode_ms", "ms"),
	timed("ckpt.reshard_ms", "ms"),
	timed("ckpt.reshard_alloc_mb", "MB"),
	timed("ckpt.save_ms", "ms"),
	timed("ckpt.load_ms", "ms"),

	timed("minitrain.train_ms", "ms"),
	timed("minitrain.nosnap_ms", "ms"),
	timed("minitrain.snapshot_stall_ms", "ms"),
	timed("minitrain.serial_ms", "ms"),
	counted("minitrain.final_loss", "loss"),

	timed("bench.round_p50_ms", "ms"),
	timed("bench.round_p75_ms_cal", "ms"),
	timed("bench.cal_spin_ms", "ms"),
	rate("bench.ops_per_s", "1/s"),
	timed("bench.gc_cycles_per_round", "count"),
	timed("bench.gc_pause_ms_per_round", "ms"),
	timed("bench.trace_overhead_pct", "%"),
}

// Each why ends with the workload's measured spread (inter-quartile range ÷
// median of round_ms_cal and cpu_ms_cal over ten runs with ten seeds, range
// over four such sets; baseline.json has every number): ISSUE 12 wants a
// workload that cannot reach 10 % to say so in BENCHMARK.json, and why is the
// only free text the contract's keys leave.
var workloads = []workload{
	{"sim_sweep", "plain netsim.Simulate over 64 GeMM x algorithm x mesh points (the Fig. 9-12 and TrainStep inner loop): netsim+des do ~97% of it, tensor/collective/serve none; time spread 3-9 %", setupSimSweep},
	{"sim_observed", "the same simulator instrumented (all-chip traces, critical path, step-level under faults, trace/snapshot writers): what a sim_sweep fast path must not tax; time spread 4-13 %, over the 10 % wanted", setupSimObserved},
	{"gemm_compute", "the functional GeMM a user calls (meshslice.Multiply, fresh mesh, 512^3, S=4): large-tile tensor kernels dominate, collectives are ~13%; time spread 6-9 %", setupGemmCompute},
	{"gemm_fine", "fine slicing (S=32, 8 KB messages, 16x256x16 kernels) on a persistent mesh: ring latency, mesh hand-off, tiny kernels and what pipelining hides; no large-tile kernel work; time spread 2-7 %", setupGemmFine},
	{"tune_train", "the training autotuner and 3D planner (2000 autotune.Tune + 2 cluster.Search): costmodel+autotune worker pool only, no DES; time spread 1-6 %", setupTuneTrain},
	{"serve_tune", "the tuned serving sweep (autotune.TuneServing over 60 deployments) on an idle-batch and a KV-pressure trace: serve step loop and its pricing, scheduler used two ways; time spread 5-9 %", setupServeTune},
	{"ckpt_elastic", "fail -> save -> load -> reshard -> resume -> verify on a real FileStore: encode/CRC/write beside read/verify/decode/reshard and bandwidth-bound AllGather training; time spread 2-6 %", setupCkptElastic},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// allDefs lists every metric a run can report, end-to-end first.
func allDefs() []metricDef {
	return append(append([]metricDef(nil), endToEndDefs...), perLayerDefs...)
}

func isPerLayer(name string) bool {
	for _, d := range perLayerDefs {
		if d.Name == name {
			return true
		}
	}
	return false
}

// runSeconds is how long one driver run measures.
const runSeconds = 10

// schemaJSON renders BENCHMARK.json from the tables above, so the file and
// the harness cannot drift apart (bench_test.go compares them).
func schemaJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, m := range endToEndDefs {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayerDefs {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	return append(data, '\n'), err
}
