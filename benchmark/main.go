// Command benchmark is the repo's one performance harness: seven workloads,
// the same end-to-end metrics for each, and a traced run that attributes a
// round to the layers underneath it. It measures every layer from outside,
// by timing calls into the packages' exported functions. BENCHMARK.json at
// the repo root names what it emits; README.md beside this file explains
// each workload, metric and the expected interactions.
//
//	go run ./benchmark -workload all -seed 1            # end-to-end metrics
//	go run ./benchmark -workload gemm_fine -trace DIR   # per-layer metrics + DIR/gemm_fine.trace.json
//	go run ./benchmark -sets 2                          # repeatability report + baseline
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	rounds   int
	trace    string // "0" untraced, "1" traced, anything else: traced + span files in that directory
	sets     int
	// setups overrides setupReps; only bench_test.go sets it, so every run
	// of the harness takes setup_s from the same number of set-ups.
	setups int
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricLine is one metric by name, printed as it becomes known.
type metricLine struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	Samples  int     `json:"samples"`
}

func main() {
	var o options
	var schema bool
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "how long the timed rounds run")
	flag.IntVar(&o.rounds, "rounds", 0, "run exactly this many timed rounds instead of -seconds")
	flag.StringVar(&o.trace, "trace", "0", "0: end-to-end metrics; 1: traced run, per-layer metrics; DIR: traced run that also writes DIR/<workload>.trace.json")
	flag.IntVar(&o.sets, "sets", 0, "run every workload this many times, untraced and traced, and report how well the sets agree")
	flag.BoolVar(&schema, "schema", false, "print BENCHMARK.json and exit")
	flag.Parse()

	if schema {
		data, err := schemaJSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(data)
		return
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	var res result
	var err error
	switch {
	case o.sets > 0:
		res, err = runSets(o)
	case o.workload == "all":
		res, err = runAll(o)
	default:
		w, ok := workloadByName(o.workload)
		if !ok {
			fatal(errorf("unknown workload %q", o.workload))
		}
		res, err = runWorkload(w, o)
	}
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// stdout is where metric lines go; the schema test silences it.
var stdout io.Writer = os.Stdout

func printMetric(l metricLine) {
	line, err := json.Marshal(l)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(stdout, string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}

// setUp builds the workload reps times - generated inputs, reference
// results, warm-up rounds - and returns the last instance with every
// set-up's duration in seconds at reference speed: like a round, a set-up
// is divided by the calibration spin, here the mean of one before and one
// after it (raw set-up medians of two back-to-back sets of ten runs
// differed by up to 38 % when the box changed speed in between).
func setUp(w workload, sp *spinner, seed int64, reps int) (instance, []float64, error) {
	var inst instance
	var seconds []float64
	for i := 0; i < max(reps, 1); i++ {
		if inst != nil {
			inst.close()
			inst = nil
			runtime.GC()
		}
		before := sp.spin()
		t0 := time.Now()
		var err error
		if inst, err = w.setup(seed); err != nil {
			return nil, nil, err
		}
		// set-up ran the first warm-up round itself, to take the reference.
		for r := 1; r < warmRounds; r++ {
			inst.round()
		}
		elapsed := time.Since(t0)
		spin := (before + sp.spin()) / 2
		seconds = append(seconds, elapsed.Seconds()/ms(spin)*calRefMs)
	}
	if _, failed := inst.check(); failed > 0 {
		inst.close()
		return nil, nil, errorf("%s: %d ops failed their check during warm-up", w.name, failed)
	}
	return inst, seconds, nil
}

// runWorkload measures one workload in this process.
func runWorkload(w workload, o options) (result, error) {
	sp, err := newSpinner(runtime.GOMAXPROCS(0))
	if err != nil {
		return result{}, err
	}
	defer sp.close()
	traced := o.trace != "0"
	reps := setupReps
	if traced {
		reps = 1 // setup_s belongs to the untraced run
	}
	if o.setups > 0 {
		reps = o.setups
	}
	inst, setups, err := setUp(w, sp, o.seed, reps)
	if err != nil {
		return result{}, err
	}
	defer inst.close()

	res := result{Metrics: map[string]metricValue{}}
	// emit reports every metric of defs. A name the workload did not store
	// belongs to a layer it never enters and reads 0; a stored value that is
	// not a finite number means a probe divided by nothing (a counter that
	// was renamed, no matching span) and is a harness error, since 0 would
	// read as the best possible value of a lower-is-better metric.
	emit := func(defs []metricDef, values metricSet, samples int) error {
		for _, d := range defs {
			v := values[d.Name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return errorf("%s: %s is %v", w.name, d.Name, v)
			}
			res.Metrics[d.Name] = metricValue{v, d.Unit}
			printMetric(metricLine{w.name, d.Name, v, d.Unit, samples})
		}
		return nil
	}
	opsPerRound := 0
	tally := func() {
		a, f := inst.check()
		opsPerRound = a
		res.Attempted += a
		res.Failed += f
	}

	budget := roundBudget{rounds: o.rounds, seconds: o.seconds, start: time.Now()}
	var samples []sample
	if !traced {
		for r := 0; !budget.done(r); r++ {
			samples = append(samples, timedRound(sp, inst.round))
			tally()
		}
		if err := emit(endToEndDefs, endToEnd(samples, setups), len(samples)); err != nil {
			return result{}, err
		}
		// The raw view of the same rounds, for telling harness noise from
		// change; not part of the result line.
		diag := metricSet{}
		benchDiagnostics(samples, opsPerRound, diag)
		for _, name := range []string{"bench.round_p50_ms", "bench.cal_spin_ms"} {
			printMetric(metricLine{w.name, name, diag[name], "ms", len(samples)})
		}
		printMetric(metricLine{w.name, "ops_attempted", float64(res.Attempted), "count", len(samples)})
		printMetric(metricLine{w.name, "ops_failed", float64(res.Failed), "count", len(samples)})
		res.Correct = res.Failed == 0
		return res, nil
	}

	// Traced run: black-box and composed rounds alternate, so drift hits
	// both alike and their difference is the tracing overhead. The probes
	// get the last fifth of the time budget.
	budget.seconds *= 0.8
	tr := newTracer()
	var tracedSamples []sample
	var tracedErr error
	for r := 0; !budget.done(r); r++ {
		samples = append(samples, timedRound(sp, inst.round))
		tally()
		tr.nextRound()
		tracedSamples = append(tracedSamples, timedRound(sp, func() {
			if err := inst.traced(tr); err != nil && tracedErr == nil {
				tracedErr = err
			}
		}))
		tr.endRounds()
		if tracedErr != nil {
			return result{}, tracedErr
		}
		tally()
	}
	out := metricSet{}
	benchDiagnostics(samples, opsPerRound, out)
	tr.blackMs = out["bench.round_p50_ms"]
	black, composed := median(calibrated(samples, wallOf)), median(calibrated(tracedSamples, wallOf))
	out["bench.trace_overhead_pct"] = 100 * (composed - black) / black
	if err := inst.probes(tr, out); err != nil {
		return result{}, err
	}
	for name := range out {
		if !isPerLayer(name) {
			return result{}, errorf("%s: probes stored %q, which BENCHMARK.json does not list", w.name, name)
		}
	}
	if o.trace != "1" {
		if err := tr.write(o.trace, w.name, o.seed); err != nil {
			return result{}, err
		}
	}
	if err := emit(perLayerDefs, out, len(tracedSamples)); err != nil {
		return result{}, err
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// runChild re-executes this binary for one workload, so peak RSS, GC state
// and warm pools are per workload, echoes its metric lines and returns its
// result line.
func runChild(name string, o options, trace string, echo io.Writer) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(self,
		"-workload", name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		"-rounds", fmt.Sprint(o.rounds), "-trace", trace)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return result{}, err
	}
	if err := cmd.Start(); err != nil {
		return result{}, err
	}
	var last string
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if last != "" {
			fmt.Fprintln(echo, last)
		}
		last = sc.Text()
	}
	waitErr := cmd.Wait()
	// Exit 1 is a finished run with failed checks; anything else that is not
	// 0 (a harness error, a panic, a kill) left no result to trust, even if
	// the last thing it printed was a metric line.
	if waitErr != nil && cmd.ProcessState.ExitCode() != 1 {
		return result{}, errorf("%s: child did not finish: %v", name, waitErr)
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil || res.Metrics == nil {
		return result{}, errorf("%s: no result line (last line %q, exit: %v)", name, last, waitErr)
	}
	return res, nil
}

// runAll runs every workload, each in its own process, and merges the
// results under "<workload>.<metric>".
func runAll(o options) (result, error) {
	all := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range workloads {
		res, err := runChild(w.name, o, o.trace, os.Stdout)
		if err != nil {
			return result{}, err
		}
		all.merge(w.name, res)
	}
	return all, nil
}

func (all *result) merge(workload string, res result) {
	all.Correct = all.Correct && res.Correct
	all.Attempted += res.Attempted
	all.Failed += res.Failed
	for name, v := range res.Metrics {
		all.Metrics[workload+"."+name] = v
	}
}
