package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"meshslice/internal/autotune"
	"meshslice/internal/fault"
	"meshslice/internal/hw"
	"meshslice/internal/netsim"
	"meshslice/internal/sched"
	"meshslice/internal/topology"
)

// cmdFaults quantifies fault resilience: it builds a deterministic fault
// plan, simulates the stale healthy-fabric tuning choice under it, reruns
// the autotuner fault-aware (autotune.TuneUnderFaults), and reports both
// simulated FC block times side by side.
func cmdFaults(args []string) {
	fs := flag.NewFlagSet("faults", flag.ExitOnError)
	modelName := fs.String("model", "gpt3", "LLM: gpt3 or megatron")
	chips := fs.Int("chips", 64, "cluster size")
	tokens := fs.Int("tokens", 0, "tokens per step (default: weak-scaling batch = chips/2)")
	scenario := fs.String("scenario", "col-degrade", "fault scenario: col-degrade, stragglers, or seeded")
	seed := fs.Int64("seed", 7, "scenario seed (seeded scenario only)")
	factor := fs.Float64("factor", 6, "degrade/slowdown factor")
	reroute := fs.Bool("reroute", false, "re-route rings around single dead links instead of halting")
	out := fs.String("o", "", "also write the comparison as JSON to this path")
	chrome := fs.String("chrome", "", "also write a faulty-cluster Chrome trace (stale plan, first pass) to this path")
	fs.Parse(args)

	cfg := modelByName(*modelName)
	tk := *tokens
	if tk == 0 {
		tk = cfg.WeakScalingTokens(*chips)
	}
	plan, err := faultScenario(*scenario, *chips, *seed, *factor)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	chip := hw.TPUv4()
	opts := autotune.Options{OptimizeDataflow: true}

	stale, err := autotune.Tune(cfg, tk, *chips, chip, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	staleTime, staleFailed := autotune.SimulateChoice(stale, chip, plan, *reroute)
	aware, err := autotune.TuneUnderFaults(cfg, tk, *chips, chip, plan, *reroute, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("model: %s   chips: %d   tokens: %d   scenario: %s\n", cfg.Name, *chips, tk, *scenario)
	fmt.Println("fault plan:")
	for _, line := range strings.Split(strings.TrimRight(plan.Canonical(), "\n"), "\n") {
		fmt.Printf("  %s\n", line)
	}
	fmt.Printf("\n%-22s  %-10s  %s\n", "plan", "shape", "simulated FC block time")
	fmt.Printf("%-22s  %-10v  %s\n", "stale (healthy-tuned)", stale.Shape, simTimeString(staleTime, staleFailed))
	fmt.Printf("%-22s  %-10v  %s\n", "fault-aware retuned", aware.Shape, simTimeString(aware.SimTime, aware.Failed))
	if staleFailed == nil && aware.Failed == nil {
		fmt.Printf("\nretuning gain: %+.1f%%\n", 100*(staleTime/aware.SimTime-1))
	}

	if *out != "" {
		if err := writeFaultsJSON(*out, cfg.Name, *scenario, *chips, tk, *reroute, plan,
			stale.Shape, staleTime, staleFailed, aware.Shape, aware.SimTime, aware.Failed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("(json report: %s)\n", *out)
	}
	if *chrome != "" {
		if err := writeFaultsChrome(*chrome, stale, chip, plan, *reroute); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("(chrome trace: %s)\n", *chrome)
	}
}

// faultScenario builds the named deterministic fault plan.
func faultScenario(name string, chips int, seed int64, factor float64) (*fault.Plan, error) {
	if math.IsNaN(factor) || math.IsInf(factor, 0) || factor < 1 {
		return nil, fmt.Errorf("bad -factor %g: want a finite factor >= 1 (a smaller factor would speed the fabric up)", factor)
	}
	switch name {
	case "col-degrade":
		p := &fault.Plan{}
		for c := 0; c < chips; c++ {
			p.Degrades = append(p.Degrades, fault.LinkDegrade{
				Link: fault.Link{Chip: c, Dir: topology.InterCol}, Factor: factor,
			})
		}
		return p, nil
	case "stragglers":
		return &fault.Plan{Stragglers: []fault.Straggler{
			{Chip: 0, Slowdown: factor},
			{Chip: 1, Slowdown: factor},
		}}, nil
	case "seeded":
		return fault.Generate(seed, chips, fault.ScenarioOptions{
			Degrades: 3, Stragglers: 2, MaxFactor: factor, Horizon: 0.01,
		}), nil
	case "chip-fail":
		// Fail the top-numbered chips down to the largest square strictly
		// smaller than the cluster: no full-size mesh survives, but a square
		// mesh of the survivors does — the scenario that makes fault-aware
		// serving retunes strictly improve goodput.
		side := 1
		for (side+1)*(side+1) < chips {
			side++
		}
		p := &fault.Plan{}
		for c := side * side; c < chips; c++ {
			p.ChipFails = append(p.ChipFails, fault.ChipFail{Chip: c, At: 0})
		}
		return p, nil
	}
	return nil, fmt.Errorf("unknown scenario %q (want col-degrade, stragglers, seeded, or chip-fail)", name)
}

func simTimeString(t float64, failed *netsim.Failure) string {
	if failed != nil {
		return "halted: " + failed.Error()
	}
	return fmt.Sprintf("%.3fms", t*1e3)
}

// faultsReport is the deterministic JSON shape of the comparison: two runs
// with identical flags produce byte-identical files.
type faultsReport struct {
	Model    string
	Scenario string
	Chips    int
	Tokens   int
	Reroute  bool
	Plan     []string
	Stale    faultsPlanReport
	Aware    faultsPlanReport
	GainPct  *float64 `json:",omitempty"`
}

type faultsPlanReport struct {
	Shape   string
	SimTime float64 `json:",omitempty"`
	Failed  string  `json:",omitempty"`
}

func writeFaultsJSON(path, modelName, scenario string, chips, tokens int, reroute bool, plan *fault.Plan,
	staleShape topology.Torus, staleTime float64, staleFailed *netsim.Failure,
	awareShape topology.Torus, awareTime float64, awareFailed *netsim.Failure) error {
	rep := faultsReport{
		Model:    modelName,
		Scenario: scenario,
		Chips:    chips,
		Tokens:   tokens,
		Reroute:  reroute,
		Plan:     strings.Split(strings.TrimRight(plan.Canonical(), "\n"), "\n"),
		Stale:    faultsPlanReport{Shape: staleShape.String()},
		Aware:    faultsPlanReport{Shape: awareShape.String()},
	}
	if staleFailed != nil {
		rep.Stale.Failed = staleFailed.Error()
	} else {
		rep.Stale.SimTime = staleTime
	}
	if awareFailed != nil {
		rep.Aware.Failed = awareFailed.Error()
	} else {
		rep.Aware.SimTime = awareTime
	}
	if staleFailed == nil && awareFailed == nil {
		gain := 100 * (staleTime/awareTime - 1)
		rep.GainPct = &gain
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// writeFaultsChrome simulates the stale choice's first pass under the fault
// plan with all-chip tracing and writes a Perfetto-loadable trace that
// includes the fault intervals as their own process.
func writeFaultsChrome(path string, stale autotune.Choice, chip hw.Chip, plan *fault.Plan, reroute bool) error {
	if len(stale.Layers) == 0 {
		return fmt.Errorf("faults: stale choice has no layers to trace")
	}
	pass := stale.Layers[0].Passes[0]
	prog := sched.MeshSliceProgram(pass.Problem, stale.Shape, chip, pass.S)
	r := netsim.Simulate(prog, chip, netsim.Options{
		Faults:        plan,
		FaultReroute:  reroute,
		CollectTrace:  true,
		TraceAllChips: true,
	})
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	label := fmt.Sprintf("%s under faults", prog.Label)
	return netsim.WriteFaultyClusterChromeTrace(f, r.Traces, r.FaultSpans, label)
}
