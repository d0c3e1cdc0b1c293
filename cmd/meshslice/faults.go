package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
	c := newCLI("faults")
	mf := c.model("gpt3", true)
	cl := c.cluster(64, "cluster size")
	scenario := c.String("scenario", "col-degrade", "fault scenario: col-degrade, stragglers, or seeded")
	seed := c.seed(7, "seeded scenario")
	factor := c.factor("factor", 6, 1, "degrade/slowdown factor")
	reroute := c.Bool("reroute", false, "re-route rings around single dead links instead of halting")
	out := c.output("also write the comparison as JSON to this path", "also write a faulty-cluster Chrome trace (stale plan, first pass) to this path")
	c.parse(args)

	tk := mf.tokensFor(cl.chips)
	plan, err := faultScenario(*scenario, cl.chips, *seed, *factor)
	die(2, err)
	chip := hw.TPUv4()
	opts := autotune.Options{OptimizeDataflow: true}
	stale, err := autotune.Tune(mf.Config, tk, cl.chips, chip, opts)
	die(1, err)
	staleTime, staleFailed := autotune.SimulateChoice(stale, chip, plan, *reroute)
	aware, err := autotune.TuneUnderFaults(mf.Config, tk, cl.chips, chip, plan, *reroute, opts)
	die(1, err)

	rep := faultsReport{
		Model: mf.Name, Scenario: *scenario, Chips: cl.chips, Tokens: tk, Reroute: *reroute,
		Plan:  strings.Split(strings.TrimRight(plan.Canonical(), "\n"), "\n"),
		Stale: planReport(stale.Shape, staleTime, staleFailed),
		Aware: planReport(aware.Shape, aware.SimTime, aware.Failed),
	}
	if staleFailed == nil && aware.Failed == nil {
		gain := 100 * (staleTime/aware.SimTime - 1)
		rep.GainPct = &gain
	}
	fmt.Printf("model: %s   chips: %d   tokens: %d   scenario: %s\n", mf.Name, cl.chips, tk, *scenario)
	fmt.Println("fault plan:")
	for _, line := range rep.Plan {
		fmt.Printf("  %s\n", line)
	}
	fmt.Printf("\n%-22s  %-10s  %s\n", "plan", "shape", "simulated FC block time")
	fmt.Printf("%-22s  %-10s  %v\n", "stale (healthy-tuned)", rep.Stale.Shape, rep.Stale)
	fmt.Printf("%-22s  %-10s  %v\n", "fault-aware retuned", rep.Aware.Shape, rep.Aware)
	if rep.GainPct != nil {
		fmt.Printf("\nretuning gain: %+.1f%%\n", *rep.GainPct)
	}

	if out.o != "" {
		writeFile(out.o, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(rep)
		})
		fmt.Printf("(json report: %s)\n", out.o)
	}
	if out.chrome != "" {
		writeFaultsChrome(out.chrome, stale, chip, plan, *reroute)
		fmt.Printf("(chrome trace: %s)\n", out.chrome)
	}
}

// faultScenario builds the named deterministic fault plan.
func faultScenario(name string, chips int, seed int64, factor float64) (*fault.Plan, error) {
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

func planReport(shape topology.Torus, t float64, failed *netsim.Failure) faultsPlanReport {
	if failed != nil {
		return faultsPlanReport{Shape: shape.String(), Failed: failed.Error()}
	}
	return faultsPlanReport{Shape: shape.String(), SimTime: t}
}

// String is the report's simulated FC block time as the table prints it.
func (r faultsPlanReport) String() string {
	if r.Failed != "" {
		return "halted: " + r.Failed
	}
	return fmt.Sprintf("%.3fms", r.SimTime*1e3)
}

// writeFaultsChrome simulates the stale choice's first pass under the fault
// plan with all-chip tracing and writes a Perfetto-loadable trace that
// includes the fault intervals as their own process.
func writeFaultsChrome(path string, stale autotune.Choice, chip hw.Chip, plan *fault.Plan, reroute bool) {
	if len(stale.Layers) == 0 {
		die(1, errors.New("faults: stale choice has no layers to trace"))
	}
	pass := stale.Layers[0].Passes[0]
	prog := sched.MeshSliceProgram(pass.Problem, stale.Shape, chip, pass.S)
	r := netsim.Simulate(prog, chip, netsim.Options{
		Faults:        plan,
		FaultReroute:  reroute,
		TraceAllChips: true,
	})
	label := fmt.Sprintf("%s under faults", prog.Label)
	writeFile(path, func(w io.Writer) error {
		return netsim.WriteFaultyClusterChromeTrace(w, r.Traces, r.FaultSpans, label)
	})
}
