package autotune

import (
	"fmt"
	"math"

	"meshslice/internal/fault"
	"meshslice/internal/hw"
	"meshslice/internal/model"
	"meshslice/internal/netsim"
	"meshslice/internal/sched"
)

// Degradation-aware retuning: a plan tuned for a healthy fabric can be
// badly wrong on a degraded one — a shape whose large rings ride the
// fastest collectives loses hardest when one of those rings crosses a
// slow link. TuneUnderFaults re-runs the search with the fault plan
// applied, scoring candidates by simulation instead of trusting the
// analytical model alone: the analytical search (run on both the healthy
// calibration and the plan's worst-case EffectiveChip view) proposes
// candidate configurations, and the cluster simulator — executing each
// pass under the actual fault plan — picks the argmin. The stale
// healthy-fabric choice is always in the candidate set, so the fault-aware
// result can never simulate slower than it.

// FaultChoice is TuneUnderFaults' result: the winning configuration plus
// its simulated block time under the fault plan.
type FaultChoice struct {
	Choice
	// SimTime is the simulated FC block time under the fault plan
	// (infinite when every candidate halts).
	SimTime float64
	// Failed holds the typed failure of the winning candidate when even
	// the best candidate halts under the plan (nil otherwise).
	Failed *netsim.Failure
}

// SimulateChoice measures a tuned configuration's FC block time by
// simulating every pass of every layer under the fault plan: the sum of
// the per-pass makespans. Each pass is simulated from t=0 under the plan,
// so the measurement reflects steady-state conditions — appropriate for
// the open-ended degradations retuning targets. If any pass halts (dead
// chip or unroutable dead link), the block time is +Inf and the failure
// is returned.
func SimulateChoice(c Choice, chip hw.Chip, plan *fault.Plan, reroute bool) (float64, *netsim.Failure) {
	var total float64
	for _, layer := range c.Layers {
		for _, pass := range layer.Passes {
			prog := sched.MeshSliceProgram(pass.Problem, c.Shape, chip, pass.S)
			r := netsim.Simulate(prog, chip, netsim.Options{
				Faults:       plan,
				FaultReroute: reroute,
			})
			if r.Failed != nil {
				return math.Inf(1), r.Failed
			}
			total += r.Makespan
		}
	}
	return total, nil
}

// TuneUnderFaults runs the degradation-aware search. Candidates are the
// per-shape analytical optima under both hardware views — the healthy
// calibration (which contains the stale healthy-fabric plan) and the
// fault plan's worst-case EffectiveChip — deduplicated, then ranked by
// SimulateChoice under the plan. opts.Metrics additionally receives:
//
//	autotune_fault_candidates counter — deduplicated candidates simulated
//	autotune_fault_sim_calls  counter — netsim runs spent ranking them
func TuneUnderFaults(cfg model.Config, tokens, chips int, chip hw.Chip, plan *fault.Plan, reroute bool, opts Options) (FaultChoice, error) {
	if err := cfg.Validate(); err != nil {
		return FaultChoice{}, err
	}
	if chips <= 0 || tokens <= 0 {
		return FaultChoice{}, fmt.Errorf("autotune: chips=%d tokens=%d", chips, tokens)
	}
	if err := plan.Validate(chips); err != nil {
		return FaultChoice{}, err
	}
	plans := PlanModel(cfg, tokens, opts.OptimizeDataflow)
	shapes, err := candidateShapes(opts.Shapes, chips)
	if err != nil {
		return FaultChoice{}, err
	}
	views := []hw.Chip{chip}
	if eff := plan.EffectiveChip(chip); eff != chip {
		views = append(views, eff)
	}
	// Candidates are scored by the same worker pool as Tune — one unit of
	// work per (shape, view) pair — then deduplicated in index order so
	// the candidate list is identical for any worker count.
	table := newPassTable(plans)
	scores := table.scoreShapes(shapes, views, opts.MaxS, opts.Workers)
	publishSearches(opts.Metrics, scores)
	var cands []Choice
	seen := make(map[string]bool)
	for i, r := range scores {
		if !r.ok {
			continue
		}
		c := table.choice(plans, shapes[i/len(views)], views[i%len(views)], r)
		key := candidateKey(c)
		if seen[key] {
			continue
		}
		seen[key] = true
		cands = append(cands, c)
	}
	if len(cands) == 0 {
		return FaultChoice{}, fmt.Errorf("autotune: no shape can shard %s with %d tokens on %d chips", cfg.Name, tokens, chips)
	}
	var best FaultChoice
	for i, c := range cands {
		t, failed := SimulateChoice(c, chip, plan, reroute)
		if i == 0 || t < best.SimTime {
			best = FaultChoice{Choice: c, SimTime: t, Failed: failed}
		}
	}
	if opts.Metrics != nil {
		opts.Metrics.Counter("autotune_fault_candidates").AddInt(int64(len(cands)))
		opts.Metrics.Counter("autotune_fault_sim_calls").AddInt(int64(len(cands) * len(plans) * 3))
	}
	return best, nil
}

// candidateKey fingerprints a choice by everything the simulator sees:
// the shape and each pass's slice count. Two hardware views that land on
// the same configuration simulate identically, so one is enough.
func candidateKey(c Choice) string {
	key := fmt.Sprintf("%dx%d", c.Shape.Rows, c.Shape.Cols)
	for _, l := range c.Layers {
		for _, p := range l.Passes {
			key += fmt.Sprintf(":%d", p.S)
		}
	}
	return key
}
