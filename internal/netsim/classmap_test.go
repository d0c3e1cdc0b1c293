package netsim

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"meshslice/internal/fault"
	"meshslice/internal/hw"
	"meshslice/internal/obs"
	"meshslice/internal/sched"
	"meshslice/internal/topology"
)

// classMapVariants are the option sets that run on the single class.
func classMapVariants() []goldenVariant {
	return []goldenVariant{
		{"default", Options{}},
		{"stepLevel", Options{StepLevel: true}},
		{"noOverlap", Options{NoOverlap: true}},
		{"tiled", Options{TiledCompute: true}},
		{"bidir", Options{BidirectionalRings: true}},
		{"noHBM", Options{NoHBMContention: true}},
		{"observed", Options{CriticalPath: true, TraceAllChips: true, CollectTrace: true, Metrics: obs.NewRegistry()}},
		{"critStepLevel", Options{CriticalPath: true, StepLevel: true}},
		{"critNoOverlap", Options{CriticalPath: true, NoOverlap: true}},
	}
}

// uniformPlan is one of three fault plans every chip of p sees alike, timed
// against its healthy makespan: an open-ended col-degrade (kind 0), a
// windowed row-degrade plus a windowed straggler (1), and both (2).
func uniformPlan(p *sched.Program, kind int) *fault.Plan {
	m := Simulate(p, testHW, Options{}).Makespan
	col, row := &fault.Plan{}, &fault.Plan{}
	for c := 0; c < p.Chips(); c++ {
		col.Degrades = append(col.Degrades, fault.LinkDegrade{Link: fault.Link{Chip: c, Dir: topology.InterCol}, Factor: 6})
		row.Degrades = append(row.Degrades, fault.LinkDegrade{Link: fault.Link{Chip: c, Dir: topology.InterRow}, Factor: 3, Start: m / 4, End: m / 2})
		row.Stragglers = append(row.Stragglers, fault.Straggler{Chip: c, Slowdown: 2, Start: m / 8, End: m * 3 / 4})
	}
	switch kind % 3 {
	case 0:
		return col
	case 1:
		return row
	}
	return &fault.Plan{Degrades: append(col.Degrades, row.Degrades...), Stragglers: row.Stragglers}
}

// modelSnapshot is the registry's JSON without the kernel's des_ metrics,
// which count the events the class map saves.
func modelSnapshot(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	snap := reg.Snapshot()
	counters := snap.Counters[:0]
	for _, c := range snap.Counters {
		if !strings.HasPrefix(c.Name, "des_") {
			counters = append(counters, c)
		}
	}
	gauges := snap.Gauges[:0]
	for _, g := range snap.Gauges {
		if !strings.HasPrefix(g.Name, "des_") {
			gauges = append(gauges, g)
		}
	}
	snap.Counters, snap.Gauges = counters, gauges
	js, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	return string(js)
}

// identityRun simulates every chip of p: the reference the class map must
// reproduce, whatever options are set.
func identityRun(t *testing.T, p *sched.Program, c hw.Chip, opts Options) Result {
	t.Helper()
	flt, err := opts.Faults.Index(p.Chips())
	if err != nil {
		t.Fatal(err)
	}
	s := newSim(p, c, opts, flt, p.Chips())
	s.run()
	return s.result()
}

// identityMatches simulates p under opts through Simulate and on the
// identity map, and reports whether the two agree on everything, the
// critical path included. It also returns whether the single-class run
// kept its certificate.
func identityMatches(t *testing.T, p *sched.Program, opts Options) (match, certified bool) {
	t.Helper()
	ident := opts
	if opts.Metrics != nil {
		opts.Metrics, ident.Metrics = obs.NewRegistry(), obs.NewRegistry()
	}
	got := Simulate(p, testHW, opts)
	want := identityRun(t, p, testHW, ident)
	match = reflect.DeepEqual(got, want)
	if match && opts.Metrics != nil {
		match = modelSnapshot(t, opts.Metrics) == modelSnapshot(t, ident.Metrics)
	}
	flt, err := opts.Faults.Index(p.Chips())
	if err != nil {
		t.Fatal(err)
	}
	s := newSim(p, testHW, opts, flt, 1)
	s.run()
	return match, !s.tainted
}

// tiedProgram is randomProgram with sizes drawn from powers of two, so that
// ops start and end at one instant far more often: the ties the
// certificate must see through.
func tiedProgram(rng *rand.Rand) *sched.Program {
	tor := topology.NewTorus(rng.Intn(4)+1, rng.Intn(4)+1)
	size := func() float64 { return float64(int(1)<<rng.Intn(4)) * 1e6 }
	ops := make([]sched.Op, rng.Intn(24)+1)
	for i := range ops {
		op := &ops[i]
		switch k := rng.Intn(6); {
		case k < 2:
			*op = sched.Op{Kind: sched.Compute, FLOPs: size() * 1e3, HBMBytes: size() * float64(rng.Intn(3))}
		case k == 2:
			*op = sched.Op{Kind: sched.Slice, HBMBytes: size()}
		default:
			dir, ring := randomRing(rng, tor)
			kind := []sched.OpKind{sched.AllGather, sched.ReduceScatter, sched.Shift}[rng.Intn(3)]
			steps := ring - 1
			if kind == sched.Shift {
				steps = rng.Intn(2) + 1
			}
			*op = sched.Op{Kind: kind, Dir: dir, Bytes: size(), Steps: steps}
			if ring == 1 {
				*op = sched.Op{Kind: sched.Compute, FLOPs: 1e9}
			}
		}
		for d := 0; d < i; d++ {
			if rng.Float64() < 0.2 {
				op.Deps = append(op.Deps, d)
			}
		}
	}
	return &sched.Program{Torus: tor, Ops: ops, Label: "tied"}
}

// edgeProgram draws the inputs Validate accepts that the other generators
// never produce: zero-duration compute and slice ops (a zero-duration grant
// frees the compute engine within its instant), zero-byte transfers,
// pipelined Broadcast/Reduce ops and, on a 3D torus, depth-lane rings.
func edgeProgram(rng *rand.Rand) *sched.Program {
	p := &sched.Program{Torus: topology.NewTorus(rng.Intn(3)+1, rng.Intn(3)+1), Label: "edge"}
	dirs := []topology.Direction{topology.InterRow, topology.InterCol}
	if rng.Intn(2) == 0 {
		grid := topology.NewTorus3D(p.Torus.Rows, p.Torus.Cols, rng.Intn(3)+1)
		p.Grid3 = &grid
		dirs = append(dirs, topology.InterDepth)
	}
	size := func() float64 { return float64(rng.Intn(3)) * 1e6 } // zero half as often as not
	p.Ops = make([]sched.Op, rng.Intn(24)+1)
	for i := range p.Ops {
		op := &p.Ops[i]
		dir := dirs[rng.Intn(len(dirs))]
		ring := len(p.RingMembers(0, dir))
		switch k := rng.Intn(8); {
		case k < 2 || ring == 1:
			*op = sched.Op{Kind: sched.Compute, FLOPs: size() * 1e3, HBMBytes: size()}
		case k == 2:
			*op = sched.Op{Kind: sched.Slice, HBMBytes: size()}
		case k < 5:
			packets := rng.Intn(3) + 1
			*op = sched.Op{Kind: []sched.OpKind{sched.Broadcast, sched.Reduce}[k-3], Dir: dir,
				Bytes: size(), Steps: ring + packets - 2, Packets: packets}
		default:
			kind := []sched.OpKind{sched.AllGather, sched.ReduceScatter, sched.Shift}[k-5]
			steps := ring - 1
			if kind == sched.Shift {
				steps = rng.Intn(2) + 1
			}
			*op = sched.Op{Kind: kind, Dir: dir, Bytes: size(), Steps: steps}
		}
		for d := 0; d < i; d++ {
			if rng.Float64() < 0.2 {
				op.Deps = append(op.Deps, d)
			}
		}
	}
	return p
}

// TestClassMapMatchesIdentity is the differential test of the class map:
// on random SPMD programs, the single-class run — certificate and
// fallback included — must return exactly what simulating every chip
// returns, under every option set it serves. Every other program runs
// again under one of the uniform fault plans. Each generator draws its
// programs serially from its own seeded stream, so the programs do not
// depend on scheduling; they are then checked in parallel chunks.
func TestClassMapMatchesIdentity(t *testing.T) {
	const chunk = 500
	for _, gen := range []struct {
		name     string
		programs int
		next     func(*rand.Rand) *sched.Program
	}{{"random", 5000, randomProgram}, {"tied", 2000, tiedProgram}, {"edge", 2000, edgeProgram}} {
		t.Run(gen.name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(35))
			progs := make([]*sched.Program, gen.programs)
			for i := range progs {
				progs[i] = gen.next(rng)
			}
			var runs, fallbacks atomic.Int64
			t.Cleanup(func() {
				t.Logf("%s: %d runs, %d fell back to the identity map", gen.name, runs.Load(), fallbacks.Load())
			})
			for lo := 0; lo < len(progs); lo += chunk {
				t.Run(fmt.Sprint(lo), func(t *testing.T) {
					t.Parallel()
					for trial := lo; trial < min(lo+chunk, len(progs)); trial++ {
						prog := progs[trial]
						plans := []*fault.Plan{nil}
						if trial%2 == 1 {
							plans = append(plans, uniformPlan(prog, trial/2))
						}
						for _, plan := range plans {
							for _, v := range classMapVariants() {
								v.opts.Faults = plan
								match, certified := identityMatches(t, prog, v.opts)
								runs.Add(1)
								if !certified {
									fallbacks.Add(1)
								}
								if !match {
									t.Fatalf("%s trial %d %s (faults %v): the class map diverged from the identity map (certified %v)", gen.name, trial, v.name, plan != nil, certified)
								}
							}
						}
					}
				})
			}
		})
	}
}

// TestClassMapStartOrder pins two ways a compute op's start can move on
// another chip, each a program the single class once got wrong. At one
// instant the Shift and the other ring's collective complete in either
// order, so the op that waits on both starts in whichever event runs last:
// after the AllGather's release on some chips, before it here. And a
// zero-duration op granted at that instant frees the engine within it, so
// the op granted next may have been ready, and picked, first elsewhere.
//
// It also pins the critical path's cause rule with the smallest program a
// search found where rank 0's run, certified without the rule, names
// another cause than the identity run: the Shift waits on the row AllGather and on the col link
// the ReduceScatter frees, and both end at one instant, so each chip names
// whichever it completed last.
func TestClassMapStartOrder(t *testing.T) {
	grid := topology.NewTorus3D(3, 1, 3)
	for _, c := range []struct {
		name string
		prog *sched.Program
	}{
		{"late start", &sched.Program{Torus: topology.NewTorus(2, 2), Label: "late", Ops: []sched.Op{
			{Kind: sched.Shift, Dir: topology.InterCol, Steps: 2},
			{Kind: sched.AllGather, Dir: topology.InterCol, Bytes: 2e6, Steps: 1},
			{Kind: sched.Shift, Dir: topology.InterRow, Steps: 2},
			{Kind: sched.Compute, HBMBytes: 1e6, Deps: []int{0, 2}},
		}}},
		{"zero-duration grant", &sched.Program{Torus: grid.Layer(), Grid3: &grid, Label: "zero", Ops: []sched.Op{
			{Kind: sched.AllGather, Dir: topology.InterDepth, Bytes: 2e6, Steps: 2},
			{Kind: sched.Shift, Dir: topology.InterRow, Bytes: 2e6, Steps: 2},
			{Kind: sched.Compute, FLOPs: 2e9, Deps: []int{0, 1}},
			{Kind: sched.Compute, Deps: []int{1}},
		}}},
		{"tied cause", &sched.Program{Torus: topology.NewTorus(2, 2), Label: "cause", Ops: []sched.Op{
			{Kind: sched.ReduceScatter, Dir: topology.InterCol, Bytes: 8e6, Steps: 1},
			{Kind: sched.AllGather, Dir: topology.InterRow, Bytes: 8e6, Steps: 1},
			{Kind: sched.Shift, Dir: topology.InterCol, Steps: 1, Deps: []int{1}},
		}}},
	} {
		for _, v := range classMapVariants() {
			v.opts.TraceAllChips = true
			if match, _ := identityMatches(t, c.prog, v.opts); !match {
				t.Errorf("%s %s: the class map diverged from the identity map", c.name, v.name)
			}
		}
	}
}

// oneClassEvents is the number of kernel events a single-class run of p
// dispatches: one completion per op, or one per ring step of a step-level
// collective.
func oneClassEvents(p *sched.Program, opts Options) int {
	s := &sim{opts: opts}
	n := 0
	for i := range p.Ops {
		op := &p.Ops[i]
		if opts.StepLevel && stepwiseKind(op.Kind) {
			n += max(s.effSteps(op), 1)
		} else {
			n++
		}
	}
	return n
}

// TestBuilderProgramsRunOneClass pins that the certificate never falls back
// on the builders' programs: every golden program and every 2D algorithm on
// 4×4, 8×4 and 8×8 runs as one class under each option set the class map
// serves, which the kernel's event count shows without any new API. Each
// run must also return, every chip's trace included, exactly what the
// identity map returns. So must each uniform fault plan's run, which takes
// the one class unless Metrics asks for per-chip fault telemetry.
func TestBuilderProgramsRunOneClass(t *testing.T) {
	progs := goldenPrograms()
	for _, shape := range []topology.Torus{topology.NewTorus(4, 4), topology.NewTorus(8, 4), topology.NewTorus(8, 8)} {
		progs = append(progs,
			goldenCase{"meshslice", sched.MeshSliceProgram(critProb, shape, testHW, 4)},
			goldenCase{"wang", sched.WangProgram(critProb, shape, testHW, 4)},
			goldenCase{"summa", sched.SUMMAProgram(critProb, shape, testHW, 8)},
			goldenCase{"collective", sched.CollectiveProgram(critProb, shape, testHW)})
		if shape.Rows == shape.Cols {
			progs = append(progs, goldenCase{"cannon", sched.CannonProgram(critProb, shape, testHW)})
		}
	}
	for _, c := range progs {
		for _, v := range classMapVariants() {
			v.opts.Metrics = obs.NewRegistry()
			Simulate(c.prog, testHW, v.opts)
			got := v.opts.Metrics.Counter("des_events_processed", obs.L("prog", c.prog.Label)).Value()
			if want := oneClassEvents(c.prog, v.opts); got != float64(want) {
				t.Errorf("%s on %v %s: %v kernel events, one class dispatches %d", c.name, c.prog.Torus, v.name, got, want)
			}
			v.opts.TraceAllChips = true
			if match, _ := identityMatches(t, c.prog, v.opts); !match {
				t.Errorf("%s on %v %s: the class map diverged from the identity map", c.name, c.prog.Torus, v.name)
			}
			for kind := 0; kind < 3; kind++ {
				opts := v.opts
				opts.Faults = uniformPlan(c.prog, kind)
				if v.name != "observed" {
					opts.Metrics = nil
				}
				flt, err := opts.Faults.Index(c.prog.Chips())
				if err != nil {
					t.Fatal(err)
				}
				if got, want := oneClass(opts, flt), opts.Metrics == nil; got != want {
					t.Errorf("%s on %v %s plan %d: oneClass %v, want %v", c.name, c.prog.Torus, v.name, kind, got, want)
				}
				if match, certified := identityMatches(t, c.prog, opts); !match || !certified {
					t.Errorf("%s on %v %s plan %d: match %v, certified %v", c.name, c.prog.Torus, v.name, kind, match, certified)
				}
			}
		}
	}
}

// TestNonUniformPlansRunIdentity pins the other side of the class map's
// fault condition: a plan that some chip sees differently — one chip
// missing its degrade, one chip listing its windows in another order, a
// dead link, a dead chip — simulates every chip, and returns what the
// identity map returns.
func TestNonUniformPlansRunIdentity(t *testing.T) {
	prog := sched.MeshSliceProgram(critProb, topology.NewTorus(8, 8), testHW, 4)
	uniform := uniformPlan(prog, 2)
	missing := *uniform
	missing.Degrades = uniform.Degrades[1:]
	permuted := &fault.Plan{Stragglers: uniform.Stragglers}
	for c := 0; c < prog.Chips(); c++ {
		degs := []fault.LinkDegrade{uniform.Degrades[c], {Link: fault.Link{Chip: c, Dir: topology.InterCol}, Factor: 2}}
		if c == 5 {
			degs[0], degs[1] = degs[1], degs[0]
		}
		permuted.Degrades = append(permuted.Degrades, degs...)
	}
	linkFail, chipFail := *uniform, *uniform
	linkFail.LinkFails = []fault.LinkFail{{Link: fault.Link{Chip: 9, Dir: topology.InterRow}, At: 1}}
	chipFail.ChipFails = []fault.ChipFail{{Chip: 9, At: 1}}
	for _, c := range []struct {
		name string
		plan *fault.Plan
	}{{"missing", &missing}, {"permuted", permuted}, {"link fail", &linkFail}, {"chip fail", &chipFail}} {
		for _, v := range []Options{{}, {StepLevel: true}} {
			v.Faults = c.plan
			flt, err := c.plan.Index(prog.Chips())
			if err != nil {
				t.Fatal(err)
			}
			if oneClass(v, flt) {
				t.Errorf("%s: a non-uniform plan runs one class", c.name)
			}
			if match, _ := identityMatches(t, prog, v); !match {
				t.Errorf("%s: the run diverged from the identity map", c.name)
			}
		}
	}
}

// TestStepLevelHistogramOrder reaches the certificate's histogram check.
// Two step-level AllGathers end at one instant with different spans (one
// started a step later), and the full mesh completes them ring by ring,
// interleaving the two spans in the histogram's sum; the single class would
// add one span for every chip, then the other.
func TestStepLevelHistogramOrder(t *testing.T) {
	chip := testHW
	chip.LaunchOverhead = 0 // every step the same length, so the rings end together
	prog := &sched.Program{Torus: topology.NewTorus(2, 2), Label: "spans", Ops: []sched.Op{
		{Kind: sched.AllGather, Dir: topology.InterRow, Bytes: 3e6, Steps: 3},
		{Kind: sched.AllGather, Dir: topology.InterCol, Bytes: 3e6, Steps: 1},
		{Kind: sched.AllGather, Dir: topology.InterCol, Bytes: 3e6, Steps: 2, Deps: []int{1}},
	}}
	opts := Options{StepLevel: true, NoHBMContention: true, Metrics: obs.NewRegistry()}
	ident := opts
	ident.Metrics = obs.NewRegistry()
	got, want := Simulate(prog, chip, opts), identityRun(t, prog, chip, ident)
	if !reflect.DeepEqual(got, want) || modelSnapshot(t, opts.Metrics) != modelSnapshot(t, ident.Metrics) {
		t.Errorf("the class map diverged from the identity map")
	}
}
