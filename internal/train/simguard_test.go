package train

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"strings"
	"testing"

	"meshslice/internal/autotune"
	"meshslice/internal/fault"
	"meshslice/internal/gemm"
	"meshslice/internal/model"
	"meshslice/internal/netsim"
	"meshslice/internal/obs"
	"meshslice/internal/sched"
	"meshslice/internal/topology"
)

// simGuard pins what the cluster simulator returns for the GeMMs the paper
// evaluates: GPT-3's twelve FC passes × every 2D algorithm on three mesh
// shapes, under each simulator variant. One FNV-64a digest per (shape,
// variant) row covers every result field, every chip's trace and the
// metrics registry. A refactor of package netsim or des must reproduce them
// untouched; a failing row prints its literal. The rows were captured
// before the simulator ran one representative per chip class, and every
// simulation here must also run as one class.
var simGuard = map[string]uint64{
	"8x8 default":    0xde98c6107de577fa,
	"8x8 stepLevel":  0x61fa2a3c2bbbb07b,
	"8x8 noOverlap":  0xb51404bf10a4073c,
	"8x8 tiled":      0xf3cc79445633f001,
	"8x8 bidir":      0xa0bd7b01a77ba1fe,
	"8x8 noHBM":      0x1324e7f707c5701d,
	"8x8 observed":   0x5efb6add83abe52,
	"4x16 default":   0xe9eecd3c875af739,
	"4x16 stepLevel": 0x667b076d948c733e,
	"4x16 noOverlap": 0x6074acdb3d730f38,
	"4x16 tiled":     0xcf98885bb4e7586f,
	"4x16 bidir":     0x3e8953d803487864,
	"4x16 noHBM":     0x23f51fde6816f4ec,
	"4x16 observed":  0xfa069446abcd6221,
	"32x8 default":   0x9864a8c410b2d6f9,
	"32x8 stepLevel": 0xd490ab2fee91b1ef,
	"32x8 noOverlap": 0x64edfd7f9bf5d4ac,
	"32x8 tiled":     0xf2189b837f4aaaa3,
	"32x8 bidir":     0x9093ee11ff764e0e,
	"32x8 noHBM":     0x28cda5b59d573154,
	"32x8 observed":  0xcc69aa75046cc3c,
}

type simGuardVariant struct {
	name string
	opts netsim.Options
}

func simGuardVariants() []simGuardVariant {
	return []simGuardVariant{
		{"default", netsim.Options{}},
		{"stepLevel", netsim.Options{StepLevel: true}},
		{"noOverlap", netsim.Options{NoOverlap: true}},
		{"tiled", netsim.Options{TiledCompute: true}},
		{"bidir", netsim.Options{BidirectionalRings: true}},
		{"noHBM", netsim.Options{NoHBMContention: true}},
		{"observed", netsim.Options{TraceAllChips: true, CollectTrace: true}},
	}
}

// simGuardPasses returns GPT-3's twelve training GeMMs at the weak-scaling
// token count of the cluster size, after the dataflow phase.
func simGuardPasses(chips int) []gemm.Problem {
	cfg := model.GPT3()
	var out []gemm.Problem
	for _, plan := range autotune.PlanModel(cfg, cfg.WeakScalingTokens(chips), true) {
		out = append(out, plan.Passes[:]...)
	}
	return out
}

// simDigest writes one simulation to h: the result's scalars, the chip-0
// trace, every chip's trace and — when reg is set — the registry snapshot
// without the des kernel's own bookkeeping (des_events_processed and
// des_queue_high_water count scheduler work, not simulated behaviour).
func simDigest(t *testing.T, h io.Writer, r netsim.Result, reg *obs.Registry) {
	t.Helper()
	var b [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, v := range []float64{r.Makespan, r.ComputeBusy, r.Comm.Launch, r.Comm.Sync, r.Comm.Transfer, r.CommBusy, r.ExposedComm} {
		word(math.Float64bits(v))
	}
	word(uint64(r.Events))
	trace := func(tr netsim.Trace) {
		word(uint64(len(tr)))
		for _, e := range tr {
			word(uint64(e.Op))
			word(math.Float64bits(e.Start))
			word(math.Float64bits(e.End))
		}
	}
	trace(r.Trace)
	word(uint64(len(r.Traces)))
	for _, tr := range r.Traces {
		trace(tr)
	}
	if reg == nil {
		return
	}
	snap := reg.Snapshot()
	kept := snap.Counters[:0]
	for _, c := range snap.Counters {
		if !strings.HasPrefix(c.Name, "des_") {
			kept = append(kept, c)
		}
	}
	snap.Counters = kept
	gauges := snap.Gauges[:0]
	for _, g := range snap.Gauges {
		if !strings.HasPrefix(g.Name, "des_") {
			gauges = append(gauges, g)
		}
	}
	snap.Gauges = gauges
	js, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(js)
}

// oneClassEvents is the number of kernel events a single-class simulation
// of p dispatches: one completion per op, or one per ring step of a
// step-level AllGather, ReduceScatter or Shift.
func oneClassEvents(p *sched.Program, opts netsim.Options) int {
	n := 0
	for _, op := range p.Ops {
		steps := 1
		if opts.StepLevel && (op.Kind == sched.AllGather || op.Kind == sched.ReduceScatter || op.Kind == sched.Shift) {
			steps = op.Steps
			if opts.BidirectionalRings && op.Kind != sched.Shift {
				steps = (steps + 1) / 2
			}
		}
		n += max(steps, 1)
	}
	return n
}

func TestSimulatorGuard(t *testing.T) {
	shapes := []topology.Torus{topology.NewTorus(8, 8), topology.NewTorus(4, 16), topology.NewTorus(32, 8)}
	for _, shape := range shapes {
		passes := simGuardPasses(shape.Size())
		for _, v := range simGuardVariants() {
			key := fmt.Sprintf("%dx%d %s", shape.Rows, shape.Cols, v.name)
			h := fnv.New64a()
			sims := 0
			for _, prob := range passes {
				for _, algo := range TwoDAlgos {
					prog, ok := buildProgram(algo, prob, shape, testHW, Options{})
					if !ok {
						continue
					}
					opts := v.opts
					opts.Metrics = obs.NewRegistry()
					r := netsim.Simulate(prog, testHW, opts)
					if opts.TraceAllChips {
						simDigest(t, h, r, opts.Metrics)
					} else {
						simDigest(t, h, r, nil)
					}
					// One class stands for the mesh: the kernel dispatched one
					// instance's events, so nothing fell back to every chip.
					got := opts.Metrics.Counter("des_events_processed", obs.L("prog", prog.Label)).Value()
					if want := oneClassEvents(prog, opts); got != float64(want) {
						t.Errorf("%s %v: %v kernel events, one class dispatches %d", key, algo, got, want)
					}
					fc, _ := EvaluateGeMMOnShape(prob, shape, shape.Size(), testHW, algo, Options{Sim: v.opts})
					if math.Float64bits(fc.Time) != math.Float64bits(r.Makespan) {
						t.Fatalf("%s %v: EvaluateGeMMOnShape time %v, simulated makespan %v", key, algo, fc.Time, r.Makespan)
					}
					sims++
				}
			}
			if sims == 0 {
				t.Fatalf("%s: no program built", key)
			}
			got := h.Sum64()
			want, ok := simGuard[key]
			if !ok || got != want {
				t.Errorf("%s: digest %#x over %d simulations; want row\n\t%q: %#x,", key, got, sims, key, got)
			}
		}
	}
	if want := 3 * len(simGuardVariants()); len(simGuard) != want {
		t.Errorf("guard table has %d rows, the cross product has %d", len(simGuard), want)
	}
}

// faultGuard pins what the simulator returns under fault plans for GPT-3's
// twelve FC passes × every 2D algorithm on 8×8: one FNV-64a digest per
// (plan, variant) row over every result field, every chip's trace, the
// failure diagnosis and the clipped fault spans. The rows were captured
// before faulted runs could take the one-class map; a change to the fault
// model's plumbing must reproduce them untouched.
var faultGuard = map[string]uint64{
	"col-degrade default":         0xd6a72a3dad50d0d5,
	"col-degrade stepLevel":       0x93ff564db54f9e91,
	"col-degrade traceAll":        0xfe7caee27ac9f555,
	"seeded default":              0xceac6666f2f9d3a4,
	"seeded stepLevel":            0x40adca133710d01,
	"chip-fail default":           0xa3c05f1932f7a8ef,
	"link-fail reroute stepLevel": 0x9ed394f695ee4ade,
}

type faultGuardRow struct {
	name string
	plan *fault.Plan
	opts netsim.Options
}

func faultGuardRows(chips int) []faultGuardRow {
	colDegrade := &fault.Plan{}
	for c := 0; c < chips; c++ {
		colDegrade.Degrades = append(colDegrade.Degrades, fault.LinkDegrade{
			Link: fault.Link{Chip: c, Dir: topology.InterCol}, Factor: 6,
		})
	}
	seeded := fault.Generate(7, chips, fault.ScenarioOptions{Degrades: 3, Stragglers: 2, MaxFactor: 6, Horizon: 0.01})
	chipFail := &fault.Plan{ChipFails: []fault.ChipFail{{Chip: 9, At: 6e-3}}}
	linkFail := &fault.Plan{LinkFails: []fault.LinkFail{ // the second partitions the first's ring
		{Link: fault.Link{Chip: 20, Dir: topology.InterRow}, At: 5e-4},
		{Link: fault.Link{Chip: 28, Dir: topology.InterRow}, At: 8e-3},
	}}
	return []faultGuardRow{
		{"col-degrade default", colDegrade, netsim.Options{}},
		{"col-degrade stepLevel", colDegrade, netsim.Options{StepLevel: true}},
		{"col-degrade traceAll", colDegrade, netsim.Options{TraceAllChips: true}},
		{"seeded default", seeded, netsim.Options{}},
		{"seeded stepLevel", seeded, netsim.Options{StepLevel: true}},
		{"chip-fail default", chipFail, netsim.Options{}},
		{"link-fail reroute stepLevel", linkFail, netsim.Options{StepLevel: true, FaultReroute: true}},
	}
}

func TestFaultGuard(t *testing.T) {
	shape := topology.NewTorus(8, 8)
	passes := simGuardPasses(shape.Size())
	rows := faultGuardRows(shape.Size())
	for _, row := range rows {
		h := fnv.New64a()
		var b [8]byte
		word := func(v uint64) {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
		sims, failed := 0, 0
		for _, prob := range passes {
			for _, algo := range TwoDAlgos {
				prog, ok := buildProgram(algo, prob, shape, testHW, Options{})
				if !ok {
					continue
				}
				opts := row.opts
				opts.Faults = row.plan
				r := netsim.Simulate(prog, testHW, opts)
				simDigest(t, h, r, nil)
				if f := r.Failed; f != nil {
					failed++
					word(uint64(f.Kind))
					word(uint64(f.Chip))
					word(uint64(f.Dir))
					word(uint64(f.Op))
					h.Write([]byte(f.OpName))
					word(math.Float64bits(f.At))
				}
				word(uint64(len(r.FaultSpans)))
				for _, sp := range r.FaultSpans {
					h.Write([]byte(sp.Kind))
					word(uint64(sp.Chip))
					word(uint64(sp.Dir))
					for _, v := range []float64{sp.Factor, sp.Start, sp.End} {
						word(math.Float64bits(v))
					}
				}
				sims++
			}
		}
		got := h.Sum64()
		if want, ok := faultGuard[row.name]; !ok || got != want {
			t.Errorf("%s: digest %#x over %d simulations (%d halted); want row\n\t%q: %#x,", row.name, got, sims, failed, row.name, got)
		}
	}
	if len(faultGuard) != len(rows) {
		t.Errorf("fault guard table has %d rows, the plans × variants list has %d", len(faultGuard), len(rows))
	}
}
