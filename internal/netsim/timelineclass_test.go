package netsim

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"meshslice/internal/fault"
	"meshslice/internal/sched"
	"meshslice/internal/topology"
)

// timelineClasses partitions the chips by their whole-cluster trace: two
// chips share a class when they run the same ops with bit-identical start
// and end times.
func timelineClasses(t *testing.T, p *sched.Program, r Result) int {
	t.Helper()
	classes := map[string]bool{}
	for chip, tr := range r.Traces {
		if len(tr) != len(p.Ops) {
			t.Fatalf("chip %d traced %d of %d ops", chip, len(tr), len(p.Ops))
		}
		key := make([]byte, 0, 24*len(tr))
		for _, e := range tr {
			key = binary.LittleEndian.AppendUint64(key, uint64(e.Op))
			key = binary.LittleEndian.AppendUint64(key, math.Float64bits(e.Start))
			key = binary.LittleEndian.AppendUint64(key, math.Float64bits(e.End))
		}
		classes[string(key)] = true
	}
	if len(r.Traces) != p.Chips() {
		t.Fatalf("%d chip traces for %d chips", len(r.Traces), p.Chips())
	}
	return len(classes)
}

// TestFaultFreeTimelineClasses records the regularity an orbit simulator
// would exploit: on a fault-free torus every chip of an SPMD GeMM program
// runs the same timeline as chip 0 at default options, so the mesh holds
// one timeline class. The other variants' class counts are pinned as
// observed, and a single degraded link must split the chips.
func TestFaultFreeTimelineClasses(t *testing.T) {
	type variant struct {
		name string
		opts Options
	}
	variants := []variant{
		{"default", Options{}},
		{"stepLevel", Options{StepLevel: true}},
		{"noOverlap", Options{NoOverlap: true}},
		{"bidir", Options{BidirectionalRings: true}},
	}
	// want[program] lists the class count per variant, in variants order.
	want := map[string][4]int{
		"meshslice/4x4":  {1, 1, 1, 1},
		"wang/4x4":       {1, 1, 1, 1},
		"summa/4x4":      {1, 1, 1, 1},
		"collective/4x4": {1, 1, 1, 1},
		"cannon/4x4":     {1, 1, 1, 1},
		"meshslice/8x4":  {1, 1, 1, 1},
		"wang/8x4":       {1, 1, 1, 1},
		"summa/8x4":      {1, 1, 1, 1},
		"collective/8x4": {1, 1, 1, 1},
		"meshslice/8x8":  {1, 1, 1, 1},
		"wang/8x8":       {1, 1, 1, 1},
		"summa/8x8":      {1, 1, 1, 1},
		"collective/8x8": {1, 1, 1, 1},
		"cannon/8x8":     {1, 1, 1, 1},
	}
	seen := 0
	for _, shape := range []topology.Torus{topology.NewTorus(4, 4), topology.NewTorus(8, 4), topology.NewTorus(8, 8)} {
		progs := []goldenCase{
			{"meshslice", sched.MeshSliceProgram(critProb, shape, testHW, 4)},
			{"wang", sched.WangProgram(critProb, shape, testHW, 4)},
			{"summa", sched.SUMMAProgram(critProb, shape, testHW, 8)},
			{"collective", sched.CollectiveProgram(critProb, shape, testHW)},
		}
		if shape.Rows == shape.Cols {
			progs = append(progs, goldenCase{"cannon", sched.CannonProgram(critProb, shape, testHW)})
		}
		for _, c := range progs {
			name := fmt.Sprintf("%s/%dx%d", c.name, shape.Rows, shape.Cols)
			counts, ok := want[name]
			if !ok {
				t.Errorf("%s: no pinned class counts", name)
				continue
			}
			seen++
			for i, v := range variants {
				v.opts.TraceAllChips = true
				if got := timelineClasses(t, c.prog, Simulate(c.prog, testHW, v.opts)); got != counts[i] {
					t.Errorf("%s %s: %d timeline classes, pinned %d", name, v.name, got, counts[i])
				}
			}
		}
	}
	if seen != len(want) {
		t.Errorf("covered %d programs, the table pins %d", seen, len(want))
	}

	// One degraded link breaks the symmetry: the chips whose rings cross
	// it run slower than the rest.
	degrade := &fault.Plan{Degrades: []fault.LinkDegrade{{Link: fault.Link{Chip: 0, Dir: topology.InterRow}, Factor: 2}}}
	prog := sched.MeshSliceProgram(critProb, topology.NewTorus(8, 8), testHW, 4)
	got := timelineClasses(t, prog, Simulate(prog, testHW, Options{TraceAllChips: true, Faults: degrade}))
	t.Logf("one degraded link: %d timeline classes on 8x8", got)
	if got < 2 {
		t.Errorf("a degraded link left %d timeline class, want >= 2", got)
	}
}
