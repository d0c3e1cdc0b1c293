package fault

import (
	"math"
	"strings"
	"testing"

	"meshslice/internal/hw"
	"meshslice/internal/topology"
)

// mustIndex compiles p for a cluster of the given size.
func mustIndex(t *testing.T, p *Plan, chips int) *Index {
	t.Helper()
	x, err := p.Index(chips)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func TestEmptyPlan(t *testing.T) {
	var nilPlan *Plan
	if !nilPlan.Empty() {
		t.Fatal("nil plan must be empty")
	}
	p := &Plan{}
	if !p.Empty() {
		t.Fatal("zero plan must be empty")
	}
	if x, err := p.Index(16); x != nil || err != nil {
		t.Fatalf("empty plan Index = (%v, %v), want the healthy fabric's nil", x, err)
	}
	if x, err := nilPlan.Index(16); x != nil || err != nil {
		t.Fatalf("nil plan Index = (%v, %v), want nil", x, err)
	}
	x := mustIndex(t, &Plan{Stragglers: []Straggler{{Chip: 1, Slowdown: 2}}}, 16)
	if got := x.LinkFactor(Link{Chip: 0, Dir: topology.InterRow}, 0.5); got != 1 { // lint:float-exact healthy factor is the literal 1
		t.Fatalf("LinkFactor of an undegraded link = %g, want 1", got)
	}
	if got := x.ComputeFactor(3, 0.5); got != 1 { // lint:float-exact healthy factor is the literal 1
		t.Fatalf("ComputeFactor of a healthy chip = %g, want 1", got)
	}
	if _, n := x.FailedRingLinks([]int{0, 1}, topology.InterRow, 1e9); x.ChipFailedBy(0, 1e9) || n != 0 {
		t.Fatal("a plan without failures must report none")
	}
	if s := p.Spans(1.0); s != nil {
		t.Fatalf("empty plan Spans = %v, want nil", s)
	}
	if err := p.Validate(16); err != nil {
		t.Fatalf("empty plan Validate: %v", err)
	}
}

func TestFactorsWindowed(t *testing.T) {
	l := Link{Chip: 2, Dir: topology.InterCol}
	p := &Plan{
		Degrades: []LinkDegrade{
			{Link: l, Factor: 4, Start: 1, End: 2},
			{Link: l, Factor: 2, Start: 0, End: 0}, // open-ended
		},
		Stragglers: []Straggler{{Chip: 5, Slowdown: 3, Start: 0.5, End: 1.5}},
	}
	x := mustIndex(t, p, 16)
	cases := []struct {
		t    float64
		want float64
	}{
		{0, 2}, {0.99, 2}, {1, 4}, {1.5, 4}, {2, 2}, {100, 2},
	}
	for _, c := range cases {
		if got := x.LinkFactor(l, c.t); got != c.want { // lint:float-exact factors are copied literals, not arithmetic
			t.Errorf("LinkFactor(t=%g) = %g, want %g", c.t, got, c.want)
		}
	}
	if got := x.LinkFactor(Link{Chip: 2, Dir: topology.InterRow}, 1.5); got != 1 { // lint:float-exact other direction is healthy
		t.Errorf("other-direction LinkFactor = %g, want 1", got)
	}
	if got := x.ComputeFactor(5, 1.0); got != 3 { // lint:float-exact factors are copied literals
		t.Errorf("ComputeFactor in window = %g, want 3", got)
	}
	if got := x.ComputeFactor(5, 1.5); got != 1 { // lint:float-exact window is half-open [start,end)
		t.Errorf("ComputeFactor at window end = %g, want 1", got)
	}
	if got := x.ComputeFactor(4, 1.0); got != 1 { // lint:float-exact other chip is healthy
		t.Errorf("other-chip ComputeFactor = %g, want 1", got)
	}
}

func TestFailures(t *testing.T) {
	l := Link{Chip: 1, Dir: topology.InterRow}
	p := &Plan{
		LinkFails: []LinkFail{{Link: l, At: 2}},
		ChipFails: []ChipFail{{Chip: 7, At: 3}},
	}
	x := mustIndex(t, p, 16)
	if _, n := x.FailedRingLinks([]int{l.Chip}, l.Dir, 1.99); n != 0 {
		t.Fatal("link dead before At")
	}
	if _, n := x.FailedRingLinks([]int{l.Chip}, l.Dir, 2); n != 1 {
		t.Fatal("link alive at At")
	}
	if x.ChipFailedBy(7, 2.5) || !x.ChipFailedBy(7, 3) {
		t.Fatal("chip failure time wrong")
	}
	chip, n := x.FailedRingLinks([]int{0, 1, 2, 3}, topology.InterRow, 5)
	if chip != 1 || n != 1 {
		t.Fatalf("FailedRingLinks = (%d, %d), want (1, 1)", chip, n)
	}
	_, n = x.FailedRingLinks([]int{0, 1, 2, 3}, topology.InterCol, 5)
	if n != 0 {
		t.Fatalf("wrong-direction FailedRingLinks count = %d, want 0", n)
	}
}

// The plan scans the Index replaced, kept as the reference its lookups
// must reproduce bit for bit.

func scanLinkFactor(p *Plan, l Link, t float64) float64 {
	f := 1.0
	for _, d := range p.Degrades {
		if d.Link == l && active(d.Start, d.End, t) && d.Factor > f {
			f = d.Factor
		}
	}
	return f
}

func scanComputeFactor(p *Plan, chip int, t float64) float64 {
	f := 1.0
	for _, s := range p.Stragglers {
		if s.Chip == chip && active(s.Start, s.End, t) && s.Slowdown > f {
			f = s.Slowdown
		}
	}
	return f
}

func scanLinkFailedBy(p *Plan, l Link, t float64) bool {
	for _, f := range p.LinkFails {
		if f.Link == l && f.At <= t {
			return true
		}
	}
	return false
}

func scanChipFailedBy(p *Plan, chip int, t float64) bool {
	for _, f := range p.ChipFails {
		if f.Chip == chip && f.At <= t {
			return true
		}
	}
	return false
}

func scanFailedRingLinks(p *Plan, members []int, d topology.Direction, t float64) (chip, n int) {
	chip = -1
	for _, m := range members {
		if scanLinkFailedBy(p, Link{Chip: m, Dir: d}, t) {
			if chip < 0 || m < chip {
				chip = m
			}
			n++
		}
	}
	return chip, n
}

// TestIndexMatchesPlanScan is the Index's property test: on seeded plans,
// 2D and 3D, every lookup at every event boundary (and between them)
// returns exactly what scanning the plan returns.
func TestIndexMatchesPlanScan(t *testing.T) {
	const chips = 16
	dirs := []topology.Direction{topology.InterRow, topology.InterCol, topology.InterDepth}
	rings := [][]int{{0, 1, 2, 3}, {3, 7, 11, 15}, {5}, {0, 4, 8, 12, 1, 9}}
	for seed := int64(0); seed < 200; seed++ {
		opts := ScenarioOptions{Degrades: int(seed % 9), Stragglers: int(seed % 5), LinkFails: int(seed % 4), ChipFails: int(seed % 3), Depth: 1 + int(seed%2)}
		p := Generate(seed, chips, opts)
		x := mustIndex(t, p, chips)
		times := []float64{0, 0.33, 0.5, 0.77, 1, 2}
		for _, s := range p.Spans(math.Inf(1)) {
			times = append(times, s.Start, s.End, math.Nextafter(s.Start, -1), math.Nextafter(s.End, -1))
		}
		for _, at := range times {
			for chip := 0; chip < chips; chip++ {
				for _, d := range dirs {
					l := Link{Chip: chip, Dir: d}
					if got, want := x.LinkFactor(l, at), scanLinkFactor(p, l, at); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("seed %d: LinkFactor(%v, %g) = %g, scan %g", seed, l, at, got, want)
					}
				}
				if got, want := x.ComputeFactor(chip, at), scanComputeFactor(p, chip, at); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d: ComputeFactor(%d, %g) = %g, scan %g", seed, chip, at, got, want)
				}
				if got, want := x.ChipFailedBy(chip, at), scanChipFailedBy(p, chip, at); got != want {
					t.Fatalf("seed %d: ChipFailedBy(%d, %g) = %v, scan %v", seed, chip, at, got, want)
				}
			}
			for _, ring := range rings {
				for _, d := range dirs {
					gc, gn := x.FailedRingLinks(ring, d, at)
					if wc, wn := scanFailedRingLinks(p, ring, d, at); gc != wc || gn != wn {
						t.Fatalf("seed %d: FailedRingLinks(%v, %v, %g) = (%d, %d), scan (%d, %d)", seed, ring, d, at, gc, gn, wc, wn)
					}
				}
			}
		}
	}
}

// TestIndexUniform pins which plans a chip's timeline can stand for: only
// those without failures whose chips each repeat chip 0's windows per
// direction, in plan order.
func TestIndexUniform(t *testing.T) {
	const chips = 8
	every := func(build func(c int) Plan) *Plan {
		p := &Plan{}
		for c := 0; c < chips; c++ {
			q := build(c)
			p.Degrades = append(p.Degrades, q.Degrades...)
			p.Stragglers = append(p.Stragglers, q.Stragglers...)
		}
		return p
	}
	col := func(c int) LinkDegrade {
		return LinkDegrade{Link: Link{Chip: c, Dir: topology.InterCol}, Factor: 6}
	}
	row := func(c int) LinkDegrade {
		return LinkDegrade{Link: Link{Chip: c, Dir: topology.InterRow}, Factor: 3, Start: 1e-3, End: 4e-3}
	}
	slow := func(c int) Straggler { return Straggler{Chip: c, Slowdown: 2, Start: 2e-3, End: 5e-3} }
	colDegrade := every(func(c int) Plan { return Plan{Degrades: []LinkDegrade{col(c)}} })
	for _, c := range []struct {
		name    string
		plan    *Plan
		uniform bool
	}{
		{"col-degrade", colDegrade, true},
		{"row window and straggler", every(func(c int) Plan {
			return Plan{Degrades: []LinkDegrade{row(c)}, Stragglers: []Straggler{slow(c)}}
		}), true},
		{"both", every(func(c int) Plan {
			return Plan{Degrades: []LinkDegrade{col(c), row(c)}, Stragglers: []Straggler{slow(c)}}
		}), true},
		{"one chip missing", &Plan{Degrades: colDegrade.Degrades[1:]}, false},
		{"permuted order", every(func(c int) Plan {
			if c == 3 {
				return Plan{Degrades: []LinkDegrade{col(c), row(c), {Link: Link{Chip: c, Dir: topology.InterCol}, Factor: 2}}}
			}
			return Plan{Degrades: []LinkDegrade{{Link: Link{Chip: c, Dir: topology.InterCol}, Factor: 2}, row(c), col(c)}}
		}), false},
		{"link fail", &Plan{Degrades: colDegrade.Degrades, LinkFails: []LinkFail{{Link: Link{Chip: 2, Dir: topology.InterRow}, At: 1}}}, false},
		{"chip fail", &Plan{Degrades: colDegrade.Degrades, ChipFails: []ChipFail{{Chip: 2, At: 1}}}, false},
	} {
		if got := mustIndex(t, c.plan, chips).Uniform(); got != c.uniform {
			t.Errorf("%s: Uniform() = %v, want %v", c.name, got, c.uniform)
		}
	}
}

func TestValidate(t *testing.T) {
	bad := []*Plan{
		{Degrades: []LinkDegrade{{Link: Link{Chip: 16, Dir: topology.InterRow}, Factor: 2}}},
		{Degrades: []LinkDegrade{{Link: Link{Chip: 0, Dir: topology.InterRow}, Factor: 0.5}}},
		{Degrades: []LinkDegrade{{Link: Link{Chip: 0, Dir: topology.InterRow}, Factor: 2, Start: 2, End: 1}}},
		{Stragglers: []Straggler{{Chip: -1, Slowdown: 2}}},
		{Stragglers: []Straggler{{Chip: 0, Slowdown: 0.9}}},
		{LinkFails: []LinkFail{{Link: Link{Chip: 0, Dir: topology.InterRow}, At: -1}}},
		{ChipFails: []ChipFail{{Chip: 99, At: 0}}},
		{Degrades: []LinkDegrade{{Link: Link{Chip: 0, Dir: topology.InterCol}, Factor: math.NaN()}}},
		{Degrades: []LinkDegrade{{Link: Link{Chip: 0, Dir: topology.InterCol}, Factor: math.Inf(1)}}},
		{Degrades: []LinkDegrade{{Link: Link{Chip: 0, Dir: topology.InterCol}, Factor: 2, Start: math.NaN()}}},
		{Degrades: []LinkDegrade{{Link: Link{Chip: 0, Dir: topology.InterCol}, Factor: 2, End: math.Inf(1)}}},
		{Stragglers: []Straggler{{Chip: 0, Slowdown: math.NaN()}}},
		{Stragglers: []Straggler{{Chip: 0, Slowdown: math.Inf(1)}}},
		{Stragglers: []Straggler{{Chip: 0, Slowdown: 2, End: math.NaN()}}},
		{LinkFails: []LinkFail{{Link: Link{Chip: 0, Dir: topology.InterRow}, At: math.NaN()}}},
		{ChipFails: []ChipFail{{Chip: 0, At: math.Inf(1)}}},
	}
	for i, p := range bad {
		if err := p.Validate(16); err == nil {
			t.Errorf("bad plan %d validated", i)
		}
		if _, err := p.Index(16); err == nil {
			t.Errorf("bad plan %d compiled", i)
		}
	}
	good := &Plan{
		Degrades:   []LinkDegrade{{Link: Link{Chip: 3, Dir: topology.InterDepth}, Factor: 1.5, Start: 0.1, End: 0.9}},
		Stragglers: []Straggler{{Chip: 15, Slowdown: 10}},
		LinkFails:  []LinkFail{{Link: Link{Chip: 0, Dir: topology.InterCol}, At: 0}},
		ChipFails:  []ChipFail{{Chip: 0, At: 0.5}},
	}
	if err := good.Validate(16); err != nil {
		t.Fatalf("good plan rejected: %v", err)
	}
}

func TestEffectiveChip(t *testing.T) {
	c := hw.TPUv4()
	p := &Plan{
		Degrades:   []LinkDegrade{{Link: Link{Chip: 0, Dir: topology.InterRow}, Factor: 4}},
		Stragglers: []Straggler{{Chip: 1, Slowdown: 2}},
	}
	eff := p.EffectiveChip(c)
	if eff.LinkBandwidth != c.LinkBandwidth/4 { // lint:float-exact single division is exact to compare
		t.Fatalf("EffectiveChip bandwidth = %g, want %g", eff.LinkBandwidth, c.LinkBandwidth/4)
	}
	if eff.EffFLOPS != c.EffFLOPS/2 { // lint:float-exact single division is exact to compare
		t.Fatalf("EffectiveChip FLOPS = %g, want %g", eff.EffFLOPS, c.EffFLOPS/2)
	}
	if eff.PeakFLOPS != c.PeakFLOPS { // lint:float-exact untouched field must be copied verbatim
		t.Fatal("EffectiveChip must not touch PeakFLOPS")
	}
	healthy := (&Plan{}).EffectiveChip(c)
	if healthy != c {
		t.Fatal("empty plan EffectiveChip must be the identity")
	}
}

func TestCanonicalOrderIndependent(t *testing.T) {
	a := &Plan{
		Degrades: []LinkDegrade{
			{Link: Link{Chip: 1, Dir: topology.InterRow}, Factor: 2, Start: 0, End: 1},
			{Link: Link{Chip: 0, Dir: topology.InterCol}, Factor: 3, Start: 0.5, End: 0},
		},
		ChipFails: []ChipFail{{Chip: 2, At: 0.25}},
	}
	b := &Plan{
		Degrades: []LinkDegrade{
			{Link: Link{Chip: 0, Dir: topology.InterCol}, Factor: 3, Start: 0.5, End: 0},
			{Link: Link{Chip: 1, Dir: topology.InterRow}, Factor: 2, Start: 0, End: 1},
		},
		ChipFails: []ChipFail{{Chip: 2, At: 0.25}},
	}
	if a.Canonical() != b.Canonical() {
		t.Fatalf("canonical text depends on slice order:\n%s\nvs\n%s", a.Canonical(), b.Canonical())
	}
	if !strings.Contains(a.Canonical(), "end=open") {
		t.Fatalf("open-ended window missing from canonical text:\n%s", a.Canonical())
	}
	if got := (&Plan{}).Canonical(); got != "(healthy fabric)\n" {
		t.Fatalf("empty canonical = %q", got)
	}
}

func TestSpans(t *testing.T) {
	p := &Plan{
		Degrades: []LinkDegrade{
			{Link: Link{Chip: 0, Dir: topology.InterRow}, Factor: 2, Start: 0.2, End: 0}, // open → clipped
			{Link: Link{Chip: 1, Dir: topology.InterRow}, Factor: 2, Start: 5, End: 6},   // beyond horizon → dropped
		},
		Stragglers: []Straggler{{Chip: 3, Slowdown: 4, Start: 0, End: 0.5}},
		LinkFails:  []LinkFail{{Link: Link{Chip: 2, Dir: topology.InterCol}, At: 0.9}},
	}
	spans := p.Spans(1.0)
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3: %v", len(spans), spans)
	}
	if spans[0].Kind != "straggler" || spans[1].Kind != "link-degrade" || spans[2].Kind != "link-fail" {
		t.Fatalf("span order wrong: %v", spans)
	}
	if spans[1].End != 1.0 { // lint:float-exact clip assigns the horizon literal
		t.Fatalf("open-ended span end = %g, want horizon", spans[1].End)
	}
	if spans[2].Start != 0.9 || spans[2].End != 1.0 { // lint:float-exact copied literals
		t.Fatalf("failure span = [%g,%g], want [0.9,1]", spans[2].Start, spans[2].End)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	opts := ScenarioOptions{Degrades: 3, Stragglers: 2, LinkFails: 1, ChipFails: 1, MaxFactor: 6, Horizon: 2}
	a := Generate(42, 32, opts)
	b := Generate(42, 32, opts)
	if a.Canonical() != b.Canonical() {
		t.Fatalf("same seed produced different plans:\n%s\nvs\n%s", a.Canonical(), b.Canonical())
	}
	c := Generate(43, 32, opts)
	if a.Canonical() == c.Canonical() {
		t.Fatal("different seeds produced identical plans")
	}
	if err := a.Validate(32); err != nil {
		t.Fatalf("generated plan invalid: %v", err)
	}
	d, s, lf, cf := a.Events()
	if d != 3 || s != 2 || lf != 1 || cf != 1 {
		t.Fatalf("event counts = (%d,%d,%d,%d), want (3,2,1,1)", d, s, lf, cf)
	}
}

func TestGenerateDefaults(t *testing.T) {
	p := Generate(7, 16, ScenarioOptions{})
	if err := p.Validate(16); err != nil {
		t.Fatalf("default scenario invalid: %v", err)
	}
	d, s, lf, cf := p.Events()
	if d != 2 || s != 1 || lf != 0 || cf != 0 {
		t.Fatalf("default counts = (%d,%d,%d,%d), want (2,1,0,0)", d, s, lf, cf)
	}
	if p.WorstLinkFactor() < 1.5 || p.WorstComputeFactor() < 1.5 {
		t.Fatalf("default factors below generator floor: link %g compute %g",
			p.WorstLinkFactor(), p.WorstComputeFactor())
	}
}

func TestMeshFaultsValidate(t *testing.T) {
	const chips = 16
	for _, ok := range []MeshFaults{
		{},
		{
			Delays:    []EdgeDelay{{From: 12, To: 15, Yields: 2}, {From: 15, To: 14, Yields: 2}},
			Drops:     []EdgeDrop{{From: 0, To: 4}},
			ChipFails: []MeshChipFail{{Chip: 9}},
		},
		// Multi-hop edges are legal: Chip.Send reaches any chip.
		{Drops: []EdgeDrop{{From: 0, To: 15, Nth: 3}}, Delays: []EdgeDelay{{From: 15, To: 0}}},
	} {
		if err := ok.Validate(chips); err != nil {
			t.Errorf("%+v rejected: %v", ok, err)
		}
	}
	if err := (*MeshFaults)(nil).Validate(chips); err != nil {
		t.Errorf("nil faults rejected: %v", err)
	}
	for _, bad := range []MeshFaults{
		{ChipFails: []MeshChipFail{{Chip: 16}}},
		{ChipFails: []MeshChipFail{{Chip: -1}}},
		{ChipFails: []MeshChipFail{{Chip: 3, AfterSends: -1}}},
		{Drops: []EdgeDrop{{From: 0, To: 99, Nth: 1}}},
		{Drops: []EdgeDrop{{From: -1, To: 1}}},
		{Drops: []EdgeDrop{{From: 4, To: 4}}},
		{Drops: []EdgeDrop{{From: 0, To: 1, Nth: -1}}},
		{Delays: []EdgeDelay{{From: 16, To: 0, Yields: 1}}},
		{Delays: []EdgeDelay{{From: 2, To: 2, Yields: 1}}},
		{Delays: []EdgeDelay{{From: 0, To: 1, Yields: -2}}},
	} {
		err := bad.Validate(chips)
		if err == nil || !strings.HasPrefix(err.Error(), "fault: ") {
			t.Errorf("%+v: err = %v, want a fault: error", bad, err)
		}
	}
}
