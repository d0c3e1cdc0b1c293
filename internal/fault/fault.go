// Package fault models hardware misbehaviour for the MeshSlice stack: a
// deterministic, seeded fault plan — degraded links, straggler chips, link
// and chip failures — consumed by three layers:
//
//   - the cluster simulator (package netsim) stretches ring steps over
//     degraded links and compute on straggler chips, and either halts the
//     program with a typed diagnosis or re-routes rings around dead links;
//   - the functional SPMD runtime (package mesh) perturbs goroutine
//     scheduling on degraded edges and drops messages on failed ones,
//     proving the collectives' numerical results survive delays and that
//     losses are detected as typed errors, not deadlocks;
//   - the autotuner (package autotune) re-runs its search with the plan
//     applied, quantifying how far a stale healthy-fabric plan falls behind
//     a fault-aware one.
//
// Everything here is pure data plus deterministic arithmetic: the same plan
// yields byte-identical fault schedules, simulated makespans and metric
// snapshots on every run (the package is free of wall-clock reads and
// global randomness; the scenario generator threads an explicitly seeded
// *rand.Rand).
package fault

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"meshslice/internal/hw"
	"meshslice/internal/topology"
)

// Link identifies one chip's link controller in a mesh direction — the
// unit the simulator's communication model serialises traffic on. A ring
// collective is gated by the slowest link among its members, so degrading
// one Link stretches every collective whose ring crosses it.
type Link struct {
	Chip int
	Dir  topology.Direction
}

func (l Link) String() string { return fmt.Sprintf("chip %d %v", l.Chip, l.Dir) }

// LinkDegrade stretches the wire time of one link by Factor while active.
// The interval is [Start, End); End <= 0 means the degradation never lifts.
type LinkDegrade struct {
	Link   Link
	Factor float64
	Start  float64
	End    float64
}

// Straggler stretches compute on one chip by Slowdown while active (a
// thermally throttled or misbehaving chip). The interval is [Start, End);
// End <= 0 means the chip never recovers.
type Straggler struct {
	Chip     int
	Slowdown float64
	Start    float64
	End      float64
}

// LinkFail kills one link at time At: rings that cross it can no longer
// complete a step, so collectives either halt with a diagnosis or — when
// re-routing is enabled — detour the long way around the ring.
type LinkFail struct {
	Link Link
	At   float64
}

// ChipFail fail-stops one chip at time At: operations that would start on
// it at or after At never do, and every ring barrier it participates in
// stays unreleased.
type ChipFail struct {
	Chip int
	At   float64
}

// Plan is a complete fault schedule. The zero value is the healthy fabric:
// every consumer treats an empty plan as a provable no-op.
type Plan struct {
	Degrades   []LinkDegrade
	Stragglers []Straggler
	LinkFails  []LinkFail
	ChipFails  []ChipFail
}

// Empty reports whether the plan carries no events at all.
func (p *Plan) Empty() bool {
	return p == nil ||
		len(p.Degrades) == 0 && len(p.Stragglers) == 0 &&
			len(p.LinkFails) == 0 && len(p.ChipFails) == 0
}

// Validate checks every event against the cluster size: chips in range,
// stretch factors finite and at least 1, event times finite and
// non-negative, intervals ordered.
func (p *Plan) Validate(chips int) error {
	if p == nil {
		return nil
	}
	checkLink := func(kind string, l Link) error {
		if l.Chip < 0 || l.Chip >= chips {
			return fmt.Errorf("fault: %s chip %d outside [0,%d)", kind, l.Chip, chips)
		}
		switch l.Dir {
		case topology.InterRow, topology.InterCol, topology.InterDepth:
			return nil
		}
		return fmt.Errorf("fault: %s has unknown direction %d", kind, int(l.Dir))
	}
	checkWindow := func(kind string, start, end float64) error {
		if !finite(start) || !finite(end) {
			return fmt.Errorf("fault: %s window [%g,%g) is not finite", kind, start, end)
		}
		if start < 0 {
			return fmt.Errorf("fault: %s starts at %g, before time zero", kind, start)
		}
		if end > 0 && end <= start {
			return fmt.Errorf("fault: %s window [%g,%g) is empty", kind, start, end)
		}
		return nil
	}
	for _, d := range p.Degrades {
		if err := checkLink("link-degrade", d.Link); err != nil {
			return err
		}
		if !finite(d.Factor) || d.Factor < 1 {
			return fmt.Errorf("fault: link-degrade factor %g on %v: want a finite factor >= 1", d.Factor, d.Link)
		}
		if err := checkWindow("link-degrade", d.Start, d.End); err != nil {
			return err
		}
	}
	for _, s := range p.Stragglers {
		if s.Chip < 0 || s.Chip >= chips {
			return fmt.Errorf("fault: straggler chip %d outside [0,%d)", s.Chip, chips)
		}
		if !finite(s.Slowdown) || s.Slowdown < 1 {
			return fmt.Errorf("fault: straggler slowdown %g on chip %d: want a finite factor >= 1", s.Slowdown, s.Chip)
		}
		if err := checkWindow("straggler", s.Start, s.End); err != nil {
			return err
		}
	}
	for _, f := range p.LinkFails {
		if err := checkLink("link-fail", f.Link); err != nil {
			return err
		}
		if !finite(f.At) || f.At < 0 {
			return fmt.Errorf("fault: link-fail on %v at %g: want a finite time >= 0", f.Link, f.At)
		}
	}
	for _, f := range p.ChipFails {
		if f.Chip < 0 || f.Chip >= chips {
			return fmt.Errorf("fault: chip-fail chip %d outside [0,%d)", f.Chip, chips)
		}
		if !finite(f.At) || f.At < 0 {
			return fmt.Errorf("fault: chip-fail on chip %d at %g: want a finite time >= 0", f.Chip, f.At)
		}
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// active reports whether a [start, end) window (end <= 0 open-ended)
// covers time t.
func active(start, end, t float64) bool {
	return t >= start && (end <= 0 || t < end)
}

const numDirs = 3 // link directions per chip: link l's group is l.Chip*numDirs + l.Dir

// Index is a validated Plan compiled for the simulator's lookups: one CSR
// slab groups degrades by link, stragglers by chip, link and chip failures
// likewise, each group in plan order, so a lookup scans one group.
type Index struct {
	links, chips int
	off          []int32  // group k's events are win[off[k]:off[k+1]]
	win          []window // every event, grouped
	uniform      bool
}

type window struct{ factor, start, end float64 } // a failure's time is its start

// Index validates the plan against the cluster size and compiles it. An
// empty plan compiles to nil, the healthy fabric.
func (p *Plan) Index(chips int) (*Index, error) {
	if err := p.Validate(chips); err != nil || p.Empty() {
		return nil, err
	}
	links := chips * numDirs
	x := &Index{links: links, chips: chips, off: make([]int32, 2*(links+chips)+2),
		win: make([]window, len(p.Degrades)+len(p.Stragglers)+len(p.LinkFails)+len(p.ChipFails))}
	// Counting sort: group k's count goes to off[k+2]; after the prefix sums
	// off[k+1] is group k's cursor, which placing moves to the group's end.
	p.groups(links, chips, func(k int, _ window) { x.off[k+2]++ })
	for k := 2; k < len(x.off); k++ {
		x.off[k] += x.off[k-1]
	}
	p.groups(links, chips, func(k int, w window) {
		x.win[x.off[k+1]] = w
		x.off[k+1]++
	})
	// Uniform: nothing fails and every group equals chip 0's of its kind.
	x.uniform = len(p.LinkFails)+len(p.ChipFails) == 0
	for k := numDirs; k < links+chips && x.uniform; k++ {
		ref := k % numDirs
		if k >= links {
			ref = links
		}
		x.uniform = slices.Equal(x.group(k), x.group(ref))
	}
	return x, nil
}

// groups visits every event with its group key, in plan order.
func (p *Plan) groups(links, chips int, visit func(k int, w window)) {
	for _, d := range p.Degrades {
		visit(linkKey(d.Link), window{d.Factor, d.Start, d.End})
	}
	for _, s := range p.Stragglers {
		visit(links+s.Chip, window{s.Slowdown, s.Start, s.End})
	}
	for _, f := range p.LinkFails {
		visit(links+chips+linkKey(f.Link), window{start: f.At})
	}
	for _, f := range p.ChipFails {
		visit(2*links+chips+f.Chip, window{start: f.At})
	}
}

func linkKey(l Link) int { return l.Chip*numDirs + int(l.Dir) }

func (x *Index) group(k int) []window { return x.win[x.off[k]:x.off[k+1]] }

// Uniform reports whether nothing fails and each chip's degrade windows per
// direction and straggler windows equal chip 0's, in plan order: every factor
// then depends only on the time and the direction, the same on every chip.
func (x *Index) Uniform() bool { return x.uniform }

// worst is the largest factor among the windows active at t, or 1.
func worst(ws []window, t float64) float64 {
	f := 1.0
	for _, w := range ws {
		if active(w.start, w.end, t) && w.factor > f {
			f = w.factor
		}
	}
	return f
}

// LinkFactor returns the wire-time stretch of the link at time t: the
// worst active degradation, or 1 on a healthy link. Consumers sample the
// factor at op (or ring-step) start, matching the contention model's
// first-order processor-sharing approximation.
func (x *Index) LinkFactor(l Link, t float64) float64 { return worst(x.group(linkKey(l)), t) }

// ComputeFactor returns the compute stretch of the chip at time t: the
// worst active straggler slowdown, or 1 on a healthy chip.
func (x *Index) ComputeFactor(chip int, t float64) float64 { return worst(x.group(x.links+chip), t) }

// failedBy reports whether a failure of group k has struck by time t.
func (x *Index) failedBy(k int, t float64) bool {
	for _, w := range x.group(k) {
		if w.start <= t {
			return true
		}
	}
	return false
}

// ChipFailedBy reports whether the chip has fail-stopped by time t.
func (x *Index) ChipFailedBy(chip int, t float64) bool {
	return x.failedBy(2*x.links+x.chips+chip, t)
}

// FailedRingLinks counts the dead links among the ring members' link
// controllers in the given direction at time t, returning the lowest-rank
// affected chip (deterministic diagnosis) and the count. One dead link
// still leaves a re-route path; two or more partition the ring.
func (x *Index) FailedRingLinks(members []int, d topology.Direction, t float64) (chip, n int) {
	chip = -1
	for _, m := range members {
		if x.failedBy(x.links+x.chips+linkKey(Link{Chip: m, Dir: d}), t) {
			if chip < 0 || m < chip {
				chip = m
			}
			n++
		}
	}
	return chip, n
}

// WorstLinkFactor returns the plan's largest link degradation factor over
// all links and times (1 for a plan without degradations) — the
// conservative steady-state figure the degradation-aware autotuner feeds
// the analytical cost model.
func (p *Plan) WorstLinkFactor() float64 {
	f := 1.0
	if p == nil {
		return f
	}
	for _, d := range p.Degrades {
		if d.Factor > f {
			f = d.Factor
		}
	}
	return f
}

// WorstComputeFactor returns the plan's largest straggler slowdown (1 for
// a plan without stragglers).
func (p *Plan) WorstComputeFactor() float64 {
	f := 1.0
	if p == nil {
		return f
	}
	for _, s := range p.Stragglers {
		if s.Slowdown > f {
			f = s.Slowdown
		}
	}
	return f
}

// EffectiveChip returns the hardware calibration as the plan's worst-case
// degraded fabric sees it: link bandwidth divided by the worst link
// degradation and sustained compute throughput divided by the worst
// straggler slowdown. PeakFLOPS is untouched so utilisation keeps its
// healthy denominator. This is the first-order analytical view; the
// fault-aware autotuner refines it by simulating candidates under the full
// plan.
func (p *Plan) EffectiveChip(c hw.Chip) hw.Chip {
	c.LinkBandwidth /= p.WorstLinkFactor()
	c.EffFLOPS /= p.WorstComputeFactor()
	return c
}

// Span is one fault interval clipped to a simulation horizon, for trace
// export and reports. Dir is meaningful for the link kinds only.
type Span struct {
	Kind   string // "link-degrade", "straggler", "link-fail", "chip-fail"
	Chip   int
	Dir    topology.Direction
	Factor float64 // stretch factor (0 for failures)
	Start  float64
	End    float64
}

// Spans returns every fault event as an interval clipped to [0, horizon],
// sorted by (Start, Kind, Chip, Dir) so the result is deterministic
// regardless of plan slice order. Events starting after the horizon are
// dropped; open-ended windows and failures extend to the horizon.
func (p *Plan) Spans(horizon float64) []Span {
	if p.Empty() {
		return nil
	}
	clip := func(start, end float64) (float64, float64, bool) {
		if start > horizon {
			return 0, 0, false
		}
		if end <= 0 || end > horizon {
			end = horizon
		}
		return start, end, end >= start
	}
	out := make([]Span, 0, len(p.Degrades)+len(p.Stragglers)+len(p.LinkFails)+len(p.ChipFails))
	for _, d := range p.Degrades {
		if s, e, ok := clip(d.Start, d.End); ok {
			out = append(out, Span{Kind: "link-degrade", Chip: d.Link.Chip, Dir: d.Link.Dir, Factor: d.Factor, Start: s, End: e})
		}
	}
	for _, st := range p.Stragglers {
		if s, e, ok := clip(st.Start, st.End); ok {
			out = append(out, Span{Kind: "straggler", Chip: st.Chip, Factor: st.Slowdown, Start: s, End: e})
		}
	}
	for _, f := range p.LinkFails {
		if s, e, ok := clip(f.At, 0); ok {
			out = append(out, Span{Kind: "link-fail", Chip: f.Link.Chip, Dir: f.Link.Dir, Start: s, End: e})
		}
	}
	for _, f := range p.ChipFails {
		if s, e, ok := clip(f.At, 0); ok {
			out = append(out, Span{Kind: "chip-fail", Chip: f.Chip, Start: s, End: e})
		}
	}
	slices.SortFunc(out, func(a, b Span) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), strings.Compare(a.Kind, b.Kind), cmp.Compare(a.Chip, b.Chip), cmp.Compare(a.Dir, b.Dir))
	})
	if len(out) == 0 {
		return nil
	}
	return out
}

// Canonical renders the plan as a sorted, newline-terminated schedule —
// the byte-identical form the determinism checks compare. Two plans with
// the same events in any slice order produce the same canonical text.
func (p *Plan) Canonical() string {
	if p.Empty() {
		return "(healthy fabric)\n"
	}
	var lines []string
	for _, d := range p.Degrades {
		lines = append(lines, fmt.Sprintf("link-degrade chip=%d dir=%v factor=%g start=%g end=%s",
			d.Link.Chip, d.Link.Dir, d.Factor, d.Start, endString(d.End)))
	}
	for _, s := range p.Stragglers {
		lines = append(lines, fmt.Sprintf("straggler chip=%d slowdown=%g start=%g end=%s",
			s.Chip, s.Slowdown, s.Start, endString(s.End)))
	}
	for _, f := range p.LinkFails {
		lines = append(lines, fmt.Sprintf("link-fail chip=%d dir=%v at=%g", f.Link.Chip, f.Link.Dir, f.At))
	}
	for _, f := range p.ChipFails {
		lines = append(lines, fmt.Sprintf("chip-fail chip=%d at=%g", f.Chip, f.At))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

func endString(end float64) string {
	if end <= 0 {
		return "open"
	}
	return fmt.Sprintf("%g", end)
}

// Events returns the total event count by type, in a fixed order suitable
// for metric publication: degrades, stragglers, link fails, chip fails.
func (p *Plan) Events() (degrades, stragglers, linkFails, chipFails int) {
	if p == nil {
		return 0, 0, 0, 0
	}
	return len(p.Degrades), len(p.Stragglers), len(p.LinkFails), len(p.ChipFails)
}
