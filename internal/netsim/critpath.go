package netsim

import (
	"fmt"
	"slices"

	"meshslice/internal/sched"
	"meshslice/internal/topology"
)

// Critical-path attribution: the machine-checkable counterpart of the
// paper's Fig. 4 timeline decomposition. The simulator records, for every
// simulated (chip, op) execution, which instance's completion event
// triggered its start (Options.CriticalPath). Because grants happen
// synchronously inside the triggering completion's event callback, each
// instance's start time equals its cause's end time, so following the cause
// chain backwards from the last-finishing instance yields a gapless chain
// of executions from time zero to the makespan. Summing each link's
// duration — split into the paper's launch/sync/transfer/compute cost
// components — attributes the entire end-to-end step time, and the
// components reconstruct the makespan to within float summation error.
//
// On one class only rank 0 is simulated, and the chain is read off its
// records: every chip runs rank 0's timeline, a collective is released by
// its ring's highest rank, and the cause rule (noteStart) re-runs every
// chip when another chip could name a different cause.

// Attribution splits a span of simulated time into the paper's four cost
// components.
type Attribution struct {
	// Launch is per-operation host launch overhead on the path.
	Launch float64
	// Sync is ring-step synchronisation latency (and any barrier wait
	// folded into a collective's stretched duration).
	Sync float64
	// Transfer is wire time of payloads on the path.
	Transfer float64
	// Compute is compute-engine (and slice-copy) time on the path.
	Compute float64
}

// Total returns launch + sync + transfer + compute.
func (a Attribution) Total() float64 {
	return a.Launch + a.Sync + a.Transfer + a.Compute
}

// PathStep is one op execution on the critical path.
type PathStep struct {
	// Chip is the rank the execution ran on.
	Chip int
	// Op indexes the program's op list.
	Op int
	// Name is the op's label (copied for self-contained reports).
	Name string
	// Kind is the op's kind.
	Kind sched.OpKind
	// Start and End bound the execution in simulated seconds.
	Start, End float64
}

// CriticalPath is the chain of op executions that determines the makespan,
// with its time attributed to the four cost components.
type CriticalPath struct {
	// Attribution sums to the makespan (within float tolerance).
	Attribution Attribution
	// Steps lists the chain chronologically.
	Steps []PathStep
}

// criticalPath walks the recorded cause chain backwards from the
// last-finishing instance and attributes each link's duration.
func (s *sim) criticalPath() CriticalPath {
	n := len(s.prog.Ops)
	if n == 0 || s.nChips == 0 {
		return CriticalPath{}
	}
	// The path ends at the instance that finishes last; ties break to the
	// lowest instance id for determinism.
	last := 0
	for id := 1; id < len(s.endAt); id++ {
		if s.endAt[id] > s.endAt[last] { // lint:float-exact strict improvement keeps the lowest-id tie-break deterministic
			last = id
		}
	}
	var cp CriticalPath
	for chip, opIdx := last/n, last%n; ; {
		id := s.instID(chip%s.classes, opIdx)
		op := &s.prog.Ops[opIdx]
		start, end := s.startAt[id], s.endAt[id]
		s.attribute(op, end-start, &cp.Attribution)
		cp.Steps = append(cp.Steps, PathStep{
			Chip: chip, Op: opIdx, Name: op.Name, Kind: op.Kind,
			Start: start, End: end,
		})
		if len(cp.Steps) > len(s.endAt) {
			panic("netsim: critical-path cause chain has a cycle") // lint:invariant causes point strictly backwards in time
		}
		cause := s.causeOf[id]
		if cause < 0 {
			break
		}
		// The identity map records the cause's chip. On one class the cause
		// ran on the same chip, or, for a collective, on the ring member whose
		// arrival released it: the highest rank.
		next := cause / n
		if s.classes == 1 {
			next = chip
			if op.Kind.IsComm() {
				next = s.ringTop(chip, op.Dir)
			}
		}
		chip, opIdx = next, cause%n
	}
	// Reverse into chronological order.
	slices.Reverse(cp.Steps)
	if len(cp.Steps) > 0 && cp.Steps[0].Start != 0 { // lint:float-exact the chain's root is scheduled at literal t=0; any drift means a recording gap
		// The chain must reach time zero; anything else means a recording
		// gap, which would silently misattribute time.
		panic(fmt.Sprintf("netsim: critical path starts at %g, not 0", cp.Steps[0].Start)) // lint:invariant gapless-chain postcondition
	}
	return cp
}

// ringTop is the highest rank of the chip's ring in direction d.
func (s *sim) ringTop(chip int, d topology.Direction) int {
	g := topology.Torus3D{Rows: s.prog.Torus.Rows, Cols: s.prog.Torus.Cols, Depth: 1}
	if s.prog.Grid3 != nil {
		g = *s.prog.Grid3
	}
	row, col, layer := g.Coord(chip)
	switch d {
	case topology.InterRow:
		row = g.Rows - 1
	case topology.InterDepth:
		layer = g.Depth - 1
	default:
		col = g.Cols - 1
	}
	return g.Rank(row, col, layer)
}

// attribute splits one execution's duration into the four components. A
// compute or slice op is all compute. A communication op splits in the
// ratio of its nominal cost parts — launch overhead, per-step sync
// latency, per-step wire time — scaled to the actual (contention- and
// skew-stretched) duration, so barrier skew and HBM interference inflate
// the parts proportionally rather than vanishing from the total.
func (s *sim) attribute(op *sched.Op, dur float64, a *Attribution) {
	if !op.Kind.IsComm() {
		a.Compute += dur
		return
	}
	steps := float64(s.effSteps(op))
	launch := s.hw.LaunchOverhead
	sync := steps * s.hw.SyncLatency
	transfer := steps * s.wireTime(op)
	nominal := launch + sync + transfer
	if nominal <= 0 {
		// Degenerate calibration (all comm constants zero): the duration
		// can only be sync-like waiting.
		a.Sync += dur
		return
	}
	scale := dur / nominal
	a.Launch += launch * scale
	a.Sync += sync * scale
	a.Transfer += transfer * scale
}
