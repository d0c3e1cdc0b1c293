package netsim

import (
	"fmt"

	"meshslice/internal/sched"
)

// Critical-path attribution: the machine-checkable counterpart of the
// paper's Fig. 4 timeline decomposition. The simulator records, for every
// (chip, op) execution, which instance's completion event triggered its
// start (Options.CriticalPath). Because grants happen synchronously inside
// the triggering completion's event callback, each instance's start time
// equals its cause's end time, so following the cause chain backwards from
// the last-finishing instance yields a gapless chain of executions from
// time zero to the makespan. Summing each link's duration — split into the
// paper's launch/sync/transfer/compute cost components — attributes the
// entire end-to-end step time, and the components reconstruct the makespan
// to within float summation error.

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
	for id := last; id >= 0; id = s.causeOf[id] {
		chip, opIdx := id/n, id%n
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
	}
	// Reverse into chronological order.
	for i, j := 0, len(cp.Steps)-1; i < j; i, j = i+1, j-1 {
		cp.Steps[i], cp.Steps[j] = cp.Steps[j], cp.Steps[i]
	}
	if len(cp.Steps) > 0 && cp.Steps[0].Start != 0 { // lint:float-exact the chain's root is scheduled at literal t=0; any drift means a recording gap
		// The chain must reach time zero; anything else means a recording
		// gap, which would silently misattribute time.
		panic(fmt.Sprintf("netsim: critical path starts at %g, not 0", cp.Steps[0].Start)) // lint:invariant gapless-chain postcondition
	}
	return cp
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
	per := op.Bytes / s.hw.LinkBandwidth
	if op.Kind == sched.Broadcast || op.Kind == sched.Reduce {
		per = op.Bytes / float64(op.Packets) / s.hw.LinkBandwidth
	}
	launch := s.hw.LaunchOverhead
	sync := steps * s.hw.SyncLatency
	transfer := steps * per
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
