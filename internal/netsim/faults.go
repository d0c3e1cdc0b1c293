package netsim

import (
	"fmt"

	"meshslice/internal/fault"
	"meshslice/internal/sched"
	"meshslice/internal/topology"
)

// Fault-model integration: Options.Faults threads a deterministic
// fault.Plan through the simulator. Degraded links stretch ring steps,
// stragglers stretch compute, and failures either halt the program with a
// typed Result.Failed diagnosis or — with Options.FaultReroute — detour
// around a single dead ring link at (P-1)× the wire cost. Every factor is
// sampled at op (or ring-step) start, matching the contention model's
// first-order approximation, and every hook short-circuits on a nil plan
// so a healthy run is byte-identical to a fault-free build.

// FailureKind classifies a simulated failure.
type FailureKind int

const (
	// FailChip is a fail-stopped chip: an operation was granted to it at
	// or after its failure time.
	FailChip FailureKind = iota
	// FailLink is a dead link partitioning a ring: a collective could not
	// complete a step across it (and re-routing was off or impossible).
	FailLink
)

func (k FailureKind) String() string {
	if k == FailChip {
		return "chip-fail"
	}
	return "link-fail"
}

// Failure is the typed diagnosis of a halted simulation: the first fault
// the program actually hit (event order makes "first" deterministic).
type Failure struct {
	// Kind classifies the failure.
	Kind FailureKind
	// Chip is the failed chip, or the lowest-rank ring member whose link
	// died.
	Chip int
	// Dir is the dead link's direction (FailLink only).
	Dir topology.Direction
	// Op indexes the program op that first observed the failure; OpName is
	// its label.
	Op     int
	OpName string
	// At is the simulated time of detection.
	At float64
}

// Error renders the diagnosis; Failure satisfies the error interface so
// callers can propagate it directly.
func (f *Failure) Error() string {
	if f.Kind == FailChip {
		return fmt.Sprintf("netsim: chip %d failed — op %d (%s) stranded at t=%gs", f.Chip, f.Op, f.OpName, f.At)
	}
	return fmt.Sprintf("netsim: %v link on chip %d dead — op %d (%s) cannot cross the ring at t=%gs",
		f.Dir, f.Chip, f.Op, f.OpName, f.At)
}

// recordFailure keeps the first failure observed; events run in time
// order, so the first call is the earliest fault the program hits.
func (s *sim) recordFailure(kind FailureKind, chip int, dir topology.Direction, opIdx int, op *sched.Op) {
	if s.failure != nil {
		return
	}
	s.failure = &Failure{
		Kind: kind, Chip: chip, Dir: dir,
		Op: opIdx, OpName: op.Name, At: s.des.Now(),
	}
}

// faultComputeStretch returns the straggler slowdown for a compute op
// granted on the chip now (1 when healthy), accruing the fault accounting.
func (s *sim) faultComputeStretch(chip int, dur float64) float64 {
	if s.flt == nil {
		return 1
	}
	f := s.flt.ComputeFactor(chip, s.des.Now())
	if f > 1 {
		s.faultStretched++
		s.faultExtra += dur * (f - 1)
	}
	return f
}

// faultCommStretch returns the wire-time stretch for a ring operation
// starting now: the worst active degradation among the members' link
// controllers in the op's direction, times the (P-1)× detour cost when a
// single dead link is being re-routed around.
func (s *sim) faultCommStretch(members []int, op *sched.Op, dur float64) float64 {
	if s.flt == nil {
		return 1
	}
	now := s.des.Now()
	f := 1.0
	for _, m := range members {
		if lf := s.flt.LinkFactor(fault.Link{Chip: m, Dir: op.Dir}, now); lf > f {
			f = lf
		}
	}
	if s.opts.FaultReroute && len(members) > 2 {
		if _, n := s.flt.FailedRingLinks(members, op.Dir, now); n == 1 {
			f *= float64(len(members) - 1)
			s.faultReroutes++
		}
	}
	if f > 1 {
		s.faultStretched++
		s.faultExtra += dur * (f - 1)
	}
	return f
}

// faultHalt decides whether a ring collective can run at the current time:
// every member chip must be alive and the ring's links intact (or a single
// dead link re-routable). It returns the failure to record and true when
// the collective must halt.
func (s *sim) faultHalt(members []int, op *sched.Op) (FailureKind, int, bool) {
	if s.flt == nil || len(members) < 2 || op.Steps == 0 {
		return 0, 0, false
	}
	now := s.des.Now()
	dead := -1
	for _, m := range members {
		if s.flt.ChipFailedBy(m, now) && (dead < 0 || m < dead) {
			dead = m
		}
	}
	if dead >= 0 {
		return FailChip, dead, true
	}
	chipF, n := s.flt.FailedRingLinks(members, op.Dir, now)
	if n == 0 {
		return 0, 0, false
	}
	if s.opts.FaultReroute && n == 1 && len(members) > 2 {
		return 0, 0, false
	}
	return FailLink, chipF, true
}
