// Package netsim is the cluster simulator: it executes an SPMD program
// (package sched) on every chip of the mesh over the discrete-event kernel
// (package des), modelling the TPUv4-like hardware of paper §4.1:
//
//   - one compute engine per chip (the two cores and their systolic arrays,
//     aggregated, with a roofline of effective FLOPS vs HBM bandwidth),
//   - one link controller per chip per mesh direction (the NIC drives the
//     four ICI links; ring traffic in a direction serialises on that
//     direction's controller while the two directions run in parallel),
//   - ring-synchronised collectives: a collective starts when every chip of
//     the ring has reached it and its links are free, each step paying the
//     synchronisation latency and the wire time of its payload,
//   - SUMMA-style broadcast/reduce pipelining with bubbles (P+D-2 stages of
//     fine-grain packets, Fig. 3 left),
//   - HBM contention between the compute engine and the NIC — the only
//     interference point in the paper's simulated TPU,
//   - an optional no-overlap mode reproducing current real TPU behaviour
//     (Table 3), in which each chip fully serialises communication and
//     computation.
//
// The simulator reports the makespan plus the per-chip communication-time
// breakdown (launch / sync / transfer) of Fig. 10 and the exposed
// (non-overlapped) communication time.
package netsim

import (
	"fmt"
	"math"
	"sort"

	"meshslice/internal/chipsim"
	"meshslice/internal/des"
	"meshslice/internal/fault"
	"meshslice/internal/hw"
	"meshslice/internal/obs"
	"meshslice/internal/sched"
	"meshslice/internal/topology"
)

// Options selects simulator behaviours.
type Options struct {
	// NoOverlap serialises every operation on a chip, modelling TPU
	// runtimes that cannot run AG/RdS collectives asynchronously with
	// computation (paper §5.3).
	NoOverlap bool
	// NoHBMContention disables the compute/NIC memory interference model
	// (ablation; the default models it).
	NoHBMContention bool
	// CollectTrace records chip 0's per-op execution history in
	// Result.Trace (for timeline rendering and debugging).
	CollectTrace bool
	// TraceAllChips records every chip's execution history in
	// Result.Traces — the whole-cluster counterpart of CollectTrace, for
	// Perfetto export and cross-chip skew analysis. Off by default: it
	// costs O(chips × ops) memory.
	TraceAllChips bool
	// CriticalPath runs the critical-path pass after the simulation: the
	// chain of op executions whose durations sum to the makespan, with
	// the time attributed to launch/sync/transfer/compute (the
	// machine-checkable counterpart of the paper's Fig. 4 decomposition).
	// Results land in Result.CritPath.
	CriticalPath bool
	// Metrics, when set, receives the simulation's telemetry (makespan,
	// per-chip busy times, overlap, op-duration histograms, kernel
	// statistics), labelled with the program's Label. See publishMetrics
	// for the metric inventory.
	Metrics *obs.Registry
	// FabricContention models running on a LOGICAL mesh mapped over a
	// shared fabric (GPU clusters, paper §6): when a chip's two
	// directions communicate concurrently they contend for the same
	// physical links, stretching both by this factor. Zero or one means a
	// physical mesh with independent per-direction links (the TPU case).
	FabricContention float64
	// StepLevel simulates ring AG/RdS/SendRecv collectives one
	// synchronised ring step at a time instead of as atomic operations:
	// more events, and contention sampled per step rather than per
	// operation. Equivalent to the atomic model on uncontended hardware.
	StepLevel bool
	// TiledCompute times compute ops with the tiled chip model (package
	// chipsim: 128×128 systolic tiles, scratchpad blocking, prefetch
	// pipelining) instead of the flat roofline, for ops that carry their
	// GeMM dimensions. Captures the reduced efficiency of fine-grained
	// partial GeMMs the paper measures in §5.3.1.
	TiledCompute bool
	// BidirectionalRings drives both directions of the bi-directional ICI
	// links for ring AG/RdS collectives (collective.AllGatherBidir): two
	// counter-rotating streams halve the synchronised step count to
	// ⌈(P-1)/2⌉. Current TPU runtimes only drive one direction (§5.3.1);
	// this option quantifies the headroom.
	BidirectionalRings bool
	// Faults injects a deterministic fault plan (package fault): degraded
	// links stretch ring steps, stragglers stretch compute, and failures
	// halt the program with a typed Result.Failed diagnosis. A nil or
	// empty plan is a provable no-op — every fault hook short-circuits. A
	// uniform plan (fault.Index.Uniform) keeps the one-class map unless
	// Metrics is set.
	Faults *fault.Plan
	// FaultReroute lets a ring collective survive a single dead link by
	// detouring its traffic the long way around the ring, at (P-1)× the
	// per-step wire cost. Two or more dead links on one ring still halt.
	FaultReroute bool
}

// Breakdown is the per-chip communication time split of paper Fig. 10.
type Breakdown struct {
	Launch   float64
	Sync     float64
	Transfer float64
}

// Total returns launch + sync + transfer.
func (b Breakdown) Total() float64 { return b.Launch + b.Sync + b.Transfer }

// Result summarises one simulation.
type Result struct {
	// Makespan is the end-to-end execution time of the program.
	Makespan float64
	// ComputeBusy is chip 0's total compute-engine busy time (including
	// HBM slowdowns).
	ComputeBusy float64
	// Comm is chip 0's nominal communication-time breakdown.
	Comm Breakdown
	// CommBusy is chip 0's actual link busy time — the nominal breakdown
	// stretched by HBM contention and barrier skew. This is what a trace
	// on real hardware would measure (Fig. 15 compares it to the model).
	CommBusy float64
	// ExposedComm is the part of chip 0's link busy time not covered by
	// concurrent computation — the communication cost that actually
	// extends the critical path.
	ExposedComm float64
	// Events is the number of simulated op completions (diagnostics).
	Events int
	// Trace is chip 0's execution history (only when
	// Options.CollectTrace is set).
	Trace Trace
	// Traces holds every chip's execution history, indexed by rank (only
	// when Options.TraceAllChips is set).
	Traces []Trace
	// CritPath is the critical-path attribution (only when
	// Options.CriticalPath is set).
	CritPath *CriticalPath
	// Failed is the typed diagnosis of the first fault that halted the
	// program (nil when the program ran to completion). A failed run's
	// Makespan is the time of the last event that did complete.
	Failed *Failure
	// FaultSpans lists the fault plan's intervals clipped to the makespan
	// (only when Options.Faults is a non-empty plan), for trace export.
	FaultSpans []fault.Span
}

const (
	resCompute   = 0
	resRowLink   = 1 // topology.InterRow traffic
	resColLink   = 2 // topology.InterCol traffic
	resDepthLink = 3 // topology.InterDepth traffic (3D programs)
	numRes       = 4
)

// Simulate runs the program on the hardware model and returns the result.
func Simulate(p *sched.Program, c hw.Chip, opts Options) Result {
	if err := p.Validate(); err != nil {
		panic(fmt.Sprintf("netsim: %v", err)) // lint:invariant program precondition
	}
	if err := c.Validate(); err != nil {
		panic(fmt.Sprintf("netsim: %v", err)) // lint:invariant program precondition
	}
	if f := opts.FabricContention; math.IsNaN(f) || math.IsInf(f, 0) || f < 0 {
		panic(fmt.Sprintf("netsim: fabric contention %g: want a finite factor >= 0", f)) // lint:invariant options precondition
	}
	flt, err := opts.Faults.Index(p.Chips())
	if err != nil {
		panic(fmt.Sprintf("netsim: %v", err)) // lint:invariant fault-plan precondition
	}
	classes := p.Chips()
	if oneClass(opts, flt) {
		classes = 1
	}
	s := newSim(p, c, opts, flt, classes)
	s.run()
	if s.tainted { // another chip's order could change a number
		s = newSim(p, c, opts, flt, p.Chips())
		s.run()
	}
	return s.result()
}

// oneClass reports whether rank 0 may stand for the mesh: no fault plan or a
// uniform one (faulted Metrics count per chip), no critical path, no fabric
// contention.
func oneClass(opts Options, flt *fault.Index) bool {
	return (flt == nil || flt.Uniform() && opts.Metrics == nil) && !opts.CriticalPath &&
		(opts.FabricContention <= 1 || opts.NoOverlap)
}

type sim struct {
	prog *sched.Program
	hw   hw.Chip
	core chipsim.Core
	opts Options
	des  *des.Simulator

	nChips, nOps int

	// The class map: chips of one class run one timeline bit for bit, so
	// only each class's representative, its lowest rank, is simulated, and
	// per-chip state is indexed by class. classes is 1 (rank 0 stands for
	// the mesh) or nChips (the identity); chip c's class is c % classes.
	// The single class's certificate (classmap.go) follows.
	classes, classSize        int
	ties                      []tieAction // the representative's actions at instant tieAt
	instant, ev, evMark       int32       // ordinals of the instant and the handled event; its mark
	marks                     []int32     // per slot: the mark its pending event inherits
	uncertain, tainted        bool        // an order of the instant is uncertain; one could change a number
	tieAt, hbm0, hbmLo, hbmHi float64     // the instant; rank 0's HBM demand as it began, and the chips' range
	sums0, refSums            [3]float64  // chip 0's sums as the instant began, and as rank 0 ends it
	orders                    int         // orders replayed

	// order[r] lists the ops that occupy resource r in program order, the
	// same on every chip.
	order [numRes][]int

	// Per-(class, op) slabs, indexed by instID. An instance is granted once
	// and is in flight at most once, so one slot per instance suffices:
	// dur carries the granted duration from grant to the completion event,
	// and arrived counts a ring barrier's arrivals in the slot of the
	// ring's first member.
	granted []bool
	done    []bool
	dur     []float64
	arrived []int
	steps   []ringSteps // StepLevel only: the collective in flight at a barrier slot

	queues []resQueue // [chip*numRes + resource]
	// rings[lane][chip] is the chip's ring in that direction (lane as in
	// commDirIndex), one slice shared by all members of the ring, or
	// soleRing under one class.
	rings      [numCommDirs][][]int
	completeFn func(int) // completeInst bound once: the handler of every completion event
	stepDoneFn func(int) // stepDone bound once: the handler of every ring-step event

	hbmDemand []float64 // active HBM demand per chip (bytes/s)

	// chip-0 accounting
	computeBusy   float64
	launch        float64    // the comm breakdown's Launch
	commSums      [3]float64 // the comm breakdown's Sync and Transfer, and the comm busy time
	commIntervals []interval
	compIntervals []interval
	events        int
	trace         Trace

	// all-chip accounting (cheap scalars, always tracked)
	computeBusyBy []float64              // per-class compute-engine busy time
	linkBusyBy    [][numCommDirs]float64 // per-class per-direction link busy time
	traces        []Trace                // per-chip traces (TraceAllChips)
	completed     []int                  // a single class's completions, observed in result once it stands

	// critical-path recording (only when Options.CriticalPath): per
	// (chip, op) instance the start/end times and the instance whose
	// completion triggered the start (-1 for ops started at time zero).
	startAt  []float64
	endAt    []float64
	causeOf  []int
	curCause int

	// durHists caches the per-kind op-duration histograms (Metrics only).
	durHists [8]*obs.Histogram

	// fault state: flt is the compiled plan, nil unless Options.Faults is
	// non-empty, so every fault hook short-circuits on a healthy fabric and
	// the run is byte-identical to one without the fault model compiled in.
	flt            *fault.Index
	failure        *Failure
	faultStretched int64   // ops/steps stretched by a fault factor
	faultExtra     float64 // seconds added by fault stretching
	faultReroutes  int64   // ring ops/steps that detoured a dead link
}

// numCommDirs is the number of link directions tracked per chip
// (topology.InterRow, InterCol, InterDepth).
const numCommDirs = 3

// resQueue is one chip's cursor into order[r]: every entry before head has
// been granted, so tryGrant resumes there instead of rescanning.
type resQueue struct {
	head int
	busy bool
}

type interval struct{ start, end float64 }

// ringSteps is a step-level collective in flight: its start time, the HBM
// demand registered on every member for the whole span, and the step now
// running.
type ringSteps struct {
	start, demand float64
	step          int
}

func newSim(p *sched.Program, c hw.Chip, opts Options, flt *fault.Index, classes int) *sim {
	n, nOps := classes, len(p.Ops)
	s := &sim{
		prog:      p,
		hw:        c,
		core:      chipsim.FromChip(c),
		opts:      opts,
		des:       des.New(),
		flt:       flt,
		nChips:    p.Chips(),
		nOps:      nOps,
		classes:   classes,
		classSize: p.Chips() / classes,
	}
	s.completeFn = s.completeInst
	s.hbmDemand = make([]float64, n)
	s.computeBusyBy = make([]float64, n)
	s.linkBusyBy = make([][numCommDirs]float64, n)
	if s.classSize > 1 {
		s.ties, s.instant, s.marks = make([]tieAction, 0, 8), 1, make([]int32, nOps)
		if opts.Metrics != nil {
			s.completed = make([]int, 0, nOps)
		}
	}
	s.curCause = -1
	if opts.CriticalPath {
		s.startAt = make([]float64, n*nOps)
		s.endAt = make([]float64, n*nOps)
		s.causeOf = make([]int, n*nOps)
		for i := range s.causeOf {
			s.causeOf[i] = -1
		}
	}

	// Per-op tables: the per-resource program order, carved from one slab,
	// and the ring table of each direction the program uses.
	var perRes [numRes]int
	nComm := 0
	for i := range p.Ops {
		op := &p.Ops[i]
		perRes[s.resourceOf(op)]++
		if op.Kind.IsComm() {
			nComm++
			if lane := commDirIndex(op.Dir); s.rings[lane] == nil {
				s.rings[lane] = soleRing
				if classes > 1 {
					s.rings[lane] = ringTable(p, op.Dir)
				}
			}
		}
	}
	orderSlab := make([]int, nOps)
	for r, off := 0, 0; r < numRes; r++ {
		s.order[r] = orderSlab[off : off : off+perRes[r]]
		off += perRes[r]
	}
	for i := range p.Ops {
		r := s.resourceOf(&p.Ops[i])
		s.order[r] = append(s.order[r], i) // within the capacity carved above
	}

	s.granted = make([]bool, n*nOps)
	s.done = make([]bool, n*nOps)
	s.dur = make([]float64, n*nOps)
	s.arrived = make([]int, n*nOps)
	if opts.StepLevel {
		s.steps = make([]ringSteps, n*nOps)
		s.stepDoneFn = s.stepDone
	}
	s.queues = make([]resQueue, n*numRes)

	// Chip 0 runs each op once, so its interval lists — and, when tracing,
	// every chip's trace — have a known final length.
	s.commIntervals = make([]interval, 0, nComm)
	s.compIntervals = make([]interval, 0, nOps-nComm)
	if opts.CollectTrace {
		s.trace = make(Trace, 0, nOps)
	}
	if opts.TraceAllChips {
		s.traces = make([]Trace, s.nChips)
		slab := make([]TraceEvent, s.nChips*nOps)
		for chip := range s.traces {
			s.traces[chip] = slab[chip*nOps : chip*nOps : (chip+1)*nOps]
		}
	}
	return s
}

// soleRing is every ring as one class simulates it: the representative.
var soleRing = [][]int{{0}}

// ringTable maps every chip to its ring in direction d: one RingMembers
// call per ring, the slice shared by all of the ring's members.
func ringTable(p *sched.Program, d topology.Direction) [][]int {
	table := make([][]int, p.Chips())
	for chip := range table {
		if table[chip] == nil {
			members := p.RingMembers(chip, d)
			for _, m := range members {
				table[m] = members
			}
		}
	}
	return table
}

// resourceOf maps an op to the chip resource it occupies.
func (s *sim) resourceOf(op *sched.Op) int {
	if s.opts.NoOverlap {
		return resCompute // everything serialises on one engine
	}
	if !op.Kind.IsComm() {
		return resCompute
	}
	switch op.Dir {
	case topology.InterRow:
		return resRowLink
	case topology.InterDepth:
		return resDepthLink
	default:
		return resColLink
	}
}

func (s *sim) run() {
	for chip := 0; chip < s.classes; chip++ {
		s.tryGrant(chip)
	}
	s.des.Run()
	s.endInstant()
	if s.failure != nil {
		// A recorded failure halts part of the program by design: stranded
		// ops never complete, and the typed diagnosis lands in
		// Result.Failed instead of a deadlock panic.
		return
	}
	// A stuck simulation (ops never completed) indicates a model bug.
	for id, done := range s.done {
		if !done {
			chip, i := id/s.nOps, id%s.nOps
			panic(fmt.Sprintf("netsim: deadlock — chip %d op %d (%s) never completed", chip, i, s.prog.Ops[i].Name)) // lint:invariant deadlock detector
		}
	}
}

// tryGrant advances every resource queue of the chip, granting ops whose
// dependencies are met.
//
// Link controllers issue strictly in program order: every chip of a ring
// must arrive at the same collective, and out-of-order arrival at two
// different barriers would deadlock the ring. The compute engine carries no
// barriers, so it may issue any ready op (earliest in program order first),
// which lets cheap slicing ops and partial GeMMs pipeline freely.
func (s *sim) tryGrant(chip int) {
	base := chip * s.nOps
	for r := 0; r < numRes; r++ {
		q := &s.queues[chip*numRes+r]
		order := s.order[r]
		strict := r != resCompute || s.opts.NoOverlap
		for !q.busy {
			for q.head < len(order) && s.granted[base+order[q.head]] {
				q.head++
			}
			op := -1
			for _, cand := range order[q.head:] {
				if s.granted[base+cand] {
					continue
				}
				if s.ready(base, cand) {
					op = cand
				}
				if strict || op >= 0 {
					break
				}
			}
			if op < 0 {
				break
			}
			s.granted[base+op] = true
			q.busy = true
			s.grant(chip, op)
		}
	}
}

// ready reports whether every dependency of the chip's op has completed
// (base is the chip's first instID).
func (s *sim) ready(base, opIdx int) bool {
	for _, d := range s.prog.Ops[opIdx].Deps {
		if !s.done[base+d] {
			return false
		}
	}
	return true
}

// grant starts op on its resource: compute ops run immediately; comm ops
// arrive at their ring barrier and start when the whole ring has arrived.
func (s *sim) grant(chip, opIdx int) {
	op := &s.prog.Ops[opIdx]
	if s.flt != nil && s.flt.ChipFailedBy(chip, s.des.Now()) {
		// A fail-stopped chip strands the op: the resource stays busy and
		// nothing downstream of it ever runs.
		s.recordFailure(FailChip, chip, op.Dir, opIdx, op)
		return
	}
	if !op.Kind.IsComm() {
		dur, own := s.computeDuration(chip, op)
		s.start(chip, opIdx, op, dur, own)
		return
	}
	members := s.rings[commDirIndex(op.Dir)][chip]
	barrier := s.instID(members[0], opIdx)
	s.arrived[barrier]++
	if s.arrived[barrier] < len(members) {
		return
	}
	// Last arrival: the collective starts now on every member.
	if kind, failedChip, halt := s.faultHalt(members, op); halt {
		// The ring cannot complete a step: every member's link controller
		// stays busy and the collective never finishes.
		s.recordFailure(kind, failedChip, op.Dir, opIdx, op)
		return
	}
	if s.opts.StepLevel && stepwiseKind(op.Kind) {
		s.runCollectiveSteps(members, opIdx, op)
		return
	}
	dur, own := s.commDuration(members, op)
	for _, m := range members {
		s.start(m, opIdx, op, dur, own)
	}
}

// start accounts the instance's start and schedules its completion: the
// duration waits in the instance's slot for completeInst to read back.
func (s *sim) start(chip, opIdx int, op *sched.Op, dur, own float64) {
	s.startAccounting(chip, opIdx, op, dur, own)
	id := s.instID(chip, opIdx)
	s.dur[id] = dur
	s.des.AfterCall(dur, s.completeFn, id)
}

// completeInst is the completion event of instance id.
func (s *sim) completeInst(id int) {
	s.enter(id)
	opIdx := id % s.nOps
	s.complete(id/s.nOps, opIdx, &s.prog.Ops[opIdx], s.dur[id])
}

// stepwiseKind reports whether the op decomposes into uniform synchronised
// ring steps (broadcast/reduce pipelines keep their closed-form model even
// in step-level mode; their per-chip roles differ by ring position).
func stepwiseKind(k sched.OpKind) bool {
	switch k {
	case sched.AllGather, sched.ReduceScatter, sched.Shift:
		return true
	}
	return false
}

// runCollectiveSteps simulates a ring collective one synchronised step at a
// time (the SST-like fidelity mode): each step pays t_sync plus the wire
// time of its payload, with HBM and fabric contention sampled per step
// rather than once for the whole operation. All ring members stay in
// lockstep — the defining property of ring AG/RdS on a torus (Fig. 3
// right) — so the steps form a chain of simultaneous events, each one a
// stepDone event on the ring's barrier slot.
func (s *sim) runCollectiveSteps(members []int, opIdx int, op *sched.Op) {
	// Register HBM demand for the whole span using the nominal rate.
	nominal := s.nominalCommDuration(op)
	demand := s.opHBMDemand(op, nominal)
	barrier := s.instID(members[0], opIdx)
	s.tie(tieAction{op: opIdx, slot: barrier, ring: true, read: !s.opts.NoHBMContention, own: demand, reg: demand})
	for _, m := range members {
		s.hbmDemand[m] = addDemand(s.hbmDemand[m], demand, false)
		// The collective starts for every member at barrier release; the
		// cause is the completion that unblocked the last arrival.
		s.noteStart(m, opIdx)
	}
	s.steps[barrier] = ringSteps{start: s.des.Now(), demand: demand}
	s.runStep(barrier, members, opIdx, op)
}

// runStep starts the next step of the collective in flight at barrier.
func (s *sim) runStep(barrier int, members []int, opIdx int, op *sched.Op) {
	t := s.steps[barrier].step
	if t > 0 {
		// A fault can strike mid-collective: re-check ring viability at
		// every step boundary (step 0 was vetted at barrier release).
		if kind, failedChip, halt := s.faultHalt(members, op); halt {
			s.recordFailure(kind, failedChip, op.Dir, opIdx, op)
			return
		}
	}
	dur := s.hw.SyncLatency + op.Bytes/s.hw.LinkBandwidth
	if t == 0 {
		dur += s.hw.LaunchOverhead
	}
	// Sample contention at this step's start: the worst ring member's
	// concurrent HBM draw, and fabric contention on logical meshes.
	worst := 1.0
	for _, m := range members {
		if s.opts.NoHBMContention {
			break
		}
		if total := s.hbmDemand[m]; total > s.hw.HBMBandwidth {
			if f := total / s.hw.HBMBandwidth; f > worst {
				worst = f
			}
		}
	}
	if f := s.fabricFactor(members, op); f > worst {
		worst = f
	}
	worst *= s.faultCommStretch(members, op, dur*worst)
	if t > 0 {
		s.tie(tieAction{op: opIdx, slot: barrier, read: !s.opts.NoHBMContention})
	}
	s.des.AfterCall(dur*worst, s.stepDoneFn, barrier)
}

// stepDone is the event ending a step of the collective in flight at
// barrier: it starts the next step, or completes the op on every member.
func (s *sim) stepDone(barrier int) {
	s.enter(barrier)
	opIdx := barrier % s.nOps
	op := &s.prog.Ops[opIdx]
	members := s.rings[commDirIndex(op.Dir)][barrier/s.nOps]
	st := &s.steps[barrier]
	if st.step++; st.step < s.effSteps(op) {
		s.runStep(barrier, members, opIdx, op)
		return
	}
	span := s.des.Now() - st.start
	for _, m := range members {
		// Withdraw the demand registered at the start before the shared
		// completion path withdraws its own estimate.
		back := s.opHBMDemand(op, span) - st.demand
		if s.classSize > 1 { // spares the identity map the argument copy
			s.tie(tieAction{op: opIdx, slot: -1, reg: back})
		}
		s.hbmDemand[m] = addDemand(s.hbmDemand[m], back, false)
		s.stepAccounting(m, opIdx, op, st.start, span)
		s.complete(m, opIdx, op, span)
	}
}

// stepAccounting is startAccounting's step-level counterpart, invoked at
// completion when the actual span is known (demand registration and start
// recording already happened at the collective's start).
func (s *sim) stepAccounting(chip, opIdx int, op *sched.Op, start, span float64) {
	s.noteBusy(chip, op, span)
	if s.opts.TraceAllChips {
		s.traces[chip] = append(s.traces[chip], TraceEvent{
			Op: opIdx, Name: op.Name, Kind: op.Kind, Dir: op.Dir,
			Start: start, End: start + span,
		})
	}
	if chip != 0 {
		return
	}
	if s.opts.CollectTrace {
		s.trace = append(s.trace, TraceEvent{
			Op: opIdx, Name: op.Name, Kind: op.Kind, Dir: op.Dir,
			Start: start, End: start + span,
		})
	}
	s.accrueComm(tieAction{op: opIdx, slot: -1}, op,
		float64(s.effSteps(op))*op.Bytes/s.hw.LinkBandwidth, span)
	s.commIntervals = append(s.commIntervals, interval{start, start + span})
}

// accrueComm adds a comm op's nominal parts (transfer: the caller's wire
// time) and its span to chip 0's breakdown, filing a with the certificate.
func (s *sim) accrueComm(a tieAction, op *sched.Op, transfer, span float64) {
	a.adds = [3]float64{float64(s.effSteps(op)) * s.hw.SyncLatency, transfer, span}
	s.tie(a)
	s.launch += s.hw.LaunchOverhead
	accrue(&s.commSums, a.adds)
}

// accrue adds Sync, Transfer and busy addends to chip 0's sums or a replay's.
func accrue(sums *[3]float64, adds [3]float64) {
	for k := range sums {
		sums[k] += adds[k]
	}
}

func (s *sim) complete(chip, opIdx int, op *sched.Op, dur float64) {
	s.events += s.classSize
	d := s.opHBMDemand(op, dur)
	if s.classSize > 1 { // spares the identity map the argument copy
		s.tie(tieAction{op: opIdx, slot: -1, done: true, reg: -d, dur: dur})
	}
	s.hbmDemand[chip] = addDemand(s.hbmDemand[chip], -d, true)
	s.queues[chip*numRes+s.resourceOf(op)].busy = false
	id := s.instID(chip, opIdx)
	s.done[id] = true
	// Everything granted while this completion unwinds — same-chip ops
	// whose deps or resource just freed, and ring collectives whose last
	// member just arrived — starts at this instant because of this
	// instance; record it as their critical-path cause.
	prevCause := s.curCause
	if s.opts.CriticalPath {
		s.endAt[id] = s.des.Now()
		s.curCause = id
	}
	if s.completed != nil {
		s.dur[id] = dur
		s.completed = append(s.completed, id)
	} else {
		s.observeDuration(op, dur)
	}
	s.tryGrant(chip)
	s.curCause = prevCause
}

// durationBuckets are the fixed histogram bounds for op durations, spanning
// microseconds (sync-dominated shifts) to tens of milliseconds (full-shard
// collectives and large partial GeMMs). Fixed bounds keep histograms
// mergeable across runs and PRs.
var durationBuckets = []float64{1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2}

// observeDuration records a completed op's duration in the per-kind
// histogram for each chip of its class (counts are integers, so the totals
// are deterministic).
func (s *sim) observeDuration(op *sched.Op, dur float64) {
	if s.opts.Metrics == nil {
		return
	}
	k := int(op.Kind)
	if k < 0 || k >= len(s.durHists) {
		return
	}
	if s.durHists[k] == nil {
		s.durHists[k] = s.opts.Metrics.Histogram("netsim_op_duration_seconds", durationBuckets,
			obs.L("prog", s.prog.Label), obs.L("kind", op.Kind.String()))
	}
	s.durHists[k].ObserveN(dur, s.classSize)
}

// computeDuration applies the compute model — the flat roofline (FLOPS vs
// HBM) or, in tiled mode, the chip-level tile/prefetch pipeline — and the
// contention model to a compute or slice op.
func (s *sim) computeDuration(chip int, op *sched.Op) (dur, own float64) {
	if s.opts.TiledCompute && op.M > 0 && op.N > 0 && op.K > 0 {
		r, err := s.core.GeMM(op.M, op.N, op.K)
		if err != nil {
			panic(fmt.Sprintf("netsim: tiled compute: %v", err)) // lint:invariant tile-shape precondition
		}
		dur = r.Time
	} else {
		dur = s.hw.GeMMTime(op.FLOPs)
		if hbm := op.HBMBytes / s.hw.HBMBandwidth; hbm > dur {
			dur = hbm
		}
	}
	dur *= s.faultComputeStretch(chip, dur)
	f, own := s.contentionFactor(chip, op, dur)
	return dur * f, own
}

// commDuration computes a collective/shift duration: nominal, stretched by
// the worst HBM contention among ring members (own as in contentionFactor)
// and — on logical meshes — by fabric contention when the other direction
// is concurrently active.
func (s *sim) commDuration(members []int, op *sched.Op) (dur, own float64) {
	dur = s.nominalCommDuration(op)
	worst := 1.0
	for _, m := range members {
		var f float64
		if f, own = s.contentionFactor(m, op, dur); f > worst {
			worst = f
		}
	}
	if f := s.fabricFactor(members, op); f > worst {
		worst = f
	}
	// Fault degradation divides the link's bandwidth, so it multiplies the
	// duration rather than competing with contention for the max.
	return dur * worst * s.faultCommStretch(members, op, dur*worst), own
}

// fabricFactor returns the logical-mesh contention stretch: the configured
// factor when any ring member's opposite-direction link is busy at op
// start, 1 otherwise (and always 1 on physical meshes).
func (s *sim) fabricFactor(members []int, op *sched.Op) float64 {
	if s.opts.FabricContention <= 1 || s.opts.NoOverlap {
		return 1
	}
	mine := s.resourceOf(op)
	for _, m := range members {
		for r := resRowLink; r < numRes; r++ {
			if r != mine && s.queues[m*numRes+r].busy {
				return s.opts.FabricContention
			}
		}
	}
	return 1
}

// nominalCommDuration implements the per-kind timing:
//
//	AG/RdS/Shift: t_launch + Steps·(t_sync + Bytes/bw)
//	Bcast/Reduce: t_launch + Steps·(t_sync + Bytes/(Packets·bw))
//
// where Steps already encodes P-1 ring steps or the P+D-2 pipeline stages.
func (s *sim) nominalCommDuration(op *sched.Op) float64 {
	per := op.Bytes / s.hw.LinkBandwidth
	if op.Kind == sched.Broadcast || op.Kind == sched.Reduce {
		per = op.Bytes / float64(op.Packets) / s.hw.LinkBandwidth
	}
	return s.hw.LaunchOverhead + float64(s.effSteps(op))*(s.hw.SyncLatency+per)
}

// effSteps returns the synchronised step count actually executed: halved
// for ring AG/RdS when both link directions are driven.
func (s *sim) effSteps(op *sched.Op) int {
	if s.opts.BidirectionalRings &&
		(op.Kind == sched.AllGather || op.Kind == sched.ReduceScatter) {
		return (op.Steps + 1) / 2
	}
	return op.Steps
}

// opHBMDemand is the op's HBM bandwidth draw while active: compute streams
// its operands; the NIC reads outgoing and writes incoming data.
func (s *sim) opHBMDemand(op *sched.Op, dur float64) float64 {
	if dur <= 0 {
		return 0
	}
	if op.Kind.IsComm() {
		wire := op.Bytes * float64(op.Steps)
		if op.Kind == sched.Broadcast || op.Kind == sched.Reduce {
			wire = op.Bytes * float64(op.Steps) / float64(op.Packets)
		}
		return 2 * wire / dur
	}
	return op.HBMBytes / dur
}

// contentionFactor stretches an op's duration when the chip's concurrent
// HBM demand (including this op) exceeds the HBM bandwidth. The demand is
// sampled at op start — a deliberate first-order approximation of
// processor-sharing, registered with the op so it is withdrawn at
// completion. own is the demand the op adds (zero when the model is off).
func (s *sim) contentionFactor(chip int, op *sched.Op, nominalDur float64) (factor, own float64) {
	if s.opts.NoHBMContention || s.opts.NoOverlap {
		return 1, 0
	}
	own = s.opHBMDemand(op, nominalDur)
	return s.hbmFactor(s.hbmDemand[chip] + own), own
}

// addDemand is demand d after registering reg, clamped at zero against float
// drift when a completion (done) hands it back; replays step through it too.
func addDemand(d, reg float64, done bool) float64 {
	if d += reg; done && d < 0 {
		return 0
	}
	return d
}

// hbmFactor is the stretch of an HBM demand total.
func (s *sim) hbmFactor(total float64) float64 {
	if total <= s.hw.HBMBandwidth {
		return 1
	}
	return total / s.hw.HBMBandwidth
}

// startAccounting registers HBM demand, the per-chip busy times and traces,
// and — on chip 0 — the time intervals and breakdown categories.
func (s *sim) startAccounting(chip, opIdx int, op *sched.Op, dur, own float64) {
	reg := s.opHBMDemand(op, dur)
	s.hbmDemand[chip] = addDemand(s.hbmDemand[chip], reg, false)
	now := s.des.Now()
	s.noteStart(chip, opIdx)
	s.noteBusy(chip, op, dur)
	if s.opts.TraceAllChips {
		s.traces[chip] = append(s.traces[chip], TraceEvent{
			Op: opIdx, Name: op.Name, Kind: op.Kind, Dir: op.Dir,
			Start: now, End: now + dur,
		})
	}
	if chip != 0 {
		return
	}
	if s.opts.CollectTrace {
		s.trace = append(s.trace, TraceEvent{
			Op: opIdx, Name: op.Name, Kind: op.Kind, Dir: op.Dir,
			Start: now, End: now + dur,
		})
	}
	a := tieAction{op: opIdx, slot: s.instID(chip, opIdx), ring: op.Kind.IsComm(), grant: !op.Kind.IsComm() && !s.opts.NoOverlap,
		read: !s.opts.NoHBMContention && !s.opts.NoOverlap, own: own, reg: reg, dur: dur}
	if op.Kind.IsComm() {
		per := op.Bytes / s.hw.LinkBandwidth
		if op.Kind == sched.Broadcast || op.Kind == sched.Reduce {
			per = op.Bytes / float64(op.Packets) / s.hw.LinkBandwidth
		}
		s.accrueComm(a, op, float64(s.effSteps(op))*per, dur)
		s.commIntervals = append(s.commIntervals, interval{now, now + dur})
	} else {
		s.tie(a)
		s.computeBusy += dur
		s.compIntervals = append(s.compIntervals, interval{now, now + dur})
	}
}

// instID packs a (chip, op) pair into the flat instance index of the
// per-instance slabs and the critical-path arrays.
func (s *sim) instID(chip, opIdx int) int { return chip*s.nOps + opIdx }

// noteStart records an op instance's start time and its cause — the
// instance whose completion event triggered this start — when the
// critical-path pass is enabled. Grants happen synchronously inside the
// triggering completion's event callback, so the start time always equals
// the cause's end time and the cause chain is gapless back to time zero.
func (s *sim) noteStart(chip, opIdx int) {
	if !s.opts.CriticalPath {
		return
	}
	id := s.instID(chip, opIdx)
	s.startAt[id] = s.des.Now()
	s.causeOf[id] = s.curCause
}

// noteBusy accrues the op's duration on the chip's busy-time accumulators.
func (s *sim) noteBusy(chip int, op *sched.Op, dur float64) {
	if op.Kind.IsComm() {
		s.linkBusyBy[chip][commDirIndex(op.Dir)] += dur
	} else {
		s.computeBusyBy[chip] += dur
	}
}

// commDirIndex maps a direction to its linkBusyBy lane.
func commDirIndex(d topology.Direction) int {
	switch d {
	case topology.InterRow:
		return 0
	case topology.InterDepth:
		return 2
	default:
		return 1
	}
}

func (s *sim) result() Result {
	sortTrace(s.trace)
	for chip := range s.traces {
		if k := chip % s.classes; k == chip {
			sortTrace(s.traces[chip])
		} else {
			s.traces[chip] = append(s.traces[chip], s.traces[k]...)
		}
	}
	for _, id := range s.completed {
		s.observeDuration(&s.prog.Ops[id%s.nOps], s.dur[id])
	}
	r := Result{
		Makespan:    s.des.Now(),
		ComputeBusy: s.computeBusy,
		Comm:        Breakdown{Launch: s.launch, Sync: s.commSums[0], Transfer: s.commSums[1]},
		CommBusy:    s.commSums[2],
		ExposedComm: exposed(s.commIntervals, s.compIntervals),
		Events:      s.events,
		Trace:       s.trace,
		Traces:      s.traces,
	}
	if s.opts.CriticalPath {
		cp := s.criticalPath()
		r.CritPath = &cp
	}
	if s.flt != nil {
		r.Failed = s.failure
		r.FaultSpans = s.opts.Faults.Spans(r.Makespan)
	}
	s.publishMetrics(r)
	return r
}

// publishMetrics writes the simulation's telemetry into Options.Metrics,
// labelled with the program label (plus chip/dir where applicable):
//
//	netsim_makespan_seconds      gauge   — end-to-end program time
//	netsim_ops_completed         counter — op completions across all chips
//	netsim_comm_seconds          gauge   — chip-0 nominal breakdown, by part
//	netsim_exposed_comm_seconds  gauge   — chip-0 non-overlapped comm time
//	netsim_overlap_fraction      gauge   — share of chip-0 link busy time
//	                                       hidden under computation
//	netsim_compute_busy_seconds  gauge   — per-chip compute-engine busy time
//	netsim_link_busy_seconds     gauge   — per-chip per-direction link busy
//	netsim_bubble_seconds        gauge   — per-chip compute idle (pipeline
//	                                       bubbles + exposed communication)
//	netsim_critpath_seconds      gauge   — critical-path attribution by part
//	netsim_op_duration_seconds   histogram — per-kind op durations
//	des_events_processed         counter — kernel events (via des)
//	des_queue_high_water         gauge   — kernel queue depth (via des)
func (s *sim) publishMetrics(r Result) {
	reg := s.opts.Metrics
	if reg == nil {
		return
	}
	prog := obs.L("prog", s.prog.Label)
	reg.Gauge("netsim_makespan_seconds", prog).Set(r.Makespan)
	reg.Counter("netsim_ops_completed", prog).AddInt(int64(r.Events))
	reg.Gauge("netsim_comm_seconds", prog, obs.L("part", "launch")).Set(r.Comm.Launch)
	reg.Gauge("netsim_comm_seconds", prog, obs.L("part", "sync")).Set(r.Comm.Sync)
	reg.Gauge("netsim_comm_seconds", prog, obs.L("part", "transfer")).Set(r.Comm.Transfer)
	reg.Gauge("netsim_exposed_comm_seconds", prog).Set(r.ExposedComm)
	overlap := 0.0
	if r.CommBusy > 0 {
		overlap = (r.CommBusy - r.ExposedComm) / r.CommBusy
	}
	reg.Gauge("netsim_overlap_fraction", prog).Set(overlap)
	// dirNames is indexed by the linkBusyBy lane (see commDirIndex).
	dirNames := [numCommDirs]string{topology.InterRow.String(), topology.InterCol.String(), topology.InterDepth.String()}
	for chip := 0; chip < s.nChips; chip++ {
		cl := obs.L("chip", obs.PadInt(chip, s.nChips))
		k := chip % s.classes
		reg.Gauge("netsim_compute_busy_seconds", prog, cl).Set(s.computeBusyBy[k])
		reg.Gauge("netsim_bubble_seconds", prog, cl).Set(r.Makespan - s.computeBusyBy[k])
		for d := 0; d < numCommDirs; d++ {
			if d == 2 && s.prog.Grid3 == nil {
				continue // depth lane only exists on 3D programs
			}
			reg.Gauge("netsim_link_busy_seconds", prog, cl,
				obs.L("dir", dirNames[d])).Set(s.linkBusyBy[k][d])
		}
	}
	if r.CritPath != nil {
		a := r.CritPath.Attribution
		reg.Gauge("netsim_critpath_seconds", prog, obs.L("part", "launch")).Set(a.Launch)
		reg.Gauge("netsim_critpath_seconds", prog, obs.L("part", "sync")).Set(a.Sync)
		reg.Gauge("netsim_critpath_seconds", prog, obs.L("part", "transfer")).Set(a.Transfer)
		reg.Gauge("netsim_critpath_seconds", prog, obs.L("part", "compute")).Set(a.Compute)
		reg.Gauge("netsim_critpath_hops", prog).Set(float64(len(r.CritPath.Steps)))
	}
	// Fault telemetry is only emitted when a plan is active, so healthy
	// snapshots stay byte-identical with fault-free builds:
	//
	//	netsim_fault_events        gauge   — plan event counts, by type
	//	netsim_fault_stretched_ops counter — ops/steps a fault factor stretched
	//	netsim_fault_extra_seconds gauge   — time added by fault stretching
	//	netsim_fault_reroutes      counter — ring ops/steps detoured around a
	//	                                     dead link
	//	netsim_failed              gauge   — 1 when the program halted
	if s.flt != nil {
		deg, str, lf, cf := s.opts.Faults.Events()
		reg.Gauge("netsim_fault_events", prog, obs.L("type", "link-degrade")).Set(float64(deg))
		reg.Gauge("netsim_fault_events", prog, obs.L("type", "straggler")).Set(float64(str))
		reg.Gauge("netsim_fault_events", prog, obs.L("type", "link-fail")).Set(float64(lf))
		reg.Gauge("netsim_fault_events", prog, obs.L("type", "chip-fail")).Set(float64(cf))
		reg.Counter("netsim_fault_stretched_ops", prog).AddInt(s.faultStretched)
		reg.Gauge("netsim_fault_extra_seconds", prog).Set(s.faultExtra)
		reg.Counter("netsim_fault_reroutes", prog).AddInt(s.faultReroutes)
		failed := 0.0
		if s.failure != nil {
			failed = 1
		}
		reg.Gauge("netsim_failed", prog).Set(failed)
	}
	s.des.PublishMetrics(reg, prog)
}

// exposed returns the measure of ∪comm minus its overlap with ∪compute.
func exposed(comm, compute []interval) float64 {
	cu := merge(comm)
	co := merge(compute)
	total := 0.0
	for _, iv := range cu {
		total += iv.end - iv.start
	}
	// Subtract pairwise overlaps between the two merged (disjoint) sets.
	j := 0
	for _, c := range cu {
		for j < len(co) && co[j].end <= c.start {
			j++
		}
		for k := j; k < len(co) && co[k].start < c.end; k++ {
			lo := maxf(c.start, co[k].start)
			hi := minf(c.end, co[k].end)
			if hi > lo {
				total -= hi - lo
			}
		}
	}
	if total < 0 {
		total = 0
	}
	return total
}

func merge(ivs []interval) []interval {
	if len(ivs) == 0 {
		return nil
	}
	sorted := append([]interval(nil), ivs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].start < sorted[j].start })
	out := sorted[:1] // merged in place: out never overtakes the read position
	for _, iv := range sorted[1:] {
		last := &out[len(out)-1]
		if iv.start <= last.end {
			if iv.end > last.end {
				last.end = iv.end
			}
		} else {
			out = append(out, iv)
		}
	}
	return out
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
