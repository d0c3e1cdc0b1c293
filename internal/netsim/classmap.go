package netsim

import "math"

// The single class's certificate: rank 0 stands for every chip only if each
// chip's order of same-instant actions yields its numbers. A ring starts
// when its last member arrives, so on some chip a ring release (and the
// event it schedules) may come after actions it preceded here; events that
// actions of uncertain order schedule onto one later instant may run in
// either order (tie marks them). endInstant replays such an instant in every
// allowed order: each must read the same contention factors, end on chip
// 0's sums and grant the same compute op. HBM demands may drift ulps apart
// across chips, so their range is carried and reads must agree across it. A
// failed check taints the run, and Simulate re-runs every chip.

// tieAction is one action of the representative: a ring release, a
// compute-engine start (a grant unless NoOverlap), a completion (whose
// demand reg hands back, clamped at zero), or a ring step or demand change;
// it may read the contention factor of the chip's demand plus own.
type tieAction struct {
	ev, mark                      int32      // the event it happened in, and that event's mark
	op, slot                      int        // its op, and the slot of the event it schedules (-1: none)
	ring, grant, done, late, read bool       // its kind, whether it may run late (see fixed), and whether it reads a factor
	own, reg, dur, factor         float64    // the demand the factor adds and the one it registers, its duration, the factor rank 0 read
	adds                          [3]float64 // its addends to chip 0's Sync, Transfer and comm-busy sums
}

// replayState is what the instant's actions change.
type replayState struct {
	lo, hi float64    // the range of the chips' HBM demands
	sums   [3]float64 // chip 0's Sync, Transfer and comm-busy sums
}

const maxOrders = 1 << 10 // the most orders a certified instant may have

// enter starts handling the event of slot, which takes over its mark, and
// closes the previous instant when the clock has moved on. Every action
// after time zero happens inside an event.
func (s *sim) enter(slot int) {
	if s.classSize == 1 {
		return
	}
	if now := s.des.Now(); now != s.tieAt { // lint:float-exact an instant is one exact timestamp
		s.endInstant()
		s.tieAt, s.ties, s.uncertain = now, s.ties[:0], false
		s.instant++
		s.hbm0, s.sums0 = s.hbmDemand[0], s.commSums
	}
	s.ev++
	s.evMark, s.marks[slot] = s.marks[slot], 0
}

// fixed reports whether every chip runs p before q, as the representative
// did. A grant in a marked event is late if its mark completed ops in an
// earlier event: those run in any order, so it may follow its own event.
func fixed(p, q *tieAction) bool {
	return !p.ring && (p.ev == q.ev && !p.late || p.mark == 0 || p.mark != q.mark)
}

// tie files an action of the instant and marks the events that actions of
// uncertain order schedule. A grant ending at its instant frees the engine,
// so another chip may grant the next op first; other chips interleave
// completions, so two of one kind and different durations taint Metrics.
func (s *sim) tie(a tieAction) {
	if s.classSize == 1 {
		return
	}
	a.ev, a.mark = s.ev, s.evMark
	s.tainted = s.tainted || a.grant && s.des.Now()+a.dur == s.des.Now() // lint:float-exact an instant is one exact timestamp
	for i := range s.ties {
		p := &s.ties[i]
		a.late = a.late || a.grant && a.mark != 0 && p.done && p.mark == a.mark && p.ev != a.ev
		s.tainted = s.tainted || p.done && a.done && s.opts.Metrics != nil && p.dur != a.dur && // lint:float-exact bit identity is the claim being certified
			s.prog.Ops[p.op].Kind == s.prog.Ops[a.op].Kind
		if fixed(p, &a) {
			continue
		}
		s.uncertain = true
		for _, slot := range [2]int{p.slot, a.slot} {
			if slot >= 0 {
				s.marks[slot] = s.instant
			}
		}
	}
	s.ties = append(s.ties, a)
}

// endInstant certifies the instant's actions and carries the HBM range on.
func (s *sim) endInstant() {
	start := replayState{s.hbmLo, s.hbmHi, s.sums0}
	if s.tainted || !s.uncertain && start.lo == start.hi { // lint:float-exact every chip holds the representative's demand
		s.hbmLo, s.hbmHi = s.hbmDemand[0], s.hbmDemand[0]
		return
	}
	if s.tainted = len(s.ties) > 64; s.tainted { // more than replayOrders can place
		return
	}
	ref := replayState{s.hbm0, s.hbm0, start.sums}
	for i := range s.ties {
		s.ties[i].factor = s.hbmFactor(ref.lo + s.ties[i].own)
		ref, _ = s.apply(&s.ties[i], ref)
	}
	s.refSums, s.orders = ref.sums, 0
	s.hbmLo, s.hbmHi = math.Inf(1), math.Inf(-1)
	s.tainted = !s.replayOrders(0, start)
	// A grant inside a marked event is the same in every order only if the
	// engine has no other ready op to pick.
	for i := range s.ties {
		if x := &s.ties[i]; x.grant && x.mark != 0 {
			for _, y := range s.order[resCompute][s.queues[resCompute].head:] {
				s.tainted = s.tainted || y != x.op && !s.granted[y] && s.ready(0, y)
			}
		}
	}
}

// apply runs action a on st, and reports whether a reads the
// representative's factor across the range (each step is monotone in the
// demand, so the range's ends bound every chip).
func (s *sim) apply(a *tieAction, st replayState) (replayState, bool) {
	ok := !a.read || s.hbmFactor(st.lo+a.own) == a.factor && s.hbmFactor(st.hi+a.own) == a.factor // lint:float-exact bit identity is the claim being certified
	st.lo, st.hi = addDemand(st.lo, a.reg, a.done), addDemand(st.hi, a.reg, a.done)
	accrue(&st.sums, a.adds)
	return st, ok
}

// replayOrders extends the placed actions in every allowed order, reports
// whether each matches the representative, and widens [hbmLo, hbmHi] to the
// demands the orders end on.
func (s *sim) replayOrders(placed uint64, st replayState) bool {
	n := len(s.ties)
	if placed == 1<<n-1 {
		s.orders++
		s.hbmLo, s.hbmHi = min(s.hbmLo, st.lo), max(s.hbmHi, st.hi)
		return s.orders <= maxOrders && st.sums == s.refSums // lint:float-exact bit identity is the claim being certified
	}
next:
	for j := 0; j < n; j++ {
		if placed&(1<<j) != 0 {
			continue
		}
		for i := 0; i < j; i++ {
			if placed&(1<<i) == 0 && fixed(&s.ties[i], &s.ties[j]) {
				continue next
			}
		}
		if next, ok := s.apply(&s.ties[j], st); !ok || !s.replayOrders(placed|1<<j, next) {
			return false
		}
	}
	return true
}
