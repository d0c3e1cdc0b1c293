// Package des is a minimal discrete-event simulation kernel: a simulated
// clock and a time-ordered event queue. The cluster simulator (package
// netsim) drives chip compute engines, link controllers and ring barriers
// on top of it, playing the role SST plays in the paper's evaluation
// (§4.1).
//
// The queue is a binary heap over a plain []event, so scheduling and
// dispatch allocate nothing once the slice has reached its high-water
// capacity. An event is either a func() (Schedule, After) or a shared
// handler plus an integer argument (AfterCall), which spares a model one
// closure per event.
package des

import (
	"fmt"
	"math"

	"meshslice/internal/obs"
)

// Simulator owns the clock and the pending event queue.
type Simulator struct {
	now   float64
	queue []event // binary min-heap on (at, seq)
	seq   uint64

	// Kernel statistics (always tracked; publishing is opt-in).
	eventsRun      uint64
	queueHighWater int
}

// New returns a simulator at time zero with no pending events.
func New() *Simulator {
	return &Simulator{}
}

// Now returns the current simulated time in seconds.
func (s *Simulator) Now() float64 { return s.now }

// Schedule enqueues fn to run at absolute simulated time at. Events at the
// same time run in scheduling order (FIFO), which keeps runs deterministic.
// Scheduling in the past — or at NaN, which would corrupt the heap order
// because every comparison against it is false — is a programming error.
func (s *Simulator) Schedule(at float64, fn func()) {
	s.push(event{at: at, fn: fn})
}

// After enqueues fn to run delay seconds from now.
func (s *Simulator) After(delay float64, fn func()) {
	s.push(event{at: s.delayed(delay), fn: fn})
}

// AfterCall enqueues call(arg) to run delay seconds from now. It orders
// and validates exactly like After, but the handler is shared between
// events, so a model that keeps its per-event state in its own tables
// (indexed by arg) schedules without allocating.
func (s *Simulator) AfterCall(delay float64, call func(int), arg int) {
	s.push(event{at: s.delayed(delay), call: call, arg: arg})
}

func (s *Simulator) delayed(delay float64) float64 {
	if delay < 0 {
		panic(fmt.Sprintf("des: negative delay %g", delay)) // lint:invariant simulated-time precondition
	}
	return s.now + delay
}

// push stamps the event with the next sequence number and sifts it up from
// the end of the heap.
func (s *Simulator) push(ev event) {
	if math.IsNaN(ev.at) {
		panic("des: scheduling at NaN") // lint:invariant NaN compares false with everything and silently corrupts heap order
	}
	if ev.at < s.now {
		panic(fmt.Sprintf("des: scheduling at %g before now %g", ev.at, s.now)) // lint:invariant simulated-time precondition
	}
	s.seq++
	ev.seq = s.seq
	s.queue = append(s.queue, ev)
	q := s.queue
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
	if n := len(q); n > s.queueHighWater {
		s.queueHighWater = n
	}
}

// pop removes and returns the earliest event: the last element takes the
// root's place and sifts down.
func (s *Simulator) pop() event {
	q := s.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{} // drop the handler reference so a finished closure can be collected
	s.queue = q[:n]
	if n == 0 {
		return top
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && q[r].before(&q[child]) {
			child = r
		}
		if !q[child].before(&last) {
			break
		}
		q[i] = q[child]
		i = child
	}
	q[i] = last
	return top
}

// Run executes events in time order until the queue drains, and returns
// the final simulated time.
func (s *Simulator) Run() float64 {
	for len(s.queue) > 0 {
		ev := s.pop()
		s.now = ev.at
		s.eventsRun++
		if ev.call != nil {
			ev.call(ev.arg)
		} else {
			ev.fn()
		}
	}
	return s.now
}

// Pending returns the number of queued events (useful for detecting
// deadlocked models in tests).
func (s *Simulator) Pending() int { return len(s.queue) }

// EventsRun returns the number of events executed so far.
func (s *Simulator) EventsRun() uint64 { return s.eventsRun }

// QueueHighWater returns the maximum pending-queue depth observed.
func (s *Simulator) QueueHighWater() int { return s.queueHighWater }

// PublishMetrics writes the kernel's statistics into the registry:
//
//	des_events_processed  counter — events executed by Run
//	des_queue_high_water  gauge   — maximum pending-event queue depth
//
// Callers label the metrics with their workload identity so multiple
// simulations can share one registry.
func (s *Simulator) PublishMetrics(r *obs.Registry, labels ...obs.Label) {
	if r == nil {
		return
	}
	r.Counter("des_events_processed", labels...).AddInt(int64(s.eventsRun))
	r.Gauge("des_queue_high_water", labels...).SetMax(float64(s.queueHighWater))
}

// event is one queue entry: fn for the closure form, call(arg) for the
// shared-handler form (exactly one of fn and call is set).
type event struct {
	at   float64
	seq  uint64
	fn   func()
	call func(int)
	arg  int
}

// before is the heap order: earlier time first, scheduling order within
// one instant. seq is unique, so the order is total and the pop sequence
// does not depend on the heap's internal shape.
func (e *event) before(o *event) bool {
	if e.at != o.at { // lint:float-exact same-time events order by sequence number; a tolerance would corrupt the heap order
		return e.at < o.at
	}
	return e.seq < o.seq
}
