// Package des is a minimal discrete-event simulation kernel: a simulated
// clock and a time-ordered event queue. The cluster simulator (package
// netsim) drives chip compute engines, link controllers and ring barriers
// on top of it, playing the role SST plays in the paper's evaluation
// (§4.1).
//
// The queue is a binary heap over instants, not over events. Each heap
// entry is a bucket of events sharing one timestamp, linked FIFO through a
// slab, so an SPMD program whose chips all act at the same instant costs
// one heap entry per instant instead of one per chip. Pops still follow
// (time, scheduling order) exactly. Scheduling and dispatch allocate
// nothing once the slab and the heap have reached their high-water
// capacity. An event is either a func() (After) or a shared
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
	now     float64
	heap    []bucket // binary min-heap on (at, first)
	events  []event  // slab; links between its slots use -1 for nil
	free    int32    // head of the recycled-slot list through event.next
	seq     uint64   // scheduling counter: the seq of the latest push
	pending int

	// open is a direct-mapped table from an instant's key to the tail
	// event of the newest bucket at that instant; a slot with tail -1 is
	// empty. A push whose instant misses the table opens a new bucket.
	open [1 << openBits]openSlot

	// Kernel statistics (always tracked; publishing is opt-in).
	eventsRun      uint64
	queueHighWater int
}

// openBits sizes the open table: 1<<openBits direct-mapped slots.
const openBits = 3

type openSlot struct {
	key  uint64
	tail int32
}

// New returns a simulator at time zero with no pending events. The slab
// starts at 16 events and the heap at 4 buckets: room for the small
// simulations a planner runs by the hundred, and fewer growth steps for a
// mesh-scale one.
func New() *Simulator {
	s := &Simulator{free: -1, events: make([]event, 0, 16), heap: make([]bucket, 0, 4)}
	for i := range s.open {
		s.open[i].tail = -1
	}
	return s
}

// Now returns the current simulated time in seconds.
func (s *Simulator) Now() float64 { return s.now }

// After enqueues fn to run delay seconds from now.
func (s *Simulator) After(delay float64, fn func()) {
	s.push(s.delayed(delay), event{fn: fn})
}

// AfterCall enqueues call(arg) to run delay seconds from now. It orders
// and validates exactly like After, but the handler is shared between
// events, so a model that keeps its per-event state in its own tables
// (indexed by arg) schedules without allocating.
func (s *Simulator) AfterCall(delay float64, call func(int), arg int) {
	s.push(s.delayed(delay), event{call: call, arg: arg})
}

func (s *Simulator) delayed(delay float64) float64 {
	if delay < 0 {
		panic(fmt.Sprintf("des: negative delay %g", delay)) // lint:invariant simulated-time precondition
	}
	return s.now + delay
}

// push files the event at time at: behind the tail of the newest bucket
// of that instant when the open table still holds it, else as the head of
// a new bucket sifted up the heap. Only the newest bucket of an instant
// ever grows, so the buckets of one instant hold disjoint, ascending
// ranges of scheduling order and (at, first) orders them like (at, seq).
func (s *Simulator) push(at float64, ev event) {
	if math.IsNaN(at) {
		panic("des: scheduling at NaN") // lint:invariant NaN compares false with everything and silently corrupts heap order
	}
	if at < s.now {
		panic(fmt.Sprintf("des: scheduling at %g before now %g", at, s.now)) // lint:invariant simulated-time precondition
	}
	s.seq++
	ev.next = -1
	i := s.free
	if i >= 0 {
		s.free = s.events[i].next
		s.events[i] = ev
	} else {
		i = int32(len(s.events))
		s.events = append(s.events, ev)
	}
	key, slot := s.slotOf(at)
	if slot.tail >= 0 && slot.key == key {
		s.events[slot.tail].next = i
	} else {
		s.pushBucket(bucket{at: at, first: s.seq, head: i})
		slot.key = key
	}
	slot.tail = i
	s.pending++
	if s.pending > s.queueHighWater {
		s.queueHighWater = s.pending
	}
}

// slotOf returns the instant's key and its slot in the open table.
func (s *Simulator) slotOf(at float64) (uint64, *openSlot) {
	key := math.Float64bits(at)
	if at == 0 { // lint:float-exact −0 and +0 are one instant and must share a key
		key = 0
	}
	return key, &s.open[key*0x9e3779b97f4a7c15>>(64-openBits)] // Fibonacci hashing
}

// pushBucket sifts a new bucket up from the end of the heap.
func (s *Simulator) pushBucket(b bucket) {
	s.heap = append(s.heap, b)
	h := s.heap
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !b.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = b
}

// popBucket removes the drained root: the last bucket takes its place and
// sifts down.
func (s *Simulator) popBucket() {
	h := s.heap
	n := len(h) - 1
	last := h[n]
	s.heap = h[:n]
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h[r].before(&h[child]) {
			child = r
		}
		if !h[child].before(&last) {
			break
		}
		h[i] = h[child]
		i = child
	}
	if n > 0 {
		h[i] = last
	}
}

// Run executes events in time order until the queue drains, and returns
// the final simulated time.
func (s *Simulator) Run() float64 {
	for len(s.heap) > 0 {
		b := &s.heap[0]
		s.now = b.at
		i := b.head
		ev := s.events[i]
		if ev.next >= 0 {
			b.head = ev.next
		} else {
			// The bucket's last event: if it is still the open tail of its
			// instant, close the slot so no push links behind a freed event.
			if _, slot := s.slotOf(b.at); slot.tail == i {
				slot.tail = -1
			}
			s.popBucket()
		}
		// Recycle the slot, dropping the handler reference so a finished
		// closure can be collected.
		s.events[i] = event{next: s.free}
		s.free = i
		s.pending--
		s.eventsRun++
		if ev.call != nil {
			ev.call(ev.arg)
		} else {
			ev.fn()
		}
	}
	return s.now
}

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

// event is one slab entry: fn for the closure form, call(arg) for the
// shared-handler form (exactly one of fn and call is set), and the next
// event of its bucket (-1 at the tail) or of the free list.
type event struct {
	fn   func()
	call func(int)
	arg  int
	next int32
}

// bucket is one heap entry: the events of one instant, FIFO from head,
// whose first was scheduled at seq first.
type bucket struct {
	at    float64
	first uint64
	head  int32
}

// before is the heap order: earlier time first, then the bucket whose
// events were scheduled first. first is unique, so the order is total and
// the pop sequence does not depend on the heap's internal shape.
func (b *bucket) before(o *bucket) bool {
	if b.at != o.at { // lint:float-exact same-time buckets order by sequence number; a tolerance would corrupt the heap order
		return b.at < o.at
	}
	return b.first < o.first
}
