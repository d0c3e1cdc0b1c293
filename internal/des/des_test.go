package des

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"meshslice/internal/obs"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	s := New()
	var order []int
	s.Schedule(3, func() { order = append(order, 3) })
	s.Schedule(1, func() { order = append(order, 1) })
	s.Schedule(2, func() { order = append(order, 2) })
	end := s.Run()
	if !reflect.DeepEqual(order, []int{1, 2, 3}) {
		t.Errorf("order = %v", order)
	}
	if end != 3 {
		t.Errorf("end = %v, want 3", end)
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.Schedule(1, func() { order = append(order, i) })
	}
	s.Run()
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3, 4}) {
		t.Errorf("simultaneous events not FIFO: %v", order)
	}
}

func TestSimultaneousBurstFIFO(t *testing.T) {
	// A large same-time burst — the shape a fault cascade produces when many
	// link events land on one instant — must still drain in scheduling order.
	s := New()
	const burst = 1000
	var order []int
	for i := 0; i < burst; i++ {
		i := i
		s.Schedule(2, func() { order = append(order, i) })
	}
	// Earlier and later events surround the burst.
	s.Schedule(3, func() { order = append(order, burst) })
	s.Schedule(1, func() { order = append(order, -1) })
	s.Run()
	if len(order) != burst+2 || order[0] != -1 || order[burst+1] != burst {
		t.Fatalf("burst drained out of time order: len=%d first=%d last=%d", len(order), order[0], order[len(order)-1])
	}
	for i := 0; i < burst; i++ {
		if order[i+1] != i {
			t.Fatalf("same-time burst not FIFO at %d: got %d", i, order[i+1])
		}
	}
}

func TestSameTimeCascadeFIFO(t *testing.T) {
	// Events that schedule more events at the *same* timestamp (zero-delay
	// cascades, as in barrier releases) run after everything already queued
	// for that instant — FIFO is by scheduling order, not nesting depth.
	s := New()
	var order []string
	s.Schedule(1, func() {
		order = append(order, "a")
		s.Schedule(1, func() { order = append(order, "a.child") })
	})
	s.Schedule(1, func() { order = append(order, "b") })
	s.Run()
	want := []string{"a", "b", "a.child"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("cascade order = %v, want %v", order, want)
	}
}

func TestScheduleNaNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("scheduling at NaN should panic")
		}
	}()
	New().Schedule(math.NaN(), func() {})
}

func TestAfterNaNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("NaN delay should panic")
		}
	}()
	New().After(math.NaN(), func() {})
}

func TestNowAdvancesDuringRun(t *testing.T) {
	s := New()
	var seen []float64
	s.Schedule(1.5, func() { seen = append(seen, s.Now()) })
	s.Schedule(2.5, func() { seen = append(seen, s.Now()) })
	s.Run()
	if !reflect.DeepEqual(seen, []float64{1.5, 2.5}) {
		t.Errorf("Now during events = %v", seen)
	}
}

func TestEventsCanScheduleMoreEvents(t *testing.T) {
	s := New()
	count := 0
	var chain func()
	chain = func() {
		count++
		if count < 5 {
			s.After(1, chain)
		}
	}
	s.Schedule(0, chain)
	end := s.Run()
	if count != 5 || end != 4 {
		t.Errorf("count = %d end = %v, want 5 and 4", count, end)
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	s := New()
	var at float64
	s.Schedule(10, func() {
		s.After(2.5, func() { at = s.Now() })
	})
	s.Run()
	if at != 12.5 {
		t.Errorf("After fired at %v, want 12.5", at)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New()
	s.Schedule(5, func() {
		defer func() {
			if recover() == nil {
				t.Errorf("scheduling in the past should panic")
			}
		}()
		s.Schedule(4, func() {})
	})
	s.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("negative delay should panic")
		}
	}()
	New().After(-1, func() {})
}

func TestPending(t *testing.T) {
	s := New()
	if s.Pending() != 0 {
		t.Errorf("fresh simulator has %d pending", s.Pending())
	}
	s.Schedule(1, func() {})
	s.Schedule(2, func() {})
	if s.Pending() != 2 {
		t.Errorf("Pending = %d, want 2", s.Pending())
	}
	s.Run()
	if s.Pending() != 0 {
		t.Errorf("Pending after Run = %d", s.Pending())
	}
}

func TestRunEmptyReturnsZero(t *testing.T) {
	if end := New().Run(); end != 0 {
		t.Errorf("empty Run = %v", end)
	}
}

func TestKernelStats(t *testing.T) {
	s := New()
	for i := 0; i < 5; i++ {
		s.Schedule(float64(i), func() {})
	}
	if hw := s.QueueHighWater(); hw != 5 {
		t.Errorf("queue high water = %d, want 5", hw)
	}
	s.Run()
	if got := s.EventsRun(); got != 5 {
		t.Errorf("events run = %d, want 5", got)
	}
	// Chained events: high water stays low, events keep counting.
	s2 := New()
	var chain func(n int)
	chain = func(n int) {
		if n > 0 {
			s2.After(1, func() { chain(n - 1) })
		}
	}
	chain(10)
	s2.Run()
	if got := s2.EventsRun(); got != 10 {
		t.Errorf("chained events run = %d, want 10", got)
	}
	if hw := s2.QueueHighWater(); hw != 1 {
		t.Errorf("chained queue high water = %d, want 1", hw)
	}
}

func TestPublishMetrics(t *testing.T) {
	s := New()
	s.Schedule(1, func() {})
	s.Schedule(2, func() {})
	s.Run()
	r := obs.NewRegistry()
	s.PublishMetrics(r, obs.L("prog", "test"))
	if got := r.Counter("des_events_processed", obs.L("prog", "test")).Value(); got != 2 {
		t.Errorf("des_events_processed = %v, want 2", got)
	}
	if got := r.Gauge("des_queue_high_water", obs.L("prog", "test")).Value(); got != 2 {
		t.Errorf("des_queue_high_water = %v, want 2", got)
	}
	s.PublishMetrics(nil) // must be a no-op, not a crash
}

func TestAfterCallRunsHandlerWithArg(t *testing.T) {
	// The handler+arg form shares the (time, seq) order with the closure
	// form: same-instant events of both kinds run in scheduling order.
	s := New()
	var order []int
	note := func(arg int) { order = append(order, arg) }
	s.AfterCall(2, note, 20)
	s.After(1, func() { order = append(order, 10) })
	s.AfterCall(1, note, 11)
	s.After(1, func() { order = append(order, 12) })
	if end := s.Run(); end != 2 {
		t.Errorf("end = %v, want 2", end)
	}
	if want := []int{10, 11, 12, 20}; !reflect.DeepEqual(order, want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

func TestAfterCallPreconditions(t *testing.T) {
	for name, delay := range map[string]float64{"negative": -1, "NaN": math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AfterCall with %s delay should panic", name)
				}
			}()
			New().AfterCall(delay, func(int) {}, 0)
		}()
	}
}

// TestHeapPopsInStableTimeOrder is the heap's contract: 10k events with
// random times — most drawn from 40 distinct instants, so same-time bursts
// are over a hundred deep — pop in exactly the order a stable sort by time
// gives, i.e. FIFO within an instant. Half go through each event form, and
// a third are scheduled from inside running events.
func TestHeapPopsInStableTimeOrder(t *testing.T) {
	const n = 10000
	rng := rand.New(rand.NewSource(17))
	type stamp struct {
		at  float64
		idx int
	}
	var scheduled, popped []stamp
	s := New()
	note := func(idx int) { popped = append(popped, stamp{s.Now(), idx}) }
	add := func(at float64) {
		idx := len(scheduled)
		scheduled = append(scheduled, stamp{at, idx})
		if idx%2 == 0 {
			s.AfterCall(at-s.Now(), note, idx)
		} else {
			s.Schedule(at, func() { note(idx) })
		}
	}
	for i := 0; i < 2*n/3; i++ {
		at := float64(rng.Intn(40))
		if i%5 == 0 {
			at = rng.Float64() * 40
		}
		add(at)
	}
	// A driver event at every integer instant schedules more work at or
	// after its own time (a zero delay lands behind the instant's queue).
	for tick := 0; tick < 40; tick++ {
		tick := tick
		s.Schedule(float64(tick), func() {
			for i := 0; i < n/3/40; i++ {
				add(float64(tick + rng.Intn(40-tick)))
			}
		})
	}
	s.Run()
	if s.Pending() != 0 || len(popped) != len(scheduled) {
		t.Fatalf("popped %d of %d events, %d pending", len(popped), len(scheduled), s.Pending())
	}
	// add appends in call order, so idx order is scheduling order and a
	// stable sort by time is the (at, seq) order.
	sort.SliceStable(scheduled, func(i, j int) bool { return scheduled[i].at < scheduled[j].at })
	for i := range scheduled {
		if popped[i] != scheduled[i] {
			t.Fatalf("pop %d = %+v, stable time order wants %+v", i, popped[i], scheduled[i])
		}
	}
}

// TestDispatchAllocatesNothing is the kernel's allocation gate: once the
// event slab and the instant heap have reached their high-water capacity,
// scheduling and running events costs 0 allocations through a pre-built
// func(), through the handler+arg form, and in symmetric bursts of 64
// events per instant, the shape of an 8x8 ring release.
func TestDispatchAllocatesNothing(t *testing.T) {
	const events, depth = 4096, 256
	s := New()
	remaining := 0
	var tick func()
	tick = func() {
		if remaining > 0 {
			remaining--
			s.After(1e-6*float64(1+remaining%7), tick)
		}
	}
	var tickArg func(int)
	tickArg = func(arg int) {
		if remaining > 0 {
			remaining--
			s.AfterCall(1e-6*float64(1+arg%7), tickArg, arg+1)
		}
	}
	var burstArg func(int)
	burstArg = func(arg int) {
		if remaining > 0 {
			remaining--
			s.AfterCall(4e-6, burstArg, arg) // the whole instant lands on one later instant
		}
	}
	forms := []struct {
		name string
		seed func(i int)
	}{
		{"func()", func(i int) { s.After(1e-6*float64(1+i%5), tick) }},
		{"handler+arg", func(i int) { s.AfterCall(1e-6*float64(1+i%5), tickArg, i) }},
		{"64 per instant", func(i int) { s.AfterCall(1e-6*float64(1+i/64), burstArg, i) }},
	}
	for _, form := range forms {
		name := form.name
		run := func() {
			remaining = events - depth
			for i := 0; i < depth; i++ {
				form.seed(i)
			}
			s.Run()
		}
		run() // reach the high-water capacity
		before := s.EventsRun()
		allocs := testing.AllocsPerRun(5, run)
		perRun := (s.EventsRun() - before) / 6 // AllocsPerRun adds one warm-up run
		t.Logf("%s: %d events per run, queue high water %d, %.0f allocs per run", name, perRun, s.QueueHighWater(), allocs)
		if perRun != events {
			t.Errorf("%s: ran %d events per run, want %d", name, perRun, events)
		}
		if allocs != 0 {
			t.Errorf("%s: %.0f allocations per %d events, want 0", name, allocs, events)
		}
	}
}

// Schedule enqueues fn to run at absolute simulated time at. Events at the
// same time run in scheduling order (FIFO), which keeps runs deterministic.
// Scheduling in the past — or at NaN, which would corrupt the heap order
// because every comparison against it is false — is a programming error.
func (s *Simulator) Schedule(at float64, fn func()) {
	s.push(at, event{fn: fn})
}

// Pending returns the number of queued events (useful for detecting
// deadlocked models in tests).
func (s *Simulator) Pending() int { return s.pending }

// EventsRun returns the number of events executed so far.
func (s *Simulator) EventsRun() uint64 { return s.eventsRun }

// QueueHighWater returns the maximum pending-queue depth observed.
func (s *Simulator) QueueHighWater() int { return s.queueHighWater }
