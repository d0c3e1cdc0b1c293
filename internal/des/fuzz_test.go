package des

import (
	"math"
	"sort"
	"testing"
)

// fuzzEvent is one decoded scheduling call of FuzzEventOrder.
type fuzzEvent struct {
	form     int // 0 Schedule, 1 After, 2 AfterCall
	parent   int // index of the event whose handler schedules this one; -1 at top level
	delta    float64
	children []int
}

// decodeSchedule turns fuzz bytes into at most 512 scheduling calls, two
// bytes each. The first byte picks the form (b%3) and who schedules the
// call: b/3 == 0 schedules it before Run, b/3 == k > 0 from inside the
// handler of the event k-th back (mod the events so far), so small k
// build deep cascades. The second byte picks the time offset from the
// scheduling instant: 255 is +Inf, 254 is −0, 160-253 are 0 (same-instant
// bursts and zero-delay cascades), and 0-159 are one of 40 quarter-second
// steps, more instants than the open table has slots.
func decodeSchedule(data []byte) []fuzzEvent {
	n := min(len(data)/2, 512)
	evs := make([]fuzzEvent, n)
	for i := range evs {
		b0, b1 := data[2*i], data[2*i+1]
		ev := &evs[i]
		ev.form = int(b0 % 3)
		ev.parent = -1
		if k := int(b0 / 3); k > 0 && i > 0 {
			ev.parent = i - 1 - (k-1)%i
			evs[ev.parent].children = append(evs[ev.parent].children, i)
		}
		switch {
		case b1 == 255:
			ev.delta = math.Inf(1)
		case b1 == 254:
			ev.delta = math.Copysign(0, -1)
		case b1 >= 160:
			ev.delta = 0
		default:
			ev.delta = float64(b1%40) / 4
		}
	}
	return evs
}

// FuzzEventOrder is the differential check of the instant heap: whatever
// mix of top-level and in-handler Schedule/After/AfterCall calls the input
// decodes to, events pop in exactly the order a stable sort by time of the
// scheduling order gives, at the time they were scheduled for.
func FuzzEventOrder(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		evs := decodeSchedule(data)
		type stamp struct {
			at float64
			id int
		}
		var scheduled, popped []stamp
		s := New()
		var schedule func(id int)
		note := func(id int) {
			popped = append(popped, stamp{s.Now(), id})
			for _, c := range evs[id].children {
				schedule(c)
			}
		}
		schedule = func(id int) {
			ev := evs[id]
			at := s.Now() + ev.delta // what After and AfterCall compute
			switch ev.form {
			case 0:
				if ev.parent < 0 {
					at = ev.delta // Schedule at top level keeps −0 as given
				}
				s.Schedule(at, func() { note(id) })
			case 1:
				s.After(ev.delta, func() { note(id) })
			default:
				s.AfterCall(ev.delta, note, id)
			}
			scheduled = append(scheduled, stamp{at, id})
		}
		for id, ev := range evs {
			if ev.parent < 0 {
				schedule(id)
			}
		}
		s.Run()
		if s.Pending() != 0 || len(popped) != len(scheduled) || int(s.EventsRun()) != len(evs) {
			t.Fatalf("popped %d of %d scheduled (%d decoded), %d pending", len(popped), len(scheduled), len(evs), s.Pending())
		}
		sort.SliceStable(scheduled, func(i, j int) bool { return scheduled[i].at < scheduled[j].at })
		for i, want := range scheduled {
			got := popped[i]
			if got.id != want.id || got.at != want.at { // lint:float-exact the kernel must fire at the scheduled time; == keeps −0 and +0 one instant
				t.Fatalf("pop %d = event %d at %g, stable time order wants event %d at %g", i, got.id, got.at, want.id, want.at)
			}
		}
	})
}

// fuzzSeeds builds the seed schedules: a deep same-instant burst,
// zero-delay cascades into the instant being drained, ±0 and +Inf times,
// and more live instants than open-table slots.
func fuzzSeeds() [][]byte {
	var burst, cascade, zeroInf, collide []byte
	for i := 0; i < 200; i++ {
		burst = append(burst, byte(i%3), 4) // 200 top-level events at t=1
	}
	for i := 0; i < 24; i++ {
		cascade = append(cascade, byte(i%3), 4) // a burst at t=1 ...
	}
	for i := 0; i < 48; i++ {
		cascade = append(cascade, byte(3+i%3), 200) // ... each child chained at zero delay
		cascade = append(cascade, byte(3*(1+i%7)+i%3), byte(200+i%2*54))
	}
	for i := 0; i < 60; i++ {
		code := []byte{254, 0, 255, 200, 254, 4}[i%6]
		zeroInf = append(zeroInf, byte(i%3+3*(i%4)), code)
	}
	for i := 0; i < 240; i++ {
		parent := byte(0)
		if i%4 == 3 {
			parent = byte(1 + i%11)
		}
		collide = append(collide, byte(i%3)+3*parent, byte((i*7)%40))
	}
	return [][]byte{burst, cascade, zeroInf, collide}
}
