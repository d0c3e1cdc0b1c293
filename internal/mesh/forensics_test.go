package mesh

import (
	"errors"
	"strings"
	"testing"

	"meshslice/internal/fault"
	"meshslice/internal/obs/recorder"
	"meshslice/internal/topology"
)

// spannedRingShift is ringShift wrapped in an allgather span, the way the
// collective package instruments its ring loops, so stall forensics can
// attribute the blocked receive to an operation and ring step.
func spannedRingShift(c *Chip) {
	c.SpanStart(recorder.OpAllGather, -1)
	defer c.SpanEnd(recorder.OpAllGather)
	ringShift(c)
}

// runDropScenario runs one recorded ring rotation on 4-wide row rings with
// chip 0's second message to chip 1 dropped, and returns the resulting
// stall.
func runDropScenario(t *testing.T) (*RecvStallError, *recorder.Recorder) {
	t.Helper()
	tor := topology.NewTorus(2, 4)
	m := New(tor)
	rec := recorder.New(tor.Size(), 0)
	m.SetRecorder(rec)
	m.SetFaults(fault.MeshFaults{Drops: []fault.EdgeDrop{{From: 0, To: 1, Nth: 1}}})
	err := m.RunE(func(c *Chip) { spannedRingShift(c) })
	if err == nil {
		t.Fatal("dropped message went undetected")
	}
	var stall *RecvStallError
	if !errors.As(err, &stall) {
		t.Fatalf("got %T (%v), want *RecvStallError", err, err)
	}
	return stall, rec
}

// TestDropForensicsNamesEdgeOpAndStep is the acceptance regression: a run
// killed by an injected lost message must produce an error naming the
// stalled edge, the enclosing collective, and the ring step the receiver
// was waiting at, plus a forensics dump carrying the frontier and event
// tails.
func TestDropForensicsNamesEdgeOpAndStep(t *testing.T) {
	stall, _ := runDropScenario(t)

	// Mailboxes are FIFO, so the drop shifts every later delivery forward:
	// chip 1 consumes the two surviving messages and starves at its final
	// receive — edge 0→1, ring step 2.
	msg := stall.Error()
	if !strings.Contains(msg, "0→1 (allgather, ring step 2)") {
		t.Errorf("stall error does not attribute the blocked edge:\n%s", msg)
	}
	if !strings.Contains(msg, "lost") {
		t.Errorf("stall error does not mention the loss:\n%s", msg)
	}

	if stall.Dump == "" {
		t.Fatal("recorder attached but stall carries no forensics dump")
	}
	for _, want := range []string{
		"blocked edges:",
		"0→1 (allgather, ring step 2)",
		"unmatched sends (sent / dropped / received):",
		"0→1: 3 / 1 / 2", // the loss site: three sent, one dropped, two delivered
		"fault-drop",     // the interposer's action is in the event stream
	} {
		if !strings.Contains(stall.Dump, want) {
			t.Errorf("forensics dump missing %q:\n%s", want, stall.Dump)
		}
	}
}

// TestStallDumpDeterministic runs the identical faulty scenario twice on
// fresh meshes and requires byte-identical error strings and dumps:
// post-mortem forensics of a stall are part of the determinism contract.
func TestStallDumpDeterministic(t *testing.T) {
	a, _ := runDropScenario(t)
	b, _ := runDropScenario(t)
	if a.Error() != b.Error() {
		t.Errorf("stall errors differ across identical runs:\n%s\n---\n%s", a.Error(), b.Error())
	}
	if a.Dump != b.Dump {
		t.Errorf("forensics dumps differ across identical runs:\n%s\n---\n%s", a.Dump, b.Dump)
	}
}

// TestChipFailForensicsNamesOpAndDump: an injected fail-stop names the
// enclosing span in the error and attaches the failed chip's event tail,
// ending in the chip-fail event itself.
func TestChipFailForensicsNamesOpAndDump(t *testing.T) {
	tor := topology.NewTorus(2, 4)
	m := New(tor)
	rec := recorder.New(tor.Size(), 0)
	m.SetRecorder(rec)
	m.SetFaults(fault.MeshFaults{ChipFails: []fault.MeshChipFail{{Chip: 3, AfterSends: 1}}})
	err := m.RunE(func(c *Chip) { spannedRingShift(c) })
	var cf *ChipFailedError
	if !errors.As(err, &cf) {
		t.Fatalf("got %T (%v), want *ChipFailedError", err, err)
	}
	if !strings.Contains(cf.Error(), "during allgather") {
		t.Errorf("chip-fail error does not name the enclosing op: %s", cf.Error())
	}
	if !strings.Contains(cf.Dump, "chip-fail") {
		t.Errorf("dump missing the chip-fail event:\n%s", cf.Dump)
	}
	// The failed chip's own log is deterministic and carries the
	// interposer's fail-stop record (followed only by the span-end events
	// its deferred instrumentation writes while the panic unwinds).
	found := false
	for _, e := range rec.Tail(3, 4) {
		if e.Kind == recorder.KindChipFail && e.Step == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("chip 3's tail %+v lacks the chip-fail record", rec.Tail(3, 4))
	}
}

// TestFaultDelayEventsInStream: delay-only faults leave results intact but
// must still show up in the flight record as typed fault-delay events on
// the delayed receiver.
func TestFaultDelayEventsInStream(t *testing.T) {
	tor := topology.NewTorus(2, 2)
	m := New(tor)
	rec := recorder.New(tor.Size(), 0)
	m.SetRecorder(rec)
	m.SetFaults(fault.MeshFaults{Delays: []fault.EdgeDelay{{From: 0, To: 1, Yields: 64}}})
	if err := m.RunE(func(c *Chip) { spannedRingShift(c) }); err != nil {
		t.Fatalf("delay-only run died: %v", err)
	}
	found := false
	for _, e := range rec.Snapshot().Logs[1].Events {
		if e.Kind == recorder.KindFaultDelay.String() && e.Peer == 0 {
			found = true
		}
	}
	if !found {
		t.Error("delayed edge 0→1 produced no fault-delay event on chip 1")
	}
}

// TestSetRecorderChecksCoverage pins the recorder-size precondition: a
// recorder with fewer chips than the mesh panics in SetRecorder, naming
// both sizes, instead of an index panic deep in a chip goroutine; one that
// covers the mesh attaches, and nil detaches.
func TestSetRecorderChecksCoverage(t *testing.T) {
	m := New(topology.NewTorus(2, 2))
	func() {
		defer func() {
			p := recover()
			msg, _ := p.(string)
			if !strings.Contains(msg, "covers 2 chips") || !strings.Contains(msg, "4-chip mesh") {
				t.Errorf("undersized recorder: recovered %v, want a panic naming 2 and 4 chips", p)
			}
		}()
		m.SetRecorder(recorder.New(2, 0))
	}()
	if m.Recorder() != nil {
		t.Fatal("a rejected recorder stayed attached")
	}
	rec := recorder.New(4, 0)
	m.SetRecorder(rec)
	m.Run(spannedRingShift)
	if len(rec.Edges()) == 0 {
		t.Error("a covering recorder recorded no messages")
	}
	m.SetRecorder(nil)
	m.Run(spannedRingShift)
}
