package recorder

import (
	"io"

	"meshslice/internal/obs"
)

// laneNames labels comm lanes (1 + topology direction) on their tracks.
var laneNames = [...]string{1: "row", 2: "col", 3: "depth"}

// flowKey identifies one message for arrow matching: the Lamport edge.
type flowKey struct {
	from, to int
	clock    uint64
}

// WriteMeshChromeTrace serialises a recorder snapshot as a Chrome
// trace-event JSON array: one Perfetto process per chip (pid = rank), GeMM
// and collective spans as nested B/E slices, sends and receives as
// instants, and s/f flow arrows from each send to its receive, matched by
// Lamport edge (directed edge + send clock == recv msg_clock). Timestamps
// are Lamport clocks, not wall time, so identical runs export identical bytes.
func WriteMeshChromeTrace(w io.Writer, s *Snapshot, label string) error {
	// First pass: flow ids numbered in (chip, seq) order of the sends, and
	// the received messages; an arrow needs both ends.
	flows, received := make(map[flowKey]int), make(map[flowKey]bool)
	events := 0
	for _, cs := range s.Logs {
		events += len(cs.Events) + 2
		for _, e := range cs.Events {
			switch e.Kind {
			case "send":
				if k := (flowKey{cs.Chip, e.Peer, e.Clock}); flows[k] == 0 {
					flows[k] = len(flows) + 1
				}
			case "recv":
				received[flowKey{e.Peer, cs.Chip, e.MsgClock}] = true
			}
		}
	}

	c := obs.NewChromeTrace(events + len(flows) + len(received))
	for _, cs := range s.Logs {
		c.Meta("process_name", cs.Chip, 0).Str("chip ").Int(cs.Chip).Str(" — ").Str(label)
		c.Meta("thread_name", cs.Chip, 0).Str("mesh runtime")
		// Async collective events carry a lane (1 + mesh direction): one
		// named track per lane, in ascending order, renders overlapped comm
		// spans under the compute track with sound B/E nesting per tid.
		maxLane := 0
		for _, e := range cs.Events {
			maxLane = max(maxLane, e.Lane)
		}
		for lane := 1; lane <= maxLane; lane++ {
			c.Meta("thread_name", cs.Chip, lane).Str("comm lane ")
			if lane < len(laneNames) {
				c.Str(laneNames[lane])
			} else {
				c.Int(lane)
			}
		}
		for _, e := range cs.Events {
			f := obs.ChromeFields{TS: float64(e.Clock), PID: cs.Chip, TID: e.Lane}
			switch e.Kind {
			case "span-start":
				f.Cat, f.Ph = "span", "B"
				c.Event(f).Str(e.Op)
				if e.Step >= 0 {
					c.Str(" #").Int(e.Step)
				}
			case "span-end":
				f.Cat, f.Ph = "span", "E"
				c.Event(f).Str(e.Op)
			case "send": // args in encoding/json's sorted key order
				f.Cat, f.Ph, f.S = "msg", "i", "t"
				c.Event(f).Str("send→").Int(e.Peer).
					Arg("shape").Int(e.Rows).Str("x").Int(e.Cols).Arg("step").Int(e.Step).Arg("to").Int(e.Peer)
				if k := (flowKey{cs.Chip, e.Peer, e.Clock}); received[k] {
					c.Event(obs.ChromeFields{Cat: "flow", Ph: "s", TS: f.TS, PID: f.PID, TID: f.TID, ID: flows[k]}).Str("msg")
				}
			case "recv":
				f.Cat, f.Ph, f.S = "msg", "i", "t"
				c.Event(f).Str("recv←").Int(e.Peer).
					Arg("from").Int(e.Peer).Arg("shape").Int(e.Rows).Str("x").Int(e.Cols).Arg("step").Int(e.Step)
				if id := flows[flowKey{e.Peer, cs.Chip, e.MsgClock}]; id != 0 {
					c.Event(obs.ChromeFields{Cat: "flow", Ph: "f", TS: f.TS, PID: f.PID, TID: f.TID, ID: id, BP: "e"}).Str("msg")
				}
			case "async-issue", "async-wait":
				f.Cat, f.Ph, f.S = "async", "i", "t"
				c.Event(f).Str(e.Kind).Str(" ").Str(e.Op).Str("#").Int(e.Step)
			case "fault-delay", "fault-drop", "chip-fail":
				f.Cat, f.Ph, f.S = "fault", "i", "t"
				c.Event(f).Str(e.Kind).Arg("peer").Int(e.Peer)
			}
		}
	}
	return c.Encode(w)
}
