package recorder

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// EventJSON is the canonical export form of one event. Field order here IS
// the canonical JSON key order (encoding/json emits struct fields in
// declaration order), so two snapshots of identical runs are byte-identical.
type EventJSON struct {
	Chip     int    `json:"chip"`
	Seq      uint64 `json:"seq"`
	Clock    uint64 `json:"clock"`
	Kind     string `json:"kind"`
	Op       string `json:"op,omitempty"`
	Peer     int    `json:"peer"`
	Step     int    `json:"step"`
	Rows     int    `json:"rows,omitempty"`
	Cols     int    `json:"cols,omitempty"`
	MsgClock uint64 `json:"msg_clock,omitempty"`
	// Lane is the execution context on the chip (0 = chip goroutine,
	// 1+d = background comm worker for direction d); omitted when 0, so
	// exports of purely synchronous runs are unchanged.
	Lane int `json:"lane,omitempty"`
}

// ChipSnapshot is one chip's portion of a snapshot: the surviving window of
// its event ring, oldest first, plus totals that outlive ring wrap-around.
type ChipSnapshot struct {
	Chip      int         `json:"chip"`
	Recorded  uint64      `json:"recorded"`
	Truncated uint64      `json:"truncated"`
	Events    []EventJSON `json:"events"`
}

// EdgeCount is the per-directed-edge message ledger. Sent counts Send
// events on the sender, Dropped the subset the fault interposer discarded,
// Received the deliveries on the receiver; Sent - Dropped - Received > 0
// means messages were in flight (or lost) when the snapshot was taken.
type EdgeCount struct {
	From     int    `json:"from"`
	To       int    `json:"to"`
	Sent     uint64 `json:"sent"`
	Dropped  uint64 `json:"dropped,omitempty"`
	Received uint64 `json:"received"`
}

// Snapshot is a full, canonical copy of the recorder's state: chips in rank
// order, events in (chip, seq) order. Safe to take only when no chip
// goroutine is running (after Run/RunE returns).
type Snapshot struct {
	Chips    int            `json:"chips"`
	Capacity int            `json:"capacity"`
	Logs     []ChipSnapshot `json:"logs"`
}

// Snapshot copies the recorder into its canonical export form.
func (r *Recorder) Snapshot() *Snapshot {
	s := &Snapshot{Chips: len(r.chips), Capacity: r.capacity, Logs: make([]ChipSnapshot, len(r.chips))}
	for i, l := range r.chips {
		start, n := l.window()
		cs := ChipSnapshot{Chip: i, Recorded: n, Truncated: start, Events: make([]EventJSON, 0, n-start)}
		for seq := start; seq < n; seq++ {
			e := l.at(seq)
			cs.Events = append(cs.Events, EventJSON{
				Chip:     i,
				Seq:      e.Seq,
				Clock:    e.Clock,
				Kind:     e.Kind.String(),
				Op:       opExport(e.Op),
				Peer:     int(e.Peer),
				Step:     int(e.Step),
				Rows:     int(e.Rows),
				Cols:     int(e.Cols),
				MsgClock: e.MsgClock,
				Lane:     int(e.Lane),
			})
		}
		s.Logs[i] = cs
	}
	return s
}

// opExport maps OpNone to "" so it omits cleanly from JSON.
func opExport(o Op) string {
	if o == OpNone {
		return ""
	}
	return o.String()
}

// WriteJSON writes the snapshot in canonical indented form: identical runs
// produce byte-identical output (struct-ordered keys, rank-ordered chips,
// seq-ordered events).
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Edges returns the per-directed-edge message ledger, sorted by (from, to).
// It is computed from the wrap-proof per-peer counters, not the event
// window, so it is exact even for long runs.
func (r *Recorder) Edges() []EdgeCount {
	var out []EdgeCount
	for from, l := range r.chips {
		for to := range l.sendsTo {
			sent, dropped := l.sendsTo[to], l.dropsTo[to]
			received := r.chips[to].recvsFrom[from]
			if sent == 0 && received == 0 {
				continue
			}
			out = append(out, EdgeCount{From: from, To: to, Sent: sent, Dropped: dropped, Received: received})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// Frontier returns the edges with undelivered messages — sent but never
// received, whether dropped on the wire by the fault interposer or still
// sitting in a mailbox — sorted by (from, to). After a stalled run this
// names both the loss site (Dropped > 0) and the deliveries the stall
// stranded downstream of it.
func (r *Recorder) Frontier() []EdgeCount {
	var out []EdgeCount
	for _, e := range r.Edges() {
		if e.Sent > e.Received {
			out = append(out, e)
		}
	}
	return out
}

// Tail returns up to n most recent events of one chip, oldest first.
func (r *Recorder) Tail(chip, n int) []Event {
	l := r.chips[chip]
	start, end := l.window()
	if end-start > uint64(n) {
		start = end - uint64(n)
	}
	out := make([]Event, 0, end-start)
	for seq := start; seq < end; seq++ {
		out = append(out, l.at(seq))
	}
	return out
}

// FormatEvent renders one event as a stable single-line string for
// forensics dumps.
func FormatEvent(chip int, e Event) string {
	base := fmt.Sprintf("chip %d seq %d clk %d %s", chip, e.Seq, e.Clock, e.Kind)
	if e.Lane > 0 {
		base += fmt.Sprintf(" lane=%d", e.Lane)
	}
	if e.Op != OpNone {
		base += " [" + e.Op.String() + "]"
	}
	switch e.Kind {
	case KindSend:
		return fmt.Sprintf("%s to=%d step=%d %dx%d", base, e.Peer, e.Step, e.Rows, e.Cols)
	case KindRecv:
		return fmt.Sprintf("%s from=%d step=%d %dx%d msgclk=%d", base, e.Peer, e.Step, e.Rows, e.Cols, e.MsgClock)
	case KindSpanStart, KindSpanEnd:
		if e.Step >= 0 {
			return fmt.Sprintf("%s step=%d", base, e.Step)
		}
		return base
	case KindBufAcquire, KindBufRelease:
		return fmt.Sprintf("%s %dx%d", base, e.Rows, e.Cols)
	case KindFaultDelay:
		return fmt.Sprintf("%s from=%d yields=%d", base, e.Peer, e.Step)
	case KindFaultDrop:
		return fmt.Sprintf("%s to=%d", base, e.Peer)
	case KindChipFail:
		return fmt.Sprintf("%s after %d sends", base, e.Step)
	case KindAsyncIssue, KindAsyncWait:
		return fmt.Sprintf("%s op#%d", base, e.Step)
	}
	return base
}
