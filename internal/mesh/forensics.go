package mesh

import (
	"fmt"
	"strings"

	"meshslice/internal/obs/recorder"
)

// Flight-recorder forensics: when a run dies (RunE returns a typed fault
// error) and a recorder is attached, the error carries a deterministic
// text dump reconstructing what every chip was doing — its open span, its
// last events, and the fabric-wide frontier of unmatched sends — so a lost
// message is diagnosed from the error value alone, without re-running.

// forensicsTailLen is how many trailing events each chip contributes to a
// dump.
const forensicsTailLen = 16

// ChipForensics is one chip's portion of a forensics dump.
type ChipForensics struct {
	// Chip is the rank.
	Chip int
	// Span is the chip's innermost open span at the time of death.
	Span recorder.SpanState
	// Tail holds the chip's last events, oldest first.
	Tail []recorder.Event
}

// Forensics is the post-mortem view RunE assembles from the recorder after
// a faulted run: per-edge wait attribution, the unmatched-send frontier,
// and each chip's event tail. For stalls the whole dump is deterministic;
// after a chip failure the surviving peers' tails depend on how far each
// ran before the abort reached it.
type Forensics struct {
	// Waits lists the blocked edges with span attribution (stalls only).
	Waits []EdgeWait
	// Frontier lists edges whose sends outnumber drops plus deliveries —
	// exactly the lost or undelivered messages — sorted by (from, to).
	Frontier []recorder.EdgeCount
	// Chips holds every chip's tail, in rank order.
	Chips []ChipForensics
}

// forensics assembles a dump from the attached recorder. Callers must
// guarantee no chip goroutine is running (RunE calls it after its
// WaitGroup drains).
func (m *Mesh) forensics(waits []EdgeWait) *Forensics {
	f := &Forensics{
		Waits:    waits,
		Frontier: m.rec.Frontier(),
		Chips:    make([]ChipForensics, 0, m.rec.Chips()),
	}
	for chip := 0; chip < m.rec.Chips(); chip++ {
		f.Chips = append(f.Chips, ChipForensics{
			Chip: chip,
			Span: m.rec.Chip(chip).Span(),
			Tail: m.rec.Tail(chip, forensicsTailLen),
		})
	}
	return f
}

// String renders the dump as stable, line-oriented text.
func (f *Forensics) String() string {
	var b strings.Builder
	b.WriteString("flight-recorder forensics:\n")
	if len(f.Waits) > 0 {
		b.WriteString("  blocked edges:\n")
		for _, w := range f.Waits {
			fmt.Fprintf(&b, "    %s\n", w)
		}
	}
	if len(f.Frontier) > 0 {
		b.WriteString("  unmatched sends (sent / dropped / received):\n")
		for _, e := range f.Frontier {
			fmt.Fprintf(&b, "    %d→%d: %d / %d / %d\n", e.From, e.To, e.Sent, e.Dropped, e.Received)
		}
	}
	for _, c := range f.Chips {
		if c.Span.Open && c.Span.Op != recorder.OpNone {
			fmt.Fprintf(&b, "  chip %d (in %s, sends %d, recvs %d):\n",
				c.Chip, c.Span.Op, c.Span.Sends, c.Span.Recvs)
		} else {
			fmt.Fprintf(&b, "  chip %d:\n", c.Chip)
		}
		for _, e := range c.Tail {
			fmt.Fprintf(&b, "    %s\n", recorder.FormatEvent(c.Chip, e))
		}
	}
	return b.String()
}
