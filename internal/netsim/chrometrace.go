package netsim

import (
	"io"
	"math"
	"slices"
	"strconv"

	"meshslice/internal/fault"
	"meshslice/internal/obs"
)

// trackNames indexes viewer tracks by chromeTrack id.
var trackNames = [numLanes]string{"compute engine", "inter-row links", "inter-col links", "inter-depth links"}

// appendChipEvents emits chip pid's process name, the names of the tracks
// it used in tid order, and its events, all under that pid, and returns the
// index of its first event. When the previous chip's trace, whose events
// start at index prevFrom, is the same, its bytes are replayed instead.
func appendChipEvents(c *obs.ChromeTrace, traces []Trace, pid, prevFrom int, label string) int {
	t := traces[pid]
	var used [numLanes]bool
	for _, e := range t {
		used[chromeTrack(e)] = true
	}
	c.Meta("process_name", pid, 0).Str("chip ").Int(pid).Str(" — ").Str(label)
	for tid, name := range trackNames {
		if used[tid] {
			c.Meta("thread_name", pid, tid).Str(name)
		}
	}
	from := c.Events()
	if pid > 0 && sameTrace(t, traces[pid-1]) {
		c.Replay(prevFrom, prevFrom+len(t), pid)
		return from
	}
	for _, e := range t {
		kind := e.Kind.String()
		c.Event(obs.ChromeFields{Cat: kind, Ph: "X", TS: e.Start * 1e6, Dur: (e.End - e.Start) * 1e6, PID: pid, TID: chromeTrack(e)}).
			Str(e.Name).Arg("kind").Str(kind)
	}
	return from
}

// WriteClusterChromeTrace serialises a whole cluster's traces (as produced
// by Options.TraceAllChips) as one Chrome trace-event JSON array: one
// process per chip (pid = rank), one track per resource within each. The
// viewer then shows cross-chip skew — ragged barrier arrivals, straggler
// chips — that no single-chip trace can.
func WriteClusterChromeTrace(w io.Writer, traces []Trace, label string) error {
	return WriteFaultyClusterChromeTrace(w, traces, nil, label)
}

// WriteFaultyClusterChromeTrace is WriteClusterChromeTrace plus a final
// "faults" process carrying the fault plan's intervals (Result.FaultSpans):
// degraded windows, straggler windows and failure onsets show aligned
// under the chip timelines they stretch or strand.
func WriteFaultyClusterChromeTrace(w io.Writer, traces []Trace, spans []fault.Span, label string) error {
	n := len(spans) + 2
	for _, t := range traces {
		n += len(t) + 1 + numLanes // events, process and track names
	}
	c := obs.NewChromeTrace(n)
	from := 0
	for chip := range traces {
		from = appendChipEvents(c, traces, chip, from, label)
	}
	if len(spans) > 0 {
		pid := len(traces)
		c.Meta("process_name", pid, 0).Str("faults — ").Str(label)
		c.Meta("thread_name", pid, 0).Str("fault intervals")
		for _, sp := range spans {
			link := sp.Kind == "link-degrade" || sp.Kind == "link-fail"
			c.Event(obs.ChromeFields{Cat: "fault", Ph: "X", TS: sp.Start * 1e6, Dur: (sp.End - sp.Start) * 1e6, PID: pid}).
				Str(sp.Kind).Str(" chip ").Int(sp.Chip)
			if link {
				c.Str(" ").Str(sp.Dir.String())
			}
			// Arg keys in sorted order: chip, dir, factor, kind.
			c.Arg("chip").Int(sp.Chip)
			if link {
				c.Arg("dir").Str(sp.Dir.String())
			}
			if sp.Factor > 0 {
				c.Arg("factor").Str(strconv.FormatFloat(sp.Factor, 'g', -1, 64))
			}
			c.Arg("kind").Str(sp.Kind)
		}
	}
	return c.Encode(w)
}

// sameTrace reports whether a and b write the same Chrome events: field by
// field, times by their bits, since -0 and +0 compare equal but print apart.
func sameTrace(a, b Trace) bool {
	return slices.EqualFunc(a, b, func(x, y TraceEvent) bool {
		return x.Op == y.Op && x.Name == y.Name && x.Kind == y.Kind && x.Dir == y.Dir &&
			math.Float64bits(x.Start) == math.Float64bits(y.Start) && math.Float64bits(x.End) == math.Float64bits(y.End)
	})
}

// chromeTrack maps an event onto its viewer track.
func chromeTrack(e TraceEvent) int { return e.lane() }
