package mesh

import (
	"fmt"

	"meshslice/internal/fault"
)

// Fault injection on the functional runtime: SetFaults arms the exchanger
// with a fault.MeshFaults plan — per-edge scheduler-yield delays, message
// drops, and send-counted chip failures. Delays perturb goroutine
// interleaving the way slow links perturb arrival order, without touching
// any payload, so collective and GeMM results must be bit-identical to a
// healthy run. Drops and chip failures must surface as the typed errors
// below (via RunE) instead of deadlocked goroutines: the exchanger
// detects quiescence — every alive chip blocked in a receive — which on
// this runtime proves a permanent stall, because only chip goroutines
// send.

// Edge is one directed chip-to-chip connection.
type Edge struct {
	From, To int
}

func (e Edge) String() string {
	return fmt.Sprintf("%d→%d", e.From, e.To)
}

// EdgeWait is one blocked edge enriched with flight-recorder context: the
// collective (or GeMM step) the receiver was inside and the ring step it
// was waiting at when the run stalled.
type EdgeWait struct {
	Edge
	// Op names the receiver's innermost open span ("allgather",
	// "reducescatter", ...); empty when no recorder was attached or the
	// receiver was outside any span.
	Op string
	// Step is the ring step awaited — the receives the span had already
	// completed; -1 when unknown.
	Step int
}

func (w EdgeWait) String() string {
	if w.Op == "" {
		return w.Edge.String()
	}
	return fmt.Sprintf("%s (%s, ring step %d)", w.Edge, w.Op, w.Step)
}

// ChipFailedError reports a chip that fail-stopped mid-program (injected
// via fault.MeshChipFail).
type ChipFailedError struct {
	// Chip is the failed chip's rank.
	Chip int
	// Sends is the number of its fatal send: the sends before it in the
	// chip's issue order (see SetFaults).
	Sends int
	// Op names the collective (or GeMM step) the chip was inside when it
	// died, and Step the ring step of its fatal send; set only when a
	// recorder was attached (Op "" / Step -1 otherwise).
	Op   string
	Step int
	// Dump is the flight-recorder forensics dump (last events per chip,
	// unmatched-message frontier); set by RunE when a recorder is attached.
	// Note: unlike a stall dump, the surviving peers' logs here depend on
	// how far each ran before the abort reached it, so only the failed
	// chip's own portion is deterministic.
	Dump string
}

func (e *ChipFailedError) Error() string {
	msg := fmt.Sprintf("mesh: chip %d fail-stopped after %d sends", e.Chip, e.Sends)
	if e.Op != "" {
		msg += fmt.Sprintf(" during %s (ring step %d)", e.Op, e.Step)
	}
	return msg
}

// StreamBacklogError reports a chip that started more than MaxStreamStarts
// ring streams without an intervening receive — a tight same-root
// BroadcastInto (or fixed-starter ReduceInto) loop that runs ahead of the
// ring, pinning one in-flight scratch buffer per call on the unbounded
// fabric FIFO. The fix is to rotate roots (the SUMMA pattern) or interleave
// a receive; see the allocation note on collective.BroadcastInto.
type StreamBacklogError struct {
	// Chip is the rank that exceeded the cap.
	Chip int
	// Starts is the consecutive stream-start count at the failed call.
	Starts int
	// Rows, Cols give the streamed buffer shape at the failed call.
	Rows, Cols int
}

func (e *StreamBacklogError) Error() string {
	return fmt.Sprintf("mesh: chip %d started %d ring streams (%dx%d buffers) without a receive (cap %d) — rotate roots or interleave a receive",
		e.Chip, e.Starts, e.Rows, e.Cols, MaxStreamStarts)
}

// RecvStallError reports a permanently stalled run: every alive chip was
// blocked in a receive, so no message could ever arrive again (the typed
// surface of a dropped message).
type RecvStallError struct {
	// Edges lists the (from, to) pairs the stalled receivers were blocked
	// on, sorted, with duplicates collapsed.
	Edges []Edge
	// Waits mirrors Edges with span attribution — which collective and ring
	// step each receiver was blocked in; non-nil only when a recorder was
	// attached. Same sorted order as Edges.
	Waits []EdgeWait
	// Dump is the flight-recorder forensics dump (last events per chip,
	// unmatched-message frontier); set by RunE when a recorder is attached.
	// Stall dumps are deterministic: every chip blocks at a deterministic
	// program point before the stall is declared.
	Dump string
}

func (e *RecvStallError) Error() string {
	if len(e.Waits) > 0 {
		s := "mesh: all chips stalled in recv (blocked edges "
		for i, w := range e.Waits {
			if i > 0 {
				s += ", "
			}
			s += w.String()
		}
		return s + ") — a message was lost"
	}
	return fmt.Sprintf("mesh: all chips stalled in recv (blocked edges %v) — a message was lost", e.Edges)
}

// SetFaults arms (or, with an empty plan, disarms) fault injection for
// subsequent Run/RunE calls. Must not be called while a run is in flight.
// The plan persists across runs — drops and chip failures replay
// identically on every Run because the per-edge and per-chip message
// counters reset between runs.
//
// A chip's sends are numbered in the order its chip goroutine issues them,
// and an asynchronous op's sends when it is started, as if it ran inline
// (see Comm.StartAsync), not when a comm lane gets to them. So
// fault.MeshChipFail{AfterSends: n} always kills the same send, whatever
// the interleaving: the one numbered n. From then on every send of the
// chip, on any lane, raises the same *ChipFailedError.
func (m *Mesh) SetFaults(f fault.MeshFaults) {
	m.ex.setFaults(f)
}

// sendNumber returns the number of the send this view is making: the chip
// goroutine's next, or the next one the running async op reserved.
// lint:hotpath steady-state send: a counter, no allocation
func (c *Chip) sendNumber() int {
	if h := c.op; h != nil {
		if h.sendNext == h.sendEnd {
			panic(fmt.Sprintf("mesh: async %s sends more messages than StartAsync declared", h.op)) // lint:invariant an op's declared send count numbers the chip's later sends
		}
		h.sendNext++
		return h.sendNext - 1
	}
	c.async.sends++
	return c.async.sends - 1
}

// RunE executes fn once per chip like Run, but returns injected-fault and
// runtime-guard outcomes as typed errors instead of panicking: a
// *ChipFailedError when a chip fail-stopped (taking priority, as the root
// cause, over the peer aborts it triggers), a *RecvStallError when a lost
// message stalled the run, or a *StreamBacklogError when a chip exceeded
// MaxStreamStarts. Genuine chip panics — anything the fault injector or a
// guard did not raise — still re-panic with Run's SPMD failure semantics.
func (m *Mesh) RunE(fn func(c *Chip)) error {
	panics := m.runAll(fn)
	// A fail-stop is the root cause even when the dead chip's goroutine
	// surfaced something else (a comm lane died while it waited elsewhere).
	var chipFail *ChipFailedError
	for rank := range panics {
		if chipFail = m.ex.dead[rank]; chipFail != nil {
			break
		}
	}
	var stall *RecvStallError
	var backlog *StreamBacklogError
	var fallback string
	for rank, p := range panics {
		if p == nil {
			continue
		}
		switch v := p.(type) {
		case *ChipFailedError: // in m.ex.dead, read above
		case *RecvStallError:
			if stall == nil {
				stall = v
			}
		case *StreamBacklogError:
			if backlog == nil {
				backlog = v
			}
		default:
			msg := fmt.Sprintf("mesh: chip %d panicked: %v", rank, p)
			if p == errPeerFailed {
				fallback = msg
				continue
			}
			panic(msg) // lint:invariant re-raises chip panic, documented SPMD failure semantics
		}
	}
	if chipFail != nil {
		if m.rec != nil {
			chipFail.Dump = m.forensics(nil).String()
		}
		return chipFail
	}
	if stall != nil {
		if m.rec != nil {
			stall.Dump = m.forensics(stall.Waits).String()
		}
		return stall
	}
	if backlog != nil {
		return backlog
	}
	if fallback != "" {
		panic(fallback) // lint:invariant re-raises chip panic, documented SPMD failure semantics
	}
	return nil
}
