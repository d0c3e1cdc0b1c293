package netsim

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"meshslice/internal/sched"
	"meshslice/internal/topology"
)

// TraceEvent records one operation execution on the traced chip.
type TraceEvent struct {
	Op    int
	Name  string
	Kind  sched.OpKind
	Dir   topology.Direction // meaningful for comm ops
	Start float64
	End   float64
}

// Trace is the traced chip's execution history in start-time order.
type Trace []TraceEvent

// lane buckets an event into the rows of the paper's Fig. 4 timelines:
// computation, inter-row, inter-column, and — for 3D arrangements —
// inter-depth communication. Depth traffic gets its own lane; folding it
// into inter-col (an old bug) both drew 2.5D timelines wrong and inflated
// the inter-col lane's busy time with traffic that runs on a different
// physical link.
func (e TraceEvent) lane() int {
	if !e.Kind.IsComm() {
		return 0
	}
	switch e.Dir {
	case topology.InterRow:
		return 1
	case topology.InterDepth:
		return 3
	default:
		return 2
	}
}

const numLanes = 4

var laneNames = [numLanes]string{"compute  ", "inter-row", "inter-col", "inter-dep"}

// Timeline renders the trace as a three-lane ASCII chart of the given
// width, the textual counterpart of the paper's Fig. 4. Each lane shows
// busy spans with the op kind's initial; overlap between the compute lane
// and the communication lanes is the visual signature of software
// pipelining.
func (t Trace) Timeline(width int) string {
	if len(t) == 0 || width < 10 {
		return "(empty trace)\n"
	}
	end := 0.0
	for _, e := range t {
		if e.End > end {
			end = e.End
		}
	}
	if end <= 0 {
		return "(empty trace)\n"
	}
	lanes := [numLanes][]byte{}
	for i := range lanes {
		lanes[i] = []byte(strings.Repeat(".", width))
	}
	// The depth lane only prints when a 3D program actually uses it, so 2D
	// timelines keep their familiar three-lane shape.
	depthUsed := false
	for _, e := range t {
		if e.lane() == 3 {
			depthUsed = true
			break
		}
	}
	glyph := func(k sched.OpKind) byte {
		switch k {
		case sched.Compute:
			return '#'
		case sched.Slice:
			return 's'
		case sched.AllGather:
			return 'G'
		case sched.ReduceScatter:
			return 'R'
		case sched.Broadcast:
			return 'B'
		case sched.Reduce:
			return 'r'
		case sched.Shift:
			return '>'
		default:
			return '?'
		}
	}
	for _, e := range t {
		lo := int(e.Start / end * float64(width))
		hi := int(e.End / end * float64(width))
		if hi <= lo {
			hi = lo + 1
		}
		if hi > width {
			hi = width
		}
		for i := lo; i < hi; i++ {
			lanes[e.lane()][i] = glyph(e.Kind)
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "0%sms %.3f\n", strings.Repeat(" ", width-len(fmt.Sprintf("%.3f", end*1e3))-3), end*1e3)
	for i, lane := range lanes {
		if i == 3 && !depthUsed {
			continue
		}
		fmt.Fprintf(&sb, "%s |%s|\n", laneNames[i], lane)
	}
	sb.WriteString("(# compute, s slice, G allgather, R reducescatter, B bcast, r reduce, > sendrecv)\n")
	return sb.String()
}

// sortTrace orders events by start time, then op index (unique per chip,
// so the order is total).
func sortTrace(t Trace) {
	slices.SortStableFunc(t, func(a, b TraceEvent) int {
		if c := cmp.Compare(a.Start, b.Start); c != 0 {
			return c
		}
		return cmp.Compare(a.Op, b.Op)
	})
}
