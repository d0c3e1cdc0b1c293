package recorder

import (
	"bytes"
	"strings"
	"testing"
)

// TestLamportClockRules pins the clock algebra: every event advances the
// chip clock by one, and a receive first merges the message's stamp
// (clock = max(own, msg) + 1), so it always lands strictly above both.
func TestLamportClockRules(t *testing.T) {
	r := New(2, 16)

	c1 := r.Chip(0).Send(1, 4, 4)
	if c1 != 1 {
		t.Fatalf("first send stamp = %d, want 1 (stamps start at 1 so 0 means none)", c1)
	}
	c2 := r.Chip(0).Send(1, 4, 4)
	if c2 != 2 {
		t.Fatalf("second send stamp = %d, want 2", c2)
	}

	// Receiver far behind: merge jumps it past the sender.
	r.Chip(1).Recv(0, 4, 4, c2)
	ev := r.Tail(1, 1)[0]
	if ev.Clock != c2+1 {
		t.Errorf("lagging receiver clock = %d, want msg+1 = %d", ev.Clock, c2+1)
	}
	if ev.MsgClock != c2 {
		t.Errorf("recv MsgClock = %d, want the carried stamp %d", ev.MsgClock, c2)
	}

	// Receiver far ahead: merge keeps its own clock and still advances.
	for i := 0; i < 10; i++ {
		r.Chip(1).SpanStart(OpAllGather, -1)
		r.Chip(1).SpanEnd(OpAllGather)
	}
	before := r.Tail(1, 1)[0].Clock
	r.Chip(1).Recv(0, 4, 4, c1)
	after := r.Tail(1, 1)[0].Clock
	if after != before+1 {
		t.Errorf("leading receiver clock = %d, want own+1 = %d", after, before+1)
	}
	if after <= c1 {
		t.Errorf("recv clock %d not above matched send clock %d", after, c1)
	}
}

// TestRingWrapTruncation fills a tiny ring past capacity and checks the
// snapshot reports the overflow: Recorded keeps the true total, Truncated
// the number of lost oldest events, and the surviving window is the most
// recent capacity events in seq order.
func TestRingWrapTruncation(t *testing.T) {
	const cap = 8
	r := New(1, cap)
	const total = 21
	for i := 0; i < total; i++ {
		r.Chip(0).Send(0, 1, 1)
	}
	s := r.Snapshot()
	l := s.Logs[0]
	if l.Recorded != total {
		t.Errorf("Recorded = %d, want %d", l.Recorded, total)
	}
	if l.Truncated != total-cap {
		t.Errorf("Truncated = %d, want %d", l.Truncated, total-cap)
	}
	if len(l.Events) != cap {
		t.Fatalf("window holds %d events, want %d", len(l.Events), cap)
	}
	for i, e := range l.Events {
		if want := uint64(total - cap + i); e.Seq != want {
			t.Errorf("window[%d].Seq = %d, want %d (oldest-first, newest tail)", i, e.Seq, want)
		}
	}
	// The per-peer ledger must survive the wrap.
	edges := r.Edges()
	if len(edges) != 1 || edges[0].Sent != total {
		t.Errorf("edge ledger %+v lost sends to ring wrap, want Sent=%d", edges, total)
	}
}

// TestSpanStepInference pins the ring-step attribution: sends and recvs
// inside a span are numbered by their ordinal within that span, and nested
// spans each count their own.
func TestSpanStepInference(t *testing.T) {
	r := New(2, 64)
	r.Chip(0).SpanStart(OpGemmStep, 3)
	r.Chip(0).SpanStart(OpAllGather, -1)
	for i := 0; i < 3; i++ {
		clk := r.Chip(0).Send(1, 2, 2)
		r.Chip(1).Recv(0, 2, 2, clk)
		ev := r.Tail(0, 1)[0]
		if int(ev.Step) != i {
			t.Errorf("send %d: Step = %d, want ordinal %d", i, ev.Step, i)
		}
		if ev.Op != OpAllGather {
			t.Errorf("send %d: Op = %v, want innermost span allgather", i, ev.Op)
		}
	}
	if s := r.Chip(0).Span(); s.Op != OpAllGather || s.Sends != 3 {
		t.Errorf("Span = %+v, want open allgather with 3 sends", s)
	}
	r.Chip(0).SpanEnd(OpAllGather)
	// Back in the outer span: its counters were untouched by the inner one.
	if s := r.Chip(0).Span(); s.Op != OpGemmStep || s.Step != 3 || s.Sends != 0 {
		t.Errorf("after inner end, Span = %+v, want gemm-step step 3 with 0 sends", s)
	}
	clk := r.Chip(0).Send(1, 2, 2)
	if ev := r.Tail(0, 1)[0]; ev.Op != OpGemmStep || ev.Step != 0 {
		t.Errorf("outer-span send = op %v step %d, want gemm-step step 0", ev.Op, ev.Step)
	}
	r.Chip(1).Recv(0, 2, 2, clk)
	r.Chip(0).SpanEnd(OpGemmStep)
	if s := r.Chip(0).Span(); s.Open {
		t.Errorf("all spans closed but Span still open: %+v", s)
	}
}

// TestSpanOverflowSaturates nests past maxSpanDepth: events keep recording,
// the stack saturates without corruption, and unwinding restores the
// tracked spans.
func TestSpanOverflowSaturates(t *testing.T) {
	r := New(1, 256)
	const deep = maxSpanDepth + 5
	for i := 0; i < deep; i++ {
		r.Chip(0).SpanStart(OpGemmStep, i)
	}
	r.Chip(0).Send(0, 1, 1)
	for i := 0; i < 6; i++ { // pop the overflow plus one tracked level
		r.Chip(0).SpanEnd(OpGemmStep)
	}
	if s := r.Chip(0).Span(); !s.Open || s.Step != maxSpanDepth-2 {
		t.Errorf("after unwind Span = %+v, want tracked span step %d", s, maxSpanDepth-2)
	}
	if got := r.Snapshot().Logs[0].Recorded; got != deep+1+6 {
		t.Errorf("recorded %d events, want %d (overflow must not drop events)", got, deep+1+6)
	}
}

// TestEdgesAndFrontier builds a small asymmetric ledger — one healthy edge,
// one with a drop, one with a message still in flight — and checks both
// views.
func TestEdgesAndFrontier(t *testing.T) {
	r := New(3, 16)
	// 0→1 healthy: two sends, two delivered.
	for i := 0; i < 2; i++ {
		r.Chip(1).Recv(0, 1, 1, r.Chip(0).Send(1, 1, 1))
	}
	// 1→2 dropped on the wire.
	r.Chip(1).Send(2, 1, 1)
	r.Chip(1).FaultDrop(2)
	// 2→0 sent, never delivered (in flight at snapshot time).
	r.Chip(2).Send(0, 1, 1)

	edges := r.Edges()
	want := []EdgeCount{
		{From: 0, To: 1, Sent: 2, Received: 2},
		{From: 1, To: 2, Sent: 1, Dropped: 1, Received: 0},
		{From: 2, To: 0, Sent: 1, Received: 0},
	}
	if len(edges) != len(want) {
		t.Fatalf("edges = %+v, want %+v", edges, want)
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Errorf("edge[%d] = %+v, want %+v", i, edges[i], want[i])
		}
	}
	frontier := r.Frontier()
	if len(frontier) != 2 || frontier[0].From != 1 || frontier[1].From != 2 {
		t.Errorf("frontier = %+v, want only the dropped and in-flight edges", frontier)
	}
}

// TestSnapshotJSONCanonical replays the identical event sequence into two
// recorders and requires byte-identical canonical JSON.
func TestSnapshotJSONCanonical(t *testing.T) {
	replay := func() *Recorder {
		r := New(2, 8)
		r.Chip(0).SpanStart(OpAllGather, -1)
		clk := r.Chip(0).Send(1, 4, 8)
		r.Chip(0).SpanEnd(OpAllGather)
		r.Chip(1).Recv(0, 4, 8, clk)
		r.Chip(1).BufAcquire(4, 8)
		r.Chip(1).BufRelease(4, 8)
		return r
	}
	var a, b bytes.Buffer
	if err := replay().Snapshot().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := replay().Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("identical event sequences produced different canonical JSON")
	}
	// Spot-check the export vocabulary so a renamed constant can't silently
	// change the on-disk format.
	for _, wantSub := range []string{`"kind": "send"`, `"op": "allgather"`, `"msg_clock": 2`} {
		if !strings.Contains(a.String(), wantSub) {
			t.Errorf("canonical JSON missing %s:\n%s", wantSub, a.String())
		}
	}
}

// TestReset verifies a reset recorder is indistinguishable from a fresh one.
func TestReset(t *testing.T) {
	r := New(2, 8)
	r.Chip(0).SpanStart(OpReduce, -1)
	r.Chip(1).Recv(0, 1, 1, r.Chip(0).Send(1, 1, 1))
	r.Reset()

	var got, fresh bytes.Buffer
	if err := r.Snapshot().WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if err := New(2, 8).Snapshot().WriteJSON(&fresh); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), fresh.Bytes()) {
		t.Error("reset recorder's snapshot differs from a fresh recorder's")
	}
	if s := r.Chip(0).Span(); s.Open {
		t.Errorf("reset left a span open: %+v", s)
	}
	if len(r.Frontier()) != 0 {
		t.Errorf("reset left frontier %+v", r.Frontier())
	}
}

// TestChromeTraceFlowArrows checks the Perfetto export carries one matched
// flow-arrow pair per delivered message and one process per chip.
func TestChromeTraceFlowArrows(t *testing.T) {
	r := New(2, 16)
	r.Chip(0).SpanStart(OpBroadcast, -1)
	r.Chip(1).SpanStart(OpBroadcast, -1)
	for i := 0; i < 3; i++ {
		r.Chip(1).Recv(0, 1, 1, r.Chip(0).Send(1, 1, 1))
	}
	r.Chip(0).SpanEnd(OpBroadcast)
	r.Chip(1).SpanEnd(OpBroadcast)

	var buf bytes.Buffer
	if err := WriteMeshChromeTrace(&buf, r.Snapshot(), "test"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	starts := strings.Count(out, `"ph":"s"`)
	finishes := strings.Count(out, `"ph":"f"`)
	if starts != 3 || finishes != 3 {
		t.Errorf("flow arrows: %d starts, %d finishes, want 3 each", starts, finishes)
	}
	if b, e := strings.Count(out, `"ph":"B"`), strings.Count(out, `"ph":"E"`); b != 2 || e != b {
		t.Errorf("span phases: %d B, %d E, want 2 balanced pairs", b, e)
	}
}

// TestOpLogClockSeedLaneAndSteps pins the async op's record: Begin seeds
// the op clock with max(issue, worker) and stamps the span start one past
// it; every event the op records carries the worker's lane and the op's
// span; sends and receives number their own ring steps.
func TestOpLogClockSeedLaneAndSteps(t *testing.T) {
	r := New(3, 64)
	for i := 0; i < 4; i++ {
		r.Chip(0).BufAcquire(1, 1)
	}
	issue := r.Chip(0).AsyncIssue(OpAllGather, 7)
	if issue != 5 {
		t.Fatalf("issue stamp = %d, want 5", issue)
	}
	ol := r.NewOpLog()
	ol.Begin(OpAllGather, 7, 2, issue, 3) // issue clock ahead of the lane
	if s := ol.Span(); s != (SpanState{Op: OpAllGather, Step: 7, Open: true}) {
		t.Errorf("Span after Begin = %+v, want open allgather #7 with no messages", s)
	}
	c1 := ol.Send(1, 2, 4)
	c2 := ol.Send(1, 2, 4)
	ol.Recv(2, 2, 4, 50)
	ol.BufAcquire(2, 4)
	ol.FaultDelay(2, 3)
	ol.FaultDrop(1)
	if c1 != 7 || c2 != 8 {
		t.Errorf("send stamps = %d, %d, want 7, 8 (span start at 6)", c1, c2)
	}
	if s := ol.Span(); s != (SpanState{Op: OpAllGather, Step: 7, Sends: 2, Recvs: 1, Open: true}) {
		t.Errorf("Span mid-op = %+v, want allgather #7 with 2 sends and 1 recv", s)
	}
	ol.SpanEnd(OpAllGather)
	if s := ol.Span(); s.Open || s.Step != -1 {
		t.Errorf("Span after its span ends = %+v, want closed with Step -1", s)
	}
	if ol.Clock() != 55 {
		t.Errorf("op clock after its span ends = %d, want 55", ol.Clock())
	}
	if len(r.Edges()) != 0 {
		t.Errorf("edges before the merge = %+v, want none: the op's totals fold in at Wait", r.Edges())
	}
	r.Chip(0).Merge(ol)

	want := []Event{
		{Seq: 5, Clock: 6, Kind: KindSpanStart, Op: OpAllGather, Peer: -1, Step: 7, Lane: 2},
		{Seq: 6, Clock: 7, Kind: KindSend, Op: OpAllGather, Peer: 1, Step: 0, Rows: 2, Cols: 4, Lane: 2},
		{Seq: 7, Clock: 8, Kind: KindSend, Op: OpAllGather, Peer: 1, Step: 1, Rows: 2, Cols: 4, Lane: 2},
		{Seq: 8, Clock: 51, MsgClock: 50, Kind: KindRecv, Op: OpAllGather, Peer: 2, Step: 0, Rows: 2, Cols: 4, Lane: 2},
		{Seq: 9, Clock: 52, Kind: KindBufAcquire, Op: OpAllGather, Peer: -1, Step: -1, Rows: 2, Cols: 4, Lane: 2},
		{Seq: 10, Clock: 53, Kind: KindFaultDelay, Op: OpAllGather, Peer: 2, Step: 3, Lane: 2},
		{Seq: 11, Clock: 54, Kind: KindFaultDrop, Op: OpAllGather, Peer: 1, Step: -1, Lane: 2},
		{Seq: 12, Clock: 55, Kind: KindSpanEnd, Op: OpAllGather, Peer: -1, Step: 7, Lane: 2},
		{Seq: 13, Clock: 56, Kind: KindAsyncWait, Op: OpAllGather, Peer: -1, Step: 7},
	}
	got := r.Tail(0, len(want))
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("merged event %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	// The merge folded the op's per-peer totals into the chip's ledger.
	wantEdges := []EdgeCount{
		{From: 0, To: 1, Sent: 2, Dropped: 1},
		{From: 2, To: 0, Received: 1},
	}
	if edges := r.Edges(); len(edges) != 2 || edges[0] != wantEdges[0] || edges[1] != wantEdges[1] {
		t.Errorf("edges after the merge = %+v, want %+v", edges, wantEdges)
	}
	if f := r.Frontier(); len(f) != 1 || f[0] != wantEdges[0] {
		t.Errorf("frontier = %+v, want only %+v", f, wantEdges[0])
	}

	// A reused op log starts clean, and a lane clock ahead of the issue
	// stamp seeds the next op.
	issue = r.Chip(0).AsyncIssue(OpReduceScatter, 8)
	ol.Begin(OpReduceScatter, 8, 1, issue, 90)
	ol.SpanEnd(OpReduceScatter)
	r.Chip(0).Merge(ol)
	got = r.Tail(0, 3)
	if got[0].Clock != 91 || got[0].Lane != 1 || got[0].Op != OpReduceScatter || got[0].Step != 8 {
		t.Errorf("reused op's span start = %+v, want clock 91 on lane 1 naming reducescatter #8", got[0])
	}
	if got[1].Clock != 92 || got[1].Kind != KindSpanEnd {
		t.Errorf("reused op's span end = %+v, want clock 92", got[1])
	}
	if len(r.Edges()) != 2 {
		t.Errorf("an op with no messages changed the ledger: %+v", r.Edges())
	}
}

// TestOpLogAsyncWaitClock pins the wait rule: the chip's KindAsyncWait
// lands at max(own clock, op clock) + 1, whichever of the two ran ahead.
func TestOpLogAsyncWaitClock(t *testing.T) {
	for _, tc := range []struct {
		name      string
		chipAhead int // lane-0 events the chip records between issue and wait
		want      uint64
	}{
		{"op ahead", 0, 4},     // issue 1, op span 2..3, wait 4
		{"chip ahead", 10, 12}, // issue 1, chip reaches 11, wait 12
	} {
		r := New(1, 32)
		issue := r.Chip(0).AsyncIssue(OpShift, 0)
		ol := r.NewOpLog()
		ol.Begin(OpShift, 0, 1, issue, 0)
		ol.SpanEnd(OpShift)
		for i := 0; i < tc.chipAhead; i++ {
			r.Chip(0).SpanStart(OpCompute, i)
		}
		r.Chip(0).Merge(ol)
		if e := r.Tail(0, 1)[0]; e.Kind != KindAsyncWait || e.Clock != tc.want || e.Lane != 0 {
			t.Errorf("%s: wait event = %+v, want async-wait at clock %d on lane 0", tc.name, e, tc.want)
		}
	}
}
