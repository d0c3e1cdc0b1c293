// Package recorder is the causal flight recorder of the functional mesh
// runtime: a per-chip, fixed-capacity ring buffer of typed events — sends,
// receives, collective-phase spans, GeMM steps, buffer arena transitions,
// and fault-interposer actions — stamped with per-chip sequence numbers and
// Lamport logical clocks.
//
// The recorder is wall-clock-free by construction (it lives under
// meshlint's no-wallclock rule): "time" is the Lamport clock, advanced by
// one on every recorded event and merged on receives with the clock carried
// by the message (clock = max(own, message) + 1). Cross-chip order is
// therefore reconstructed from happens-before edges — every receive's clock
// strictly exceeds its matched send's — never from goroutine scheduling, so
// canonical exports are byte-identical run to run and across GOMAXPROCS
// settings.
//
// The steady-state hot path (one record call per send, receive, or span
// transition) is allocation-free: events are fixed-size values written into
// preallocated ring buffers, each chip goroutine owns its log exclusively,
// and a nil *Recorder costs one pointer comparison at every instrumentation
// site in package mesh.
package recorder

// Op identifies the operation a span covers. Send/recv events inherit the
// op of the innermost open span on their chip, so a raw event stream still
// says which collective (or GeMM step) every message belonged to.
type Op uint8

const (
	// OpNone marks events recorded outside any span.
	OpNone Op = iota
	// OpAllGather covers AllGather and its Rows/Cols/Into variants.
	OpAllGather
	// OpReduceScatter covers ReduceScatter and its Rows/Cols/Into variants.
	OpReduceScatter
	// OpBroadcast covers Broadcast and BroadcastInto.
	OpBroadcast
	// OpReduce covers Reduce and ReduceInto.
	OpReduce
	// OpAllReduce covers AllReduce and AllReduceInto (its nested Reduce and
	// Broadcast phases open their own child spans).
	OpAllReduce
	// OpAllGatherBidir covers the bidirectional AllGather variants.
	OpAllGatherBidir
	// OpReduceScatterBidir covers the bidirectional ReduceScatter variant.
	OpReduceScatterBidir
	// OpGemmStep is one whole step — communication and kernel together — of
	// the algorithms with no overlapped schedule: a SUMMA panel, a Cannon
	// shift iteration, or the single step of Collective 2D. The span's Step
	// field carries the index. MeshSlice and Wang emit OpCompute instead.
	OpGemmStep
	// OpSnapshot covers the encoding of one chip's checkpoint record. The
	// span's Step field carries the checkpoint epoch.
	OpSnapshot
	// OpRestore covers checkpoint restore on a chip, including the restore
	// digest broadcast that fences all chips on the same snapshot.
	OpRestore
	// OpCompute is a kernel-only span: MeshSlice and Wang wrap each MatMul
	// call in one at both prefetch depths (their collectives record their
	// own spans beside it), so the overlap metric (and the Chrome trace) can
	// tell compute apart from the async collectives draining underneath it.
	// The span's Step field carries the slice (or ring-walk step) index.
	OpCompute
	// OpShift is an asynchronous SendRecv shift (Wang's overlapped
	// direction, run on a background comm lane).
	OpShift
	numOps
)

var opNames = [numOps]string{
	"none",
	"allgather",
	"reducescatter",
	"broadcast",
	"reduce",
	"allreduce",
	"allgather-bidir",
	"reducescatter-bidir",
	"gemm-step",
	"snapshot",
	"restore",
	"compute",
	"shift",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "op?"
}

// Kind is the event type.
type Kind uint8

const (
	// KindSend is a message leaving this chip (Peer = receiver rank).
	KindSend Kind = iota + 1
	// KindRecv is a message delivered to this chip (Peer = sender rank;
	// MsgClock = the Lamport stamp the message carried).
	KindRecv
	// KindSpanStart opens a span (Op names it; Step is the span's own index
	// argument, -1 when the span has none).
	KindSpanStart
	// KindSpanEnd closes the innermost span with the given Op.
	KindSpanEnd
	// KindBufAcquire is a scratch-buffer checkout from the mesh arena.
	KindBufAcquire
	// KindBufRelease is a scratch-buffer return to the mesh arena.
	KindBufRelease
	// KindFaultDelay is the fault interposer yielding this chip's receive
	// on a degraded edge (Peer = sender rank; Step = yield count).
	KindFaultDelay
	// KindFaultDrop is the fault interposer discarding this chip's send on
	// the wire (Peer = receiver rank): the immediately preceding KindSend to
	// the same peer never reached a mailbox.
	KindFaultDrop
	// KindChipFail is the fault interposer fail-stopping this chip at a
	// configured send count (Step = sends completed when it died).
	KindChipFail
	// KindAsyncIssue marks a chip handing an asynchronous collective to a
	// background comm lane (Op names it; Step is the per-chip async ordinal).
	KindAsyncIssue
	// KindAsyncWait marks the chip's Handle.Wait completing: the async op's
	// privately recorded events were merged into this chip's log immediately
	// before this event (Op/Step mirror the matching KindAsyncIssue).
	KindAsyncWait
	numKinds
)

var kindNames = [numKinds + 1]string{
	"",
	"send",
	"recv",
	"span-start",
	"span-end",
	"buf-acquire",
	"buf-release",
	"fault-delay",
	"fault-drop",
	"chip-fail",
	"async-issue",
	"async-wait",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && k > 0 {
		return kindNames[k]
	}
	return "kind?"
}

// Event is one fixed-size flight-recorder record. All fields are values;
// recording one is a struct store into a preallocated ring slot.
type Event struct {
	// Seq is the per-chip sequence number (0-based, monotone, never reused;
	// it keeps counting when the ring wraps).
	Seq uint64
	// Clock is the chip's Lamport clock after this event.
	Clock uint64
	// MsgClock is, for KindRecv, the Lamport stamp the message carried —
	// the matched send's Clock. Zero for every other kind (clock stamps
	// start at 1, so 0 never collides with a real stamp).
	MsgClock uint64
	// Kind is the event type.
	Kind Kind
	// Op is the innermost open span's op (the span's own op for span
	// events), OpNone outside spans.
	Op Op
	// Peer is the counterpart rank for send/recv/fault events, -1 otherwise.
	Peer int32
	// Step is kind-specific: the ring step for sends/receives (ordinal of
	// this send/recv within its span), the span's index argument for
	// KindSpanStart, the yield count for KindFaultDelay, and the send count
	// for KindChipFail. -1 when not applicable.
	Step int32
	// Rows, Cols carry the payload or buffer shape for send/recv and
	// buf-acquire/release events; zero otherwise.
	Rows, Cols int32
	// Lane separates execution contexts on one chip: 0 is the chip
	// goroutine itself, 1+d is the background comm worker for mesh
	// direction d. Events recorded through an OpLog carry the worker's
	// lane; everything recorded directly on the chip stays on lane 0.
	Lane uint8
}

// maxSpanDepth bounds the tracked span stack. Deeper nesting still records
// span events; only the live span-state query saturates.
const maxSpanDepth = 16

// spanRef is one open span on a chip's stack, with its ring progress.
type spanRef struct {
	op           Op
	step         int32
	sends, recvs int32
}

// chipLog is one chip's flight record. Each chip goroutine owns its log
// exclusively during a run (the runtime spawns exactly one goroutine per
// rank), so no lock guards the hot path; post-run readers are synchronised
// by the run's WaitGroup, and mid-run forensic reads happen only while the
// owner is provably blocked (see mesh's quiescence detector).
type chipLog struct {
	ev    []Event
	seq   uint64
	clock uint64
	stack [maxSpanDepth]spanRef
	depth int32
	// Per-peer totals survive ring wrap-around, so the unmatched-message
	// frontier is exact even when the event ring has dropped the sends
	// themselves.
	sendsTo   []uint64
	dropsTo   []uint64
	recvsFrom []uint64
}

// record stamps and stores one event. lint:hotpath steady-state record: must not allocate
func (l *chipLog) record(e Event) {
	e.Seq = l.seq
	l.ev[l.seq%uint64(len(l.ev))] = e
	l.seq++
}

// top returns the innermost tracked open span, or nil.
func (l *chipLog) top() *spanRef {
	if l.depth == 0 || l.depth > maxSpanDepth {
		return nil
	}
	return &l.stack[l.depth-1]
}

// Recorder is the mesh-wide flight recorder: one chipLog per rank.
type Recorder struct {
	chips    []*chipLog
	capacity int
}

// DefaultCapacity is the per-chip event-ring capacity New uses when the
// caller passes a non-positive one.
const DefaultCapacity = 4096

// New returns a recorder for the given number of chips, each with a ring
// holding capacity events (DefaultCapacity when capacity <= 0). All storage
// is allocated here; recording never allocates.
func New(chips, capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	r := &Recorder{chips: make([]*chipLog, chips), capacity: capacity}
	for i := range r.chips {
		r.chips[i] = &chipLog{
			ev:        make([]Event, capacity),
			sendsTo:   make([]uint64, chips),
			dropsTo:   make([]uint64, chips),
			recvsFrom: make([]uint64, chips),
		}
	}
	return r
}

// Chips returns the number of chips the recorder covers.
func (r *Recorder) Chips() int { return len(r.chips) }

// Capacity returns the per-chip event-ring capacity.
func (r *Recorder) Capacity() int { return r.capacity }

// Reset clears every chip's log, clock, span stack and edge counters, so
// the recorder can cover a fresh run.
func (r *Recorder) Reset() {
	for _, l := range r.chips {
		l.seq, l.clock, l.depth = 0, 0, 0
		for i := range l.sendsTo {
			l.sendsTo[i], l.dropsTo[i], l.recvsFrom[i] = 0, 0, 0
		}
	}
}

// Send records a message leaving chip for to and returns the Lamport stamp
// the message must carry to its receiver.
// lint:hotpath steady-state record: must not allocate
func (r *Recorder) Send(chip, to, rows, cols int) uint64 {
	l := r.chips[chip]
	l.clock++
	var op Op
	step := int32(-1)
	if t := l.top(); t != nil {
		op = t.op
		step = t.sends
		t.sends++
	}
	l.sendsTo[to]++
	l.record(Event{Clock: l.clock, Kind: KindSend, Op: op, Peer: int32(to), Step: step, Rows: int32(rows), Cols: int32(cols)})
	return l.clock
}

// Recv records a message from from delivered to chip, merging the Lamport
// stamp it carried: clock = max(own, msgClock) + 1, so this event's clock
// strictly exceeds the matched send's.
// lint:hotpath steady-state record: must not allocate
func (r *Recorder) Recv(chip, from, rows, cols int, msgClock uint64) {
	l := r.chips[chip]
	if msgClock > l.clock {
		l.clock = msgClock
	}
	l.clock++
	var op Op
	step := int32(-1)
	if t := l.top(); t != nil {
		op = t.op
		step = t.recvs
		t.recvs++
	}
	l.recvsFrom[from]++
	l.record(Event{Clock: l.clock, MsgClock: msgClock, Kind: KindRecv, Op: op, Peer: int32(from), Step: step, Rows: int32(rows), Cols: int32(cols)})
}

// SpanStart opens a span on chip. step is the span's own index (a GeMM
// slice or panel number); pass -1 for spans without one.
// lint:hotpath steady-state record: must not allocate
func (r *Recorder) SpanStart(chip int, op Op, step int) {
	l := r.chips[chip]
	l.clock++
	if l.depth < maxSpanDepth {
		l.stack[l.depth] = spanRef{op: op, step: int32(step)}
	}
	l.depth++
	l.record(Event{Clock: l.clock, Kind: KindSpanStart, Op: op, Peer: -1, Step: int32(step)})
}

// SpanEnd closes the innermost span on chip. op is recorded for
// readability; the stack pops regardless, keeping starts and ends balanced
// even if an instrumentation site mislabels the op.
// lint:hotpath steady-state record: must not allocate
func (r *Recorder) SpanEnd(chip int, op Op) {
	l := r.chips[chip]
	l.clock++
	step := int32(-1)
	if l.depth > 0 {
		if l.depth <= maxSpanDepth {
			step = l.stack[l.depth-1].step
		}
		l.depth--
	}
	l.record(Event{Clock: l.clock, Kind: KindSpanEnd, Op: op, Peer: -1, Step: step})
}

// BufAcquire records a scratch-buffer checkout from the mesh arena.
// lint:hotpath steady-state record: must not allocate
func (r *Recorder) BufAcquire(chip, rows, cols int) {
	l := r.chips[chip]
	l.clock++
	var op Op
	if t := l.top(); t != nil {
		op = t.op
	}
	l.record(Event{Clock: l.clock, Kind: KindBufAcquire, Op: op, Peer: -1, Step: -1, Rows: int32(rows), Cols: int32(cols)})
}

// BufRelease records a scratch-buffer return to the mesh arena.
// lint:hotpath steady-state record: must not allocate
func (r *Recorder) BufRelease(chip, rows, cols int) {
	l := r.chips[chip]
	l.clock++
	var op Op
	if t := l.top(); t != nil {
		op = t.op
	}
	l.record(Event{Clock: l.clock, Kind: KindBufRelease, Op: op, Peer: -1, Step: -1, Rows: int32(rows), Cols: int32(cols)})
}

// FaultDelay records the fault interposer stalling chip's receive from from
// by yields scheduler yields.
func (r *Recorder) FaultDelay(chip, from, yields int) {
	l := r.chips[chip]
	l.clock++
	var op Op
	if t := l.top(); t != nil {
		op = t.op
	}
	l.record(Event{Clock: l.clock, Kind: KindFaultDelay, Op: op, Peer: int32(from), Step: int32(yields)})
}

// FaultDrop records the fault interposer discarding chip's latest send to
// to: the immediately preceding KindSend to that peer vanished on the wire.
func (r *Recorder) FaultDrop(chip, to int) {
	l := r.chips[chip]
	l.clock++
	var op Op
	if t := l.top(); t != nil {
		op = t.op
	}
	l.dropsTo[to]++
	l.record(Event{Clock: l.clock, Kind: KindFaultDrop, Op: op, Peer: int32(to), Step: -1})
}

// ChipFail records the fault interposer fail-stopping chip after sends
// completed sends.
func (r *Recorder) ChipFail(chip, sends int) {
	l := r.chips[chip]
	l.clock++
	var op Op
	if t := l.top(); t != nil {
		op = t.op
	}
	l.record(Event{Clock: l.clock, Kind: KindChipFail, Op: op, Peer: -1, Step: int32(sends)})
}

// AsyncIssue records chip handing an asynchronous collective to a
// background comm lane and returns the chip's clock after the event — the
// seed the op's private OpLog starts from, so every event the lane records
// happens-after the issue.
// lint:hotpath steady-state record: must not allocate
func (r *Recorder) AsyncIssue(chip int, op Op, ord int) uint64 {
	l := r.chips[chip]
	l.clock++
	l.record(Event{Clock: l.clock, Kind: KindAsyncIssue, Op: op, Peer: -1, Step: int32(ord)})
	return l.clock
}

// MergeOpLog appends ol's privately recorded events into chip's log —
// Handle.Wait calls it at a deterministic program point, so the merged log
// stays byte-identical across runs and GOMAXPROCS — then merges ol's clock
// (clock = max(own, op) + 1) and records the closing KindAsyncWait. The
// op's per-peer send/recv/drop totals fold into the chip's wrap-proof
// counters. ol is reset for reuse.
// lint:hotpath steady-state record: must not allocate
func (r *Recorder) MergeOpLog(chip int, ol *OpLog) {
	l := r.chips[chip]
	for i := range ol.ev {
		l.record(ol.ev[i])
	}
	for p := range ol.sendsTo {
		l.sendsTo[p] += ol.sendsTo[p]
		l.dropsTo[p] += ol.dropsTo[p]
		l.recvsFrom[p] += ol.recvsFrom[p]
		ol.sendsTo[p], ol.dropsTo[p], ol.recvsFrom[p] = 0, 0, 0
	}
	if ol.clock > l.clock {
		l.clock = ol.clock
	}
	l.clock++
	l.record(Event{Clock: l.clock, Kind: KindAsyncWait, Op: ol.op, Peer: -1, Step: int32(ol.ord)})
	ol.ev = ol.ev[:0]
	ol.open = false
}

// SpanState describes a chip's innermost open span at query time, plus its
// ring progress: Sends/Recvs count the messages the span has moved so far,
// so a receiver blocked mid-collective is waiting at ring step Recvs.
type SpanState struct {
	// Op names the innermost open span; OpNone when no span is open.
	Op Op
	// Step is the span's own index argument (-1 when it has none).
	Step int32
	// Sends and Recvs count this span's completed messages.
	Sends, Recvs int32
	// Open reports whether any span is open at all.
	Open bool
}

// CurrentSpan returns chip's innermost open span. Callers must hold a
// happens-before edge on the chip's goroutine: either its run finished, or
// it is provably blocked (the mesh's quiescence detector queries blocked
// receivers under the exchanger lock the receiver passed through).
func (r *Recorder) CurrentSpan(chip int) SpanState {
	l := r.chips[chip]
	t := l.top()
	if t == nil {
		return SpanState{Step: -1, Open: l.depth > 0}
	}
	return SpanState{Op: t.op, Step: t.step, Sends: t.sends, Recvs: t.recvs, Open: true}
}
