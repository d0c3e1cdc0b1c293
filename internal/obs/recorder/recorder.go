// Package recorder is the causal flight recorder of the functional mesh
// runtime: per chip, a fixed-capacity ring of typed events — sends,
// receives, collective-phase spans, GeMM steps, buffer arena transitions,
// and fault-interposer actions — stamped with per-chip sequence numbers and
// Lamport logical clocks.
//
// One type writes every event: Log. A chip's log stores into its ring. An
// asynchronous collective runs on a background comm worker and records into
// an op log of its own, a buffer the issuing chip folds into its ring when
// it waits on the op (Log.Merge), so each ring has exactly one writer, the
// chip goroutine.
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
// preallocated rings or into op buffers whose capacity is reused, and a nil
// *Log costs one pointer comparison at every instrumentation site in
// package mesh.
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
	// log was merged into this chip's log immediately before this event
	// (Op/Step mirror the matching KindAsyncIssue).
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
	// direction d. Events recorded through an op log carry the worker's
	// lane; everything recorded directly on the chip stays on lane 0.
	Lane uint8
}

// maxSpanDepth bounds the tracked span stack. Deeper nesting still records
// span events; only the live span-state query saturates.
const maxSpanDepth = 16

// spanRef is one open span on a log's stack, with its ring progress.
type spanRef struct {
	op           Op
	step         int32
	sends, recvs int32
}

// Log is the one writer of flight-recorder events: a Lamport clock, the
// stack of open spans with their ring progress, and per-peer message
// totals, over one of two stores.
//
// A chip's log (Recorder.Chip) keeps its events in a fixed ring and belongs
// to the chip goroutine: the runtime spawns exactly one per rank, so no
// lock guards the hot path; post-run readers are synchronised by the run's
// WaitGroup, and mid-run forensic reads happen only while the owner is
// provably blocked (see mesh's quiescence detector).
//
// An op log (Recorder.NewOpLog) is the record of one asynchronous
// collective, written by the background comm worker that runs it into a
// growable buffer, every event stamped with the worker's lane. Begin opens
// it by pushing the op's span; the issuing chip folds it into its ring with
// Merge when it waits on the op. Handles pool and reuse op logs, so the
// steady state allocates nothing.
type Log struct {
	ev    []Event
	ring  bool // ev is a fixed ring (a chip's log), not a growable buffer
	lane  uint8
	seq   uint64
	clock uint64
	stack [maxSpanDepth]spanRef
	depth int32
	// Per-peer totals survive ring wrap-around, so the unmatched-message
	// frontier is exact even when the ring has dropped the sends themselves.
	sendsTo   []uint64
	dropsTo   []uint64
	recvsFrom []uint64
}

// newLog returns a log over ring (a growable buffer when ring is nil) with
// per-peer totals for chips peers.
func newLog(ring []Event, chips int) *Log {
	return &Log{
		ev:        ring,
		ring:      ring != nil,
		sendsTo:   make([]uint64, chips),
		dropsTo:   make([]uint64, chips),
		recvsFrom: make([]uint64, chips),
	}
}

// store gives e the next sequence number and keeps it: in the ring,
// overwriting the oldest event once full, or at the end of the buffer.
// lint:hotpath steady-state record: must not allocate
func (l *Log) store(e Event) {
	e.Seq = l.seq
	l.seq++
	if l.ring {
		l.ev[e.Seq%uint64(len(l.ev))] = e
		return
	}
	l.ev = append(l.ev, e) // lint:allow hotpath-alloc op-log growth: capacity is reused across ops via the handle pool
}

// add advances the clock and stores e stamped with it and the log's lane.
// lint:hotpath steady-state record: must not allocate
func (l *Log) add(e Event) {
	l.clock++
	e.Clock, e.Lane = l.clock, l.lane
	l.store(e)
}

// top returns the innermost tracked open span, or nil.
func (l *Log) top() *spanRef {
	if l.depth == 0 || l.depth > maxSpanDepth {
		return nil
	}
	return &l.stack[l.depth-1]
}

// op returns the innermost tracked open span's op, OpNone outside spans.
func (l *Log) op() Op {
	if t := l.top(); t != nil {
		return t.op
	}
	return OpNone
}

// message builds a send or receive event inside the innermost open span,
// whose count of such messages is the event's ring step.
// lint:hotpath steady-state record: must not allocate
func (l *Log) message(k Kind, peer, rows, cols int) Event {
	e := Event{Kind: k, Peer: int32(peer), Step: -1, Rows: int32(rows), Cols: int32(cols)}
	if t := l.top(); t != nil {
		n := &t.sends
		if k == KindRecv {
			n = &t.recvs
		}
		e.Op, e.Step = t.op, *n
		*n++
	}
	return e
}

// Send records a message leaving for peer to and returns the Lamport stamp
// the message must carry to its receiver.
// lint:hotpath steady-state record: must not allocate
func (l *Log) Send(to, rows, cols int) uint64 {
	l.sendsTo[to]++
	l.add(l.message(KindSend, to, rows, cols))
	return l.clock
}

// Recv records a message from from, merging the Lamport stamp it carried:
// clock = max(own, msgClock) + 1, so this event's clock strictly exceeds
// the matched send's.
// lint:hotpath steady-state record: must not allocate
func (l *Log) Recv(from, rows, cols int, msgClock uint64) {
	l.clock = max(l.clock, msgClock)
	l.recvsFrom[from]++
	e := l.message(KindRecv, from, rows, cols)
	e.MsgClock = msgClock
	l.add(e)
}

// SpanStart opens a span. step is the span's own index (a GeMM slice or
// panel number); pass -1 for spans without one.
// lint:hotpath steady-state record: must not allocate
func (l *Log) SpanStart(op Op, step int) {
	if l.depth < maxSpanDepth {
		l.stack[l.depth] = spanRef{op: op, step: int32(step)}
	}
	l.depth++
	l.add(Event{Kind: KindSpanStart, Op: op, Peer: -1, Step: int32(step)})
}

// SpanEnd closes the innermost span. op is recorded for readability; the
// stack pops regardless, keeping starts and ends balanced even if an
// instrumentation site mislabels the op.
// lint:hotpath steady-state record: must not allocate
func (l *Log) SpanEnd(op Op) {
	step := int32(-1)
	if t := l.top(); t != nil {
		step = t.step
	}
	if l.depth > 0 {
		l.depth--
	}
	l.add(Event{Kind: KindSpanEnd, Op: op, Peer: -1, Step: step})
}

// BufAcquire records a scratch-buffer checkout from the mesh arena.
// lint:hotpath steady-state record: must not allocate
func (l *Log) BufAcquire(rows, cols int) {
	l.add(Event{Kind: KindBufAcquire, Op: l.op(), Peer: -1, Step: -1, Rows: int32(rows), Cols: int32(cols)})
}

// BufRelease records a scratch-buffer return to the mesh arena.
// lint:hotpath steady-state record: must not allocate
func (l *Log) BufRelease(rows, cols int) {
	l.add(Event{Kind: KindBufRelease, Op: l.op(), Peer: -1, Step: -1, Rows: int32(rows), Cols: int32(cols)})
}

// FaultDelay records the fault interposer stalling a receive from from by
// yields scheduler yields.
func (l *Log) FaultDelay(from, yields int) {
	l.add(Event{Kind: KindFaultDelay, Op: l.op(), Peer: int32(from), Step: int32(yields)})
}

// FaultDrop records the fault interposer discarding the latest send to to:
// the immediately preceding KindSend to that peer vanished on the wire.
func (l *Log) FaultDrop(to int) {
	l.dropsTo[to]++
	l.add(Event{Kind: KindFaultDrop, Op: l.op(), Peer: int32(to), Step: -1})
}

// ChipFail records the fault interposer fail-stopping the chip after sends
// completed sends.
func (l *Log) ChipFail(sends int) {
	l.add(Event{Kind: KindChipFail, Op: l.op(), Peer: -1, Step: int32(sends)})
}

// AsyncIssue records the chip handing its ord-th asynchronous collective to
// a background comm lane and returns the clock after the event, the seed of
// the op log's Begin.
// lint:hotpath steady-state record: must not allocate
func (l *Log) AsyncIssue(op Op, ord int) uint64 {
	l.add(Event{Kind: KindAsyncIssue, Op: op, Peer: -1, Step: int32(ord)})
	return l.clock
}

// Begin opens this op log for the chip's ord-th asynchronous collective,
// run on lane (1 + mesh direction): it clears the log, seeds its clock with
// max(issueClock, workerClock) and pushes the op's span. The issue stamp
// makes every op event happen-after its KindAsyncIssue; workerClock, the
// lane's Clock after its previous op (zero for the first), keeps the ops of
// one lane monotone even when a chip issues op s+1 before waiting on op s.
// lint:hotpath steady-state record: must not allocate
func (l *Log) Begin(op Op, ord, lane int, issueClock, workerClock uint64) {
	l.ev, l.seq, l.depth = l.ev[:0], 0, 0
	l.lane, l.clock = uint8(lane), max(issueClock, workerClock)
	l.SpanStart(op, ord)
}

// Clock returns the Lamport clock after the last event.
func (l *Log) Clock() uint64 { return l.clock }

// Merge folds op log ol into this chip log at the chip's Handle.Wait: ol's
// events in order, keeping their lanes; its per-peer totals into the
// wrap-proof counters; and its clock, under a closing KindAsyncWait naming
// the op Begin pushed (clock = max(own, op) + 1). Wait is a deterministic
// program point, so the merged log stays byte-identical across runs and
// GOMAXPROCS although the worker raced the chip in real time. ol is
// cleared for reuse.
// lint:hotpath steady-state record: must not allocate
func (l *Log) Merge(ol *Log) {
	for _, e := range ol.ev {
		l.store(e)
	}
	for p := range ol.sendsTo {
		l.sendsTo[p] += ol.sendsTo[p]
		l.dropsTo[p] += ol.dropsTo[p]
		l.recvsFrom[p] += ol.recvsFrom[p]
		ol.sendsTo[p], ol.dropsTo[p], ol.recvsFrom[p] = 0, 0, 0
	}
	l.clock = max(l.clock, ol.clock)
	op := ol.stack[0]
	l.add(Event{Kind: KindAsyncWait, Op: op.op, Peer: -1, Step: op.step})
	ol.ev, ol.depth = ol.ev[:0], 0
}

// SpanState describes a log's innermost open span at query time, plus its
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

// Span returns the innermost open span. Callers must hold a happens-before
// edge on the log's writer: either its run finished, or it is provably
// blocked (the mesh's exchanger reads a receiver's span as it parks).
func (l *Log) Span() SpanState {
	t := l.top()
	if t == nil {
		return SpanState{Step: -1, Open: l.depth > 0}
	}
	return SpanState{Op: t.op, Step: t.step, Sends: t.sends, Recvs: t.recvs, Open: true}
}

// window returns the sequence numbers [start, end) a chip's ring still
// holds.
func (l *Log) window() (start, end uint64) {
	end = l.seq
	if end > uint64(len(l.ev)) {
		start = end - uint64(len(l.ev))
	}
	return start, end
}

// at returns the held event with sequence number seq.
func (l *Log) at(seq uint64) Event { return l.ev[seq%uint64(len(l.ev))] }

// Recorder is the mesh-wide flight recorder: one ring-backed Log per rank.
type Recorder struct {
	chips    []*Log
	capacity int
}

// DefaultCapacity is the per-chip event-ring capacity New uses when the
// caller passes a non-positive one.
const DefaultCapacity = 4096

// New returns a recorder for the given number of chips, each with a ring
// holding capacity events (DefaultCapacity when capacity <= 0). All chip
// storage is allocated here; recording on a chip never allocates.
func New(chips, capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	r := &Recorder{chips: make([]*Log, chips), capacity: capacity}
	for i := range r.chips {
		r.chips[i] = newLog(make([]Event, capacity), chips)
	}
	return r
}

// Chips returns the number of chips the recorder covers.
func (r *Recorder) Chips() int { return len(r.chips) }

// Chip returns the log of rank chip.
func (r *Recorder) Chip(chip int) *Log { return r.chips[chip] }

// NewOpLog returns an empty op log sized for this recorder's chip count.
// lint:allow hotpath-alloc pool-miss constructor: one op log per pooled handle, first use only
func (r *Recorder) NewOpLog() *Log { return newLog(nil, len(r.chips)) }

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
