package mesh

import (
	"runtime"
	"sync"

	"meshslice/internal/fault"
	"meshslice/internal/obs/recorder"
	"meshslice/internal/tensor"
)

// exchanger is the in-memory stand-in for the ICI fabric: an unbounded FIFO
// mailbox per ordered (sender, receiver) pair. Sends never block — like a
// DMA engine writing into the receiver's HBM — which makes the symmetric
// send-then-receive patterns of ring algorithms deadlock-free without
// requiring chips to agree on call ordering.
//
// Every directed edge owns one slot of a slab allocated with the mesh,
// edges[from·n + to]: its FIFO, its traffic counters and the condition
// variable its receivers park on. A send touches only its own slot and
// signals only that slot's cond, so it wakes one receiver parked on that
// edge and nobody else; a comm-lane completion signals only the issuing
// chip (asyncState.cond). Every cond is bound to the one exchanger mutex,
// which also guards the quiescence counters below: one lock, one lock order.
//
// The exchanger doubles as the fault-injection interposer (SetFaults):
// delayed edges yield the receiving goroutine to the scheduler, dropped
// messages vanish at send, and fail-stopped chips abort at a configured
// send count. A quiescence detector turns the resulting permanent stalls
// into typed panics: when every alive chip is blocked in recv on an empty
// mailbox, no message can ever arrive again — only chip goroutines send —
// so the stall is provable, not a timeout heuristic. Targeted wake-ups keep
// it a proof: parking, waking and counting all happen under the mutex, and
// declaring a stall or poisoning a failed run wakes every parked edge and
// every waiting chip.
type exchanger struct {
	mu       sync.Mutex
	n        int    // chips in the mesh; edge (from, to) is slot from·n + to
	edges    []edge // n² slots, allocated once by newExchanger
	poisoned bool

	// Fault injection (configured by setFaults before a run; read-only
	// while chips execute). delays is keyed by directed edge and counted
	// in scheduler yields; drops maps an edge to the 0-based send indices
	// to discard; chipFails maps a rank to the send count it dies at.
	delays    map[pair]int
	drops     map[pair]map[int]bool
	chipFails map[int]int

	// Per-run fault progress, cleared by beginRun (nil without a fault
	// plan): messages sent per edge (for drop matching) and per chip (for
	// failure matching).
	edgeSends map[pair]int
	chipSends map[int]int

	// Quiescence detection: alive counts chip goroutines still running,
	// waiting counts those blocked in recv, awaiting those parked in
	// Handle.Wait, parked the slots blocked receives (chip or worker) are
	// parked on, ascending — which is (from, to) order. stalled flips once
	// every alive chip and every live background comm worker is provably
	// parked; stallEdges snapshots the blocked edges for the typed error,
	// stallWaits the same edges enriched with each blocked receiver's open
	// span, captured into waitSpans at park time so an overlapped op names
	// itself rather than whatever span its issuing chip has open. waitSpans
	// is non-nil exactly while a recorder is attached (Mesh.SetRecorder).
	alive      int
	waiting    int
	awaiting   int
	parked     []int
	waitSpans  map[int]recorder.SpanState
	stalled    bool
	stallEdges []Edge
	stallWaits []EdgeWait

	// Background comm workers (see async.go): wlive counts spawned workers,
	// widle those parked on an empty queue, wblocked those parked inside
	// recv. awaitList chains the handles chips are currently parked on, so
	// a completed-but-not-yet-resumed Wait never reads as a stall.
	wlive, widle, wblocked int
	workersClosing         bool
	awaitList              *Handle
	workers                []*asyncWorker
	workersWG              sync.WaitGroup
}

type pair struct{ from, to int }

// envelope is one in-flight message: the payload plus the sender's Lamport
// stamp at send time (zero when no recorder is attached), which the
// receiver merges into its own clock on delivery.
type envelope struct {
	m     *tensor.Matrix
	clock uint64
}

// edge is one directed (sender, receiver) slot. Its mailbox is a deque over
// a reusable slice: popping advances head instead of reslicing the front
// away, and pushing onto a drained mailbox rewinds to the slice start — so
// steady-state ring traffic reuses one small backing array per edge, run
// after run. elems and msgs count the edge's traffic since the last
// resetStats; waiters counts receivers parked on cond, which is created at
// the edge's first park.
type edge struct {
	buf     []envelope
	head    int32
	waiters int32
	elems   int64
	msgs    int64
	cond    *sync.Cond
}

// pending returns the number of undelivered messages.
func (ed *edge) pending() int { return len(ed.buf) - int(ed.head) }

func (ed *edge) push(env envelope) {
	if ed.head > 0 && int(ed.head) == len(ed.buf) {
		ed.buf = ed.buf[:0]
		ed.head = 0
	}
	ed.buf = append(ed.buf, env) // lint:allow hotpath-alloc deque growth: capacity is reused after pops and across runs
}

func (ed *edge) pop() envelope {
	env := ed.buf[ed.head]
	ed.buf[ed.head] = envelope{}
	ed.head++
	return env
}

// rewind drops undelivered messages, keeping the backing array.
func (ed *edge) rewind() {
	clear(ed.buf[ed.head:])
	ed.buf, ed.head = ed.buf[:0], 0
}

// errPeerFailed is the sentinel panic value raised by receives that were
// aborted because another chip failed; Run reports it only when no chip
// carries an original failure.
const errPeerFailed = "mesh: receive aborted because a peer chip failed"

func newExchanger(n int) *exchanger {
	return &exchanger{n: n, edges: make([]edge, n*n)}
}

// setFaults installs (or, with an empty plan, removes) the fault plan.
// Duplicate delay edges accumulate; duplicate chip failures keep the
// earliest send count.
func (e *exchanger) setFaults(f fault.MeshFaults) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.delays, e.drops, e.chipFails = nil, nil, nil
	e.edgeSends, e.chipSends = nil, nil
	if f.Empty() {
		return
	}
	e.delays = make(map[pair]int)
	for _, d := range f.Delays {
		e.delays[pair{d.From, d.To}] += d.Yields
	}
	e.drops = make(map[pair]map[int]bool)
	for _, d := range f.Drops {
		k := pair{d.From, d.To}
		if e.drops[k] == nil {
			e.drops[k] = make(map[int]bool)
		}
		e.drops[k][d.Nth] = true
	}
	e.chipFails = make(map[int]int)
	for _, c := range f.ChipFails {
		if at, ok := e.chipFails[c.Chip]; !ok || c.AfterSends < at {
			e.chipFails[c.Chip] = c.AfterSends
		}
	}
	e.edgeSends = make(map[pair]int)
	e.chipSends = make(map[int]int)
}

// beginRun arms the per-run counters for n chip goroutines.
func (e *exchanger) beginRun(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.alive = n
	e.waiting = 0
	e.awaiting = 0
	e.wlive, e.widle, e.wblocked = 0, 0, 0
	e.workersClosing = false
	e.awaitList = nil
	e.workers = nil
	e.stalled = false
	e.stallEdges = nil
	clear(e.waitSpans)
	clear(e.edgeSends)
	clear(e.chipSends)
}

// chipDone retires a finished (or panicked) chip goroutine: it will never
// send again, so the remaining waiters may now constitute a stall.
func (e *exchanger) chipDone() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.alive--
	e.maybeStall()
}

// maybeStall declares a permanent stall when every alive chip goroutine is
// blocked (in recv or in Handle.Wait) and every live background comm
// worker is parked (idle or blocked in recv): only those contexts ever
// send, so no blocked receive can complete. Callers hold e.mu.
// lint:allow hotpath-alloc stall declaration is terminal fault handling, not steady state
func (e *exchanger) maybeStall() {
	if e.stalled || e.poisoned || e.alive <= 0 || e.waiting+e.awaiting < e.alive {
		return
	}
	if e.wblocked+e.widle < e.wlive {
		return
	}
	// A receiver woken by a send stays counted in waiting until it
	// actually resumes; if any parked edge has a message, that wake-up is
	// in flight and the system is not quiescent.
	for _, i := range e.parked {
		if e.edges[i].pending() > 0 {
			return
		}
	}
	// Likewise a completed handle whose chip has not resumed yet: the
	// chip's wake-up is in flight, not lost.
	for h := e.awaitList; h != nil; h = h.nextAwait {
		if h.state == hDone {
			return
		}
	}
	e.stalled = true
	e.stallEdges = make([]Edge, len(e.parked))
	for j, i := range e.parked {
		e.stallEdges[j] = Edge{From: i / e.n, To: i % e.n}
	}
	if e.waitSpans != nil {
		// Attribute each blocked edge to its receiver's open span, captured
		// into waitSpans when the receiver parked — a chip receiver's
		// innermost collective span, or the overlapped op's own span when a
		// background comm worker is the one blocked.
		e.stallWaits = make([]EdgeWait, len(e.parked))
		for j, i := range e.parked {
			w := EdgeWait{Edge: e.stallEdges[j], Step: -1}
			if s, ok := e.waitSpans[i]; ok && s.Open && s.Op != recorder.OpNone {
				w.Op = s.Op.String()
				w.Step = int(s.Recvs)
			}
			e.stallWaits[j] = w
		}
	}
	e.wakeAll()
}

// wakeAll wakes every receiver parked on an edge and every chip parked in
// Handle.Wait, so each re-checks the stalled/poisoned flags. Callers hold
// e.mu.
func (e *exchanger) wakeAll() {
	for _, i := range e.parked {
		e.edges[i].cond.Broadcast()
	}
	for h := e.awaitList; h != nil; h = h.nextAwait {
		h.chip.async.cond.Signal()
	}
}

// park registers a receiver on slot i, creating the slot's cond at its
// first park and keeping parked ascending. Callers hold e.mu.
func (e *exchanger) park(i int) {
	ed := &e.edges[i]
	if ed.cond == nil {
		ed.cond = sync.NewCond(&e.mu) // lint:allow hotpath-alloc one cond per edge, at its first park
	}
	ed.waiters++
	if ed.waiters > 1 {
		return
	}
	j := len(e.parked)
	e.parked = append(e.parked, i) // lint:allow hotpath-alloc parked-list growth: capacity is reused across parks and runs
	for ; j > 0 && e.parked[j-1] > i; j-- {
		e.parked[j] = e.parked[j-1]
	}
	e.parked[j] = i
}

// unpark retires a receiver from slot i. Callers hold e.mu.
func (e *exchanger) unpark(i int) {
	ed := &e.edges[i]
	ed.waiters--
	if ed.waiters > 0 {
		return
	}
	for j, p := range e.parked {
		if p == i {
			copy(e.parked[j:], e.parked[j+1:])
			e.parked = e.parked[:len(e.parked)-1]
			return
		}
	}
}

// send enqueues m on edge (c.Rank, to) and wakes one receiver parked on
// that edge, if any.
// lint:hotpath fault-free send: one slot update, no map operation
func (e *exchanger) send(c *Chip, to int, m *tensor.Matrix, clock uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	// setFaults arms every fault map or none.
	if e.chipFails != nil && e.sendFault(c, to) {
		return
	}
	ed := &e.edges[c.Rank*e.n+to]
	ed.push(envelope{m: m, clock: clock})
	ed.elems += int64(m.Rows) * int64(m.Cols)
	ed.msgs++
	if ed.waiters > 0 {
		ed.cond.Signal()
	}
}

// sendFault applies the fault plan to one send: it panics when the sender
// fail-stops here and reports whether the message is dropped. Callers hold
// e.mu.
// lint:allow hotpath-alloc fault injection is off the fault-free path
func (e *exchanger) sendFault(c *Chip, to int) bool {
	from := c.Rank
	if at, ok := e.chipFails[from]; ok && e.chipSends[from] >= at {
		sends := e.chipSends[from]
		op, step := "", -1
		if l := c.log; l != nil {
			// Record in the sender's own log: a background comm worker's
			// fail-stop lands in its op's log, whose span names the
			// overlapped op. The fatal send was already recorded by the
			// Chip method, so the span's send count is one past it.
			l.ChipFail(sends)
			if s := l.Span(); s.Open && s.Op != recorder.OpNone {
				op, step = s.Op.String(), int(s.Sends)-1
			}
		}
		panic(&ChipFailedError{Chip: from, Sends: sends, Op: op, Step: step}) // lint:invariant injected fail-stop, recovered and typed by RunE
	}
	e.chipSends[from]++
	k := pair{from, to}
	nth := e.edgeSends[k]
	e.edgeSends[k]++
	if !e.drops[k][nth] {
		return false
	}
	// The message vanishes on the wire: no mailbox append, no traffic
	// accounting — the receiver must detect the loss via the quiescence
	// stall, not here.
	if l := c.log; l != nil {
		l.FaultDrop(to)
	}
	return true
}

// recv pops the next message on edge (from, c.Rank), parking on that
// edge's cond while it is empty.
// lint:hotpath fault-free receive: one slot, parks on its own edge
func (e *exchanger) recv(c *Chip, from int) (*tensor.Matrix, uint64) {
	if e.delays != nil {
		e.recvDelay(c, from)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	i := from*e.n + c.Rank
	ed := &e.edges[i]
	for ed.pending() == 0 {
		if e.poisoned {
			// A peer chip panicked; give up instead of blocking forever.
			panic(errPeerFailed) // lint:invariant aborts receive after peer failure
		}
		if e.stalled {
			panic(&RecvStallError{Edges: e.stallEdges, Waits: e.stallWaits}) // lint:invariant quiescence-proved stall, recovered and typed by RunE
		}
		if l := c.log; l != nil {
			// Capture the parked receiver's open span now, while its own
			// context is provably at this park: stall forensics read it
			// later from whichever goroutine declares the stall.
			e.waitSpans[i] = l.Span()
		}
		if c.isWorker {
			e.wblocked++
		} else {
			e.waiting++
		}
		e.park(i)
		e.maybeStall()
		if !e.stalled {
			ed.cond.Wait()
		}
		if c.isWorker {
			e.wblocked--
		} else {
			e.waiting--
		}
		e.unpark(i)
	}
	env := ed.pop()
	return env.m, env.clock
}

// recvDelay yields the receiver to the scheduler for a degraded edge:
// arrival order across chips shifts exactly as behind a slow link, while
// payloads and per-edge FIFO order — hence all numerics — stay untouched.
// lint:allow hotpath-alloc fault injection is off the fault-free path
func (e *exchanger) recvDelay(c *Chip, from int) {
	n := e.delays[pair{from, c.Rank}]
	if n <= 0 {
		return
	}
	if l := c.log; l != nil {
		l.FaultDelay(from, n)
	}
	for i := 0; i < n; i++ {
		runtime.Gosched()
	}
}

// poison wakes every blocked receiver and waiting chip so a panicking SPMD
// run terminates.
func (e *exchanger) poison() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.poisoned = true
	e.wakeAll()
}

// reset clears leftover state between SPMD runs on the same mesh: the
// mailboxes rewind in place, the traffic counters survive so callers can
// read them after Run returns, and the fault plan survives so repeated runs
// replay identical faults.
func (e *exchanger) reset() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range e.edges {
		e.edges[i].rewind()
	}
	e.parked = e.parked[:0]
	e.poisoned = false
	e.stalled = false
	e.stallEdges = nil
	e.stallWaits = nil
	e.waiting = 0
	e.awaiting = 0
	e.awaitList = nil
	e.wlive, e.widle, e.wblocked = 0, 0, 0
	e.workersClosing = false
	e.workers = nil
}

// stats snapshots the traffic counters. An edge that carried a message
// counts even when every message on it had zero elements.
func (e *exchanger) stats() Traffic {
	e.mu.Lock()
	defer e.mu.Unlock()
	t := Traffic{PerSender: make(map[int]int64)}
	for i := range e.edges {
		ed := &e.edges[i]
		if ed.msgs == 0 {
			continue
		}
		t.Messages += ed.msgs
		t.Elements += ed.elems
		t.PerSender[i/e.n] += ed.elems
	}
	return t
}

// resetStats zeroes the traffic counters.
func (e *exchanger) resetStats() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range e.edges {
		e.edges[i].elems, e.edges[i].msgs = 0, 0
	}
}
