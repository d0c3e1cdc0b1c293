package mesh

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"
	"sync"

	"meshslice/internal/obs/recorder"
	"meshslice/internal/tensor"
	"meshslice/internal/topology"
)

// Asynchronous collective engine: StartAsync hands a ring operation to a
// per-chip, per-direction background comm worker and returns a Handle the
// chip goroutine Waits on later — the mechanism the pipelined GeMM
// schedules use to run one slice's AllGather/ReduceScatter underneath
// another slice's MatMul.
//
// Discipline (what makes this safe on the existing exchanger):
//
//   - One worker per (chip, direction). A chip may have ops in flight on
//     its row and column rings simultaneously — their edge sets are
//     disjoint — but ops on one ring execute serially in issue order, so
//     the per-edge FIFO mailboxes still deliver ring steps in program
//     order without any message tagging.
//   - Compute stays on the chip goroutine. The worker only moves data
//     (arena buffers via SendOwned/AcquireBuf), so accumulation order —
//     and therefore every numeric result — is untouched by overlap.
//   - Wait is a deterministic program point. With a recorder attached the
//     op records into its own op log (a recorder.Log the handle keeps),
//     never into the chip's ring, and the chip merges that log into its
//     ring there, so canonical exports stay byte-identical across runs and
//     GOMAXPROCS.
//   - Teardown is unconditional: runAll drains every outstanding handle
//     before a chip retires, whether its body returned or panicked, so
//     workers never outlive the run and buffer ownership stays balanced.
//
// Failure semantics mirror the synchronous paths: a worker blocked in recv
// participates in the quiescence predicate (a stall is declared only when
// every chip goroutine AND every worker is provably parked), fault-injected
// drops/delays/fail-stops fire through the same interposer, and any panic a
// worker recovers is re-raised on the issuing chip at Wait (or during the
// teardown drain), where RunE types it exactly as if the chip had run the
// collective inline.

// AsyncOp is the body of an asynchronous collective: the ring loop a
// background comm worker executes against a worker-bound view of the
// issuing chip's communicator. a and b are the op's operand/destination
// matrices; arg carries an op-specific scalar (e.g. a shift distance).
// Implementations must be static functions — StartAsync is on the
// steady-state hot path, and closures would allocate per issue.
type AsyncOp func(cm *Comm, a, b *tensor.Matrix, arg int)

// hState is a Handle's lifecycle state, guarded by the exchanger mutex.
type hState uint8

const (
	hQueued hState = iota
	hDone
)

// Handle is an in-flight asynchronous collective. Exactly one Wait (on the
// issuing chip's goroutine) must eventually balance every StartAsync; a
// handle the chip body leaks is drained — and its panic, if any, re-raised
// — during teardown, and meshlint's buf-ownership rule flags the leak
// statically.
type Handle struct {
	chip *Chip

	// Immutable after issue.
	op         recorder.Op
	ord        int
	issueClock uint64
	fn         AsyncOp
	m1, m2     *tensor.Matrix
	arg        int

	// Communicator binding, snapshotted at issue so the worker executes
	// against the same ring regardless of what the chip does next.
	dir       topology.Direction
	members   []int
	size, pos int

	// log is the op's flight record (nil without a recorder), merged into
	// the chip's log at Wait.
	log *recorder.Log

	// sendNext and sendEnd bound the send numbers the op reserved at issue
	// (see Chip.sendNumber); the worker advances sendNext.
	sendNext, sendEnd int

	// Guarded by the exchanger mutex.
	state    hState
	panicVal any
	awaited  bool
	// nextAwait chains the exchanger's intrusive list of handles whose
	// chips are parked in Wait — the quiescence predicate scans it so a
	// completed-but-not-yet-resumed wait never counts as a stall.
	nextAwait *Handle
}

// asyncState is the per-chip asynchronous-collective state. It hangs off
// the chip as a pointer so WithRings views share it: handles issued through
// any view of the chip drain through the one teardown path.
type asyncState struct {
	// cond parks the chip goroutine in Handle.Wait (L is the exchanger
	// mutex, set when the chip starts). A comm lane signals it when it
	// completes a handle the chip is waiting on; stall and poison wake it
	// through the exchanger's awaitList.
	cond    sync.Cond
	workers [3]*asyncWorker
	// outstanding lists issued-but-not-waited handles in issue order.
	outstanding []*Handle
	// hfree pools retired handles (chip-goroutine-local, no lock).
	hfree []*Handle
	// seq numbers the chip's async ops for the flight recorder.
	seq int
	// sends is the number the chip's next send gets (see Chip.sendNumber).
	sends int
}

// asyncWorker is one background comm lane: a goroutine executing one
// chip's asynchronous ops for one ring direction, serially in issue order.
type asyncWorker struct {
	owner *Chip
	dir   topology.Direction
	// lane is the recorder lane (1 + direction; 0 is the chip goroutine).
	lane int
	// wchip is the worker-bound view of the owner chip: same rank and
	// mesh, but isWorker set and log pointed at the running op's log, so
	// the exchanger and the arena route accounting to the right context.
	wchip *Chip

	// cond parks the worker when its queue is empty. Like every cond in
	// the runtime it is bound to the exchanger mutex, and only this lane's
	// enqueues (StartAsync) and teardown (closeWorkers) signal it: message
	// traffic wakes edge conds, op completions the issuing chip's cond.
	cond *sync.Cond
	// queue/head form a deque of pending handles (exchanger-mutex-guarded;
	// popped storage is reused like the exchanger mailboxes).
	queue []*Handle
	head  int
	// idle is true while the worker is parked on cond (mutex-guarded; the
	// enqueuer clears it, keeping the quiescence counters exact).
	idle bool

	// clock is the lane's Lamport clock after its last op, threaded into
	// the next op's log so same-lane span clocks stay monotone even when
	// op s+1 is issued before op s is waited. Worker-goroutine-local.
	clock uint64
	// failed latches the first panic an op raised: every later op on this
	// lane completes immediately with the same value (fail-fast), so a
	// drain never blocks behind a lane that already died.
	failed any
	// comm is the reusable communicator value ops execute against
	// (worker-goroutine-local; rebound per op to avoid allocating).
	comm Comm
}

// StartAsync hands fn to this communicator's background comm lane and
// returns its handle. The caller must not touch matrices the op writes
// until Wait returns; matrices the op only reads (via cloning Send) may be
// read concurrently, so a and b must be different matrices: an op whose
// destination is its input panics here. Issue order is execution order per
// direction. sends is how many messages fn sends: the chip numbers them
// here, in its issue order, as if the op ran inline (see SetFaults), and an
// op that sends more panics.
// lint:hotpath steady-state issue: must not allocate
func (cm *Comm) StartAsync(op recorder.Op, fn AsyncOp, a, b *tensor.Matrix, arg, sends int) *Handle {
	c := cm.chip
	if c.isWorker || c.async == nil {
		panic("mesh: StartAsync requires a chip-goroutine communicator") // lint:invariant async ops issue from chip goroutines only
	}
	if a == b {
		panic(fmt.Sprintf("mesh: async %s writes its own input; dst must be a different matrix", op)) // lint:invariant an op whose dst is its input races the issuer's reads
	}
	h := c.getHandle()
	h.chip = c
	h.op, h.fn, h.m1, h.m2, h.arg = op, fn, a, b, arg
	h.dir, h.members, h.size, h.pos = cm.dir, cm.members, cm.Size, cm.Pos
	h.ord = c.async.seq
	c.async.seq++
	h.sendNext, h.sendEnd = c.async.sends, c.async.sends+sends
	c.async.sends = h.sendEnd
	h.state = hQueued
	h.panicVal = nil
	h.issueClock = 0
	if l := c.log; l != nil {
		h.issueClock = l.AsyncIssue(op, h.ord)
		if h.log == nil {
			h.log = c.mesh.rec.NewOpLog() // lint:allow hotpath-alloc one op log per pooled handle, first use only
		}
	} else {
		h.log = nil
	}
	c.async.outstanding = append(c.async.outstanding, h) // lint:allow hotpath-alloc outstanding-list growth: capacity is reused across ops
	w := c.ensureWorker(cm.dir)
	e := c.mesh.ex
	e.mu.Lock()
	w.queue = append(w.queue, h) // lint:allow hotpath-alloc worker-queue growth: capacity is reused after pops
	if w.idle {
		w.idle = false
		e.widle--
	}
	w.cond.Signal()
	e.mu.Unlock()
	return h
}

// Wait blocks until the op completes, merges its flight record into the
// chip's log, recycles the handle, and re-raises any panic the op hit —
// typed fault-injection outcomes included, so RunE classifies an overlapped
// failure exactly like an inline one. Must be called on the issuing chip's
// goroutine, at most once per handle.
// lint:hotpath steady-state completion: must not allocate
func (h *Handle) Wait() {
	c := h.chip
	c.mesh.ex.waitHandle(h, true)
	c.removeOutstanding(h)
	pv := h.panicVal
	if h.log != nil {
		c.log.Merge(h.log)
	}
	c.putHandle(h)
	if pv != nil {
		panic(pv) // lint:invariant re-raises the overlapped op's panic at its deterministic wait point
	}
}

// getHandle pops a pooled handle, or allocates the pool's next one.
// lint:hotpath steady-state issue: must not allocate
func (c *Chip) getHandle() *Handle {
	fl := c.async.hfree
	if n := len(fl); n > 0 {
		h := fl[n-1]
		fl[n-1] = nil
		c.async.hfree = fl[:n-1]
		return h
	}
	return &Handle{} // lint:allow hotpath-alloc handle-pool miss: one per concurrently-in-flight op, then reused
}

// putHandle returns a retired handle to the chip's pool, dropping the
// operand references so pooled handles don't pin matrices.
// lint:hotpath steady-state completion: must not allocate
func (c *Chip) putHandle(h *Handle) {
	h.fn, h.m1, h.m2, h.members, h.panicVal = nil, nil, nil, nil, nil
	c.async.hfree = append(c.async.hfree, h) // lint:allow hotpath-alloc handle-pool growth: capacity is reused across ops
}

// removeOutstanding unlinks h from the chip's issue-order list (chip-local;
// waits usually retire the head, so the scan is O(1) in practice).
// lint:hotpath steady-state completion: must not allocate
func (c *Chip) removeOutstanding(h *Handle) {
	out := c.async.outstanding
	for i, o := range out {
		if o == h {
			copy(out[i:], out[i+1:])
			out[len(out)-1] = nil
			c.async.outstanding = out[:len(out)-1]
			return
		}
	}
}

// drainAsync retires every handle the chip body issued but never waited:
// teardown calls it on both the normal and the panicking return path, so
// workers always quiesce and pooled buffers the ops circulated stay
// balanced. completed tells it whether the body finished cleanly — if so, a
// drained op's panic is re-raised (a leaked handle must not swallow a typed
// fault outcome); if the body itself is already panicking, op panics are
// recorded but swallowed, preserving the original failure.
func (c *Chip) drainAsync(completed bool) {
	var firstPanic any
	for _, h := range c.async.outstanding {
		c.mesh.ex.waitHandle(h, false)
		if h.panicVal != nil && firstPanic == nil {
			firstPanic = h.panicVal
			if completed {
				// The body finished cleanly but an overlapped op failed:
				// poison now so peer chips abort instead of stalling while
				// the rest of the drain runs.
				c.mesh.ex.poison()
			}
		}
		// Merge even on failure paths: the op's recorded sends must reach
		// the chip log before forensics reads the message frontier.
		if h.log != nil {
			c.log.Merge(h.log)
		}
		c.putHandle(h)
	}
	c.async.outstanding = c.async.outstanding[:0]
	if completed && firstPanic != nil {
		panic(firstPanic) // lint:invariant re-raises a leaked overlapped op's panic, documented SPMD failure semantics
	}
}

// ensureWorker returns the chip's background comm worker for dir, spawning
// it on first use. Cold path: at most one spawn per chip per direction per
// run; runAll joins every worker (exchanger.closeWorkers) before the run
// returns.
// lint:allow hotpath-alloc worker spawn is once per chip per direction per run, then reused
func (c *Chip) ensureWorker(d topology.Direction) *asyncWorker {
	if w := c.async.workers[d]; w != nil {
		return w
	}
	e := c.mesh.ex
	w := &asyncWorker{owner: c, dir: d, lane: 1 + int(d)}
	w.cond = sync.NewCond(&e.mu)
	wc := *c
	wc.isWorker = true
	wc.log = nil
	wc.async = nil
	wc.rowRing, wc.colRing = nil, nil
	wc.scratch = c.mesh.laneOf(c.Rank, w.lane)
	w.wchip = &wc
	c.async.workers[d] = w
	e.mu.Lock()
	e.wlive++
	e.workers = append(e.workers, w)
	e.mu.Unlock()
	e.workersWG.Add(1)
	// Joined deterministically: closeWorkers signals and waits for every
	// worker after all chip goroutines finish, before the run returns.
	go w.run() // lint:allow goroutine-discipline joined via exchanger.closeWorkers' WaitGroup at end of run
	return w
}

// run is the worker loop: pop the next handle in issue order, execute it
// outside the exchanger lock, mark it done. Exits when the run's teardown
// sets workersClosing (the queue is provably empty by then — every handle
// was drained before any chip retired).
func (w *asyncWorker) run() {
	e := w.owner.mesh.ex
	defer e.workersWG.Done()
	pprof.Do(context.Background(), pprof.Labels(
		"chip", strconv.Itoa(w.owner.Rank), "lane", w.dir.String(),
	), func(context.Context) {
		e.mu.Lock()
		for {
			for w.head == len(w.queue) && !e.workersClosing {
				w.idle = true
				e.widle++
				e.maybeStall()
				w.cond.Wait()
				if w.idle {
					// Woken for closing (an enqueue clears idle itself).
					w.idle = false
					e.widle--
				}
			}
			if w.head == len(w.queue) {
				e.wlive--
				e.mu.Unlock()
				return
			}
			h := w.queue[w.head]
			w.queue[w.head] = nil
			w.head++
			if w.head == len(w.queue) {
				w.queue = w.queue[:0]
				w.head = 0
			}
			e.mu.Unlock()
			w.exec(h)
			e.mu.Lock()
			h.state = hDone
			if h.awaited {
				h.chip.async.cond.Signal()
			}
		}
	})
}

// exec runs one handle's op on the worker goroutine, recovering any panic
// into the handle for re-raise at the chip's wait point. After a panic the
// lane is dead: subsequent handles complete immediately with the same
// value, so drains never hang behind a failed lane.
func (w *asyncWorker) exec(h *Handle) {
	if w.failed != nil {
		h.panicVal = w.failed
		return
	}
	defer func() {
		if p := recover(); p != nil {
			h.panicVal = p
			w.failed = p
			w.wchip.log = nil
		}
	}()
	if h.log != nil {
		h.log.Begin(h.op, h.ord, w.lane, h.issueClock, w.clock)
		w.wchip.log = h.log
	}
	w.wchip.op = h
	w.comm = Comm{chip: w.wchip, dir: h.dir, members: h.members, Size: h.size, Pos: h.pos}
	h.fn(&w.comm, h.m1, h.m2, h.arg)
	if h.log != nil {
		h.log.SpanEnd(h.op)
		w.clock = h.log.Clock()
		w.wchip.log = nil
	}
}

// waitHandle parks the calling chip goroutine until h completes. strict
// (Handle.Wait) makes poison and quiescence stalls panic exactly like a
// blocked receive; the tolerant form (teardown drain) parks through them —
// under poison or a declared stall every in-flight handle provably
// completes (a blocked worker's receive panics and is recovered into the
// handle), so the drain always terminates.
// lint:hotpath steady-state completion: must not allocate
func (e *exchanger) waitHandle(h *Handle, strict bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for h.state != hDone {
		if strict {
			if e.poisoned {
				panic(errPeerFailed) // lint:invariant aborts wait after peer failure
			}
			if e.stalled {
				panic(&RecvStallError{Edges: e.stallEdges, Waits: e.stallWaits}) // lint:invariant quiescence-proved stall, recovered and typed by RunE
			}
		}
		h.awaited = true
		h.nextAwait = e.awaitList
		e.awaitList = h
		e.awaiting++
		e.maybeStall()
		h.chip.async.cond.Wait()
		e.awaiting--
		e.removeAwait(h)
	}
}

// removeAwait unlinks h from the awaited-handle list (mutex held).
// lint:hotpath steady-state completion: must not allocate
func (e *exchanger) removeAwait(h *Handle) {
	for p := &e.awaitList; *p != nil; p = &(*p).nextAwait {
		if *p == h {
			*p = h.nextAwait
			h.nextAwait = nil
			h.awaited = false
			return
		}
	}
}

// closeWorkers retires every background comm worker spawned this run. All
// chips have drained their handles by the time runAll calls this, so every
// worker is idle; flagging workersClosing and waking them lets each exit,
// and the WaitGroup join makes worker shutdown happen-before reset.
func (e *exchanger) closeWorkers() {
	e.mu.Lock()
	if len(e.workers) == 0 {
		e.mu.Unlock()
		return
	}
	e.workersClosing = true
	for _, w := range e.workers {
		w.cond.Signal()
	}
	e.mu.Unlock()
	e.workersWG.Wait()
	e.mu.Lock()
	e.workers = nil
	e.workersClosing = false
	e.mu.Unlock()
}
