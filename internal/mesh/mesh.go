// Package mesh provides a functional SPMD runtime standing in for a real
// accelerator mesh: one goroutine per chip, an in-memory exchanger standing
// in for the ICI links, and row/column communicators over which the ring
// collectives (package collective) and the distributed GeMM algorithms
// (package gemm) move real matrix shards.
//
// This runtime is the correctness substrate of the reproduction — the paper
// runs its implementation on Jax/TPUv4, we run ours here and verify every
// distributed GeMM against a single-node reference multiplication.
// Performance is modelled separately by the discrete-event simulator
// (package netsim); nothing here keeps time.
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

// Mesh is a Pr×Pc grid of logical chips sharing an exchanger.
type Mesh struct {
	Torus topology.Torus
	ex    *exchanger
	// pool recycles collective scratch buffers across calls (see AcquireBuf).
	pool *bufPool
	// scratch holds every chip's arena lanes, scratchLanes per rank (see
	// Chip.Scratch).
	scratch []scratchLane
	// slab is what the pool's and the lanes' misses carve from, taken
	// from the process-wide store by New and given back by Close.
	slab   slab
	closed bool
	// rec, when set, records every send/recv/span/buffer/fault event with
	// Lamport clocks (see SetRecorder).
	rec *recorder.Recorder
}

// Traffic summarises the data movement of functional runs: total matrix
// elements sent, total messages, and elements sent per chip. Its readers
// are the §2.3.1 traffic tests (package gemm checks every distributed
// algorithm against the paper's analytical formulas), the transformer's
// traffic report (transformer.Forward), and the benchmark's gemm
// workloads, which report per-run message and element counts. Per-op and
// per-edge detail lives in the flight recorder (SetRecorder).
type Traffic struct {
	Elements  int64
	Messages  int64
	PerSender map[int]int64
}

// Traffic returns the accumulated traffic counters since the last
// ResetTraffic (counters survive across Run calls).
func (m *Mesh) Traffic() Traffic { return m.ex.stats() }

// ResetTraffic zeroes the traffic counters.
func (m *Mesh) ResetTraffic() { m.ex.resetStats() }

// SetRecorder attaches a flight recorder to the mesh (pass nil to detach).
// Every chip then records its sends, receives, collective spans, buffer
// arena transitions and fault-interposer events, stamped with Lamport
// clocks carried on every message. Like SetFaults, this must not be called
// while a run is in flight. The recorder must cover at least
// m.Torus.Size() chips (recorder.New(m.Torus.Size(), capacity)); a smaller
// one panics here.
func (m *Mesh) SetRecorder(r *recorder.Recorder) {
	if r != nil && r.Chips() < m.Torus.Size() {
		panic(fmt.Sprintf("mesh: recorder covers %d chips, the %d-chip mesh needs one per chip", r.Chips(), m.Torus.Size())) // lint:invariant recorder-coverage precondition
	}
	m.rec = r
	m.ex.waitSpans = nil
	if r != nil {
		m.ex.waitSpans = make(map[int]recorder.SpanState)
	}
}

// New creates a mesh with the given torus shape. It takes the slab the
// last closed mesh gave back (see Close).
func New(t topology.Torus) *Mesh {
	m := &Mesh{Torus: t, ex: newExchanger(t), scratch: make([]scratchLane, t.Size()*scratchLanes)}
	buf := slabs.Take(0)
	m.slab.buf = buf[:cap(buf)]
	m.pool = newBufPool(&m.slab)
	return m
}

// MaxStreamStarts bounds how many ring streams one chip may start without
// an intervening receive. Starting a stream (BroadcastInto's root,
// ReduceInto's journey starter) acquires a scratch buffer and hands it to
// the fabric, which is an unbounded FIFO: a tight same-root loop with no
// receive would pin one in-flight buffer per call, unboundedly. Any receive
// proves the chip is draining the ring and resets the count. The cap
// matches the arena's per-shape retention (maxPooledPerShape), so a
// compliant program's streams always recycle pooled buffers.
const MaxStreamStarts = 64

// Chip is the per-goroutine handle an SPMD function receives: its own
// coordinate plus communicators for its row ring and column ring.
type Chip struct {
	Coord topology.Coord
	Rank  int
	mesh  *Mesh
	// rowRing/colRing, when set, override the torus-derived ring
	// memberships (see WithRings).
	rowRing, colRing []int
	// streamStarts counts ring streams started since the last receive
	// (see MaxStreamStarts).
	streamStarts int
	// log, when a recorder is attached, is where this view records: the
	// chip's own ring on the chip goroutine, or the op log of the op in
	// flight on a worker view. isWorker marks the view a background comm
	// worker executes asynchronous collectives through (see async.go);
	// workers never write the chip's ring, which the chip goroutine owns
	// exclusively.
	log      *recorder.Log
	isWorker bool
	// async holds the chip's asynchronous-collective state, shared by
	// every view of the chip (WithRings copies the pointer, worker views
	// drop it).
	async *asyncState
	// scratch is the arena lane of the goroutine this view runs on: lane
	// 0 for the chip goroutine, its comm lane's for a worker view.
	scratch *scratchLane
	// op is the handle a worker view is executing (nil on the chip
	// goroutine): its sends take the numbers it reserved at issue.
	op *Handle
}

// WithRings returns a view of the chip whose row and column communicators
// use the given explicit member lists instead of the mesh torus — the hook
// that lets 2D SPMD code (the distributed GeMM algorithms) run inside one
// layer of a 3D arrangement, where the flat mesh's own torus does not
// describe the layer's rings. The chip's rank must appear in both lists.
func (c *Chip) WithRings(row, col []int) *Chip {
	c2 := *c
	c2.rowRing = append([]int(nil), row...)
	c2.colRing = append([]int(nil), col...)
	// Validate membership eagerly: CustomComm panics on violations.
	c.CustomComm(row, topology.InterCol)
	c.CustomComm(col, topology.InterRow)
	return &c2
}

// Run executes fn once per chip, each on its own goroutine, and waits for
// all of them. It panics (after all goroutines finish or deadlock is
// avoided) with the first chip panic, preserving SPMD failure semantics.
// With fault injection armed (SetFaults), injected outcomes also surface
// as panics here; RunE returns them as typed errors instead.
func (m *Mesh) Run(fn func(c *Chip)) {
	panics := m.runAll(fn)
	// Report the root cause: a chip that panicked on its own, not one that
	// merely aborted a receive because a peer had already failed.
	var fallback string
	for rank, p := range panics {
		if p == nil {
			continue
		}
		msg := fmt.Sprintf("mesh: chip %d panicked: %v", rank, p)
		if p == errPeerFailed {
			fallback = msg
			continue
		}
		panic(msg) // lint:invariant re-raises chip panic, documented SPMD failure semantics
	}
	if fallback != "" {
		panic(fallback) // lint:invariant re-raises chip panic, documented SPMD failure semantics
	}
}

// runAll spawns one goroutine per chip, waits for them all, and returns
// the recovered panic values by rank (the shared engine of Run and RunE).
func (m *Mesh) runAll(fn func(c *Chip)) []any {
	if m.closed {
		panic("mesh: Run on a closed mesh") // lint:invariant use-after-Close guard: the slab belongs to another mesh now
	}
	n := m.Torus.Size()
	m.ex.beginRun(n)
	var wg sync.WaitGroup
	wg.Add(n)
	panics := make([]any, n)
	for r := 0; r < n; r++ {
		go func(rank int) {
			defer wg.Done()
			// A finished chip will never send again; telling the exchanger
			// lets its quiescence detector exclude it (see chipDone).
			defer m.ex.chipDone()
			defer func() {
				if p := recover(); p != nil {
					panics[rank] = p
					// Unblock peers waiting on this chip forever.
					m.ex.poison()
				}
			}()
			// Label the goroutine so CPU/goroutine profiles attribute
			// samples to the chip they ran for (veScale-style per-rank
			// debugging of eager SPMD code).
			pprof.Do(context.Background(), pprof.Labels("chip", strconv.Itoa(rank)), func(context.Context) {
				c := &Chip{Coord: m.Torus.Coord(rank), Rank: rank, mesh: m, async: &asyncState{}, scratch: m.laneOf(rank, 0)}
				if m.rec != nil {
					c.log = m.rec.Chip(rank)
				}
				c.async.cond.L = &m.ex.mu
				completed := false
				// Retire any asynchronous collectives the body issued but
				// never waited — on the normal AND the panicking path — so
				// background workers always quiesce before this chip counts
				// as done. This defer runs before chipDone/poison above.
				defer func() {
					if len(c.async.outstanding) == 0 {
						return
					}
					if !completed {
						// The body is already panicking: poison first so
						// workers blocked in receives abort instead of
						// stalling the drain on a half-run collective.
						m.ex.poison()
					}
					c.drainAsync(completed)
				}()
				fn(c)
				completed = true
			})
		}(r)
	}
	wg.Wait()
	m.ex.closeWorkers()
	m.ex.reset()
	m.pool.clearInflight()
	// Every chip and comm lane has returned: reclaim the scratch they drew.
	for i := range m.scratch {
		m.scratch[i].drawn = 0
	}
	return panics
}

// RowComm returns the communicator for c's horizontal ring (inter-column
// direction: all chips in the same mesh row).
func (c *Chip) RowComm() *Comm {
	return c.comm(topology.InterCol)
}

// ColComm returns the communicator for c's vertical ring (inter-row
// direction: all chips in the same mesh column).
func (c *Chip) ColComm() *Comm {
	return c.comm(topology.InterRow)
}

func (c *Chip) comm(d topology.Direction) *Comm {
	if d == topology.InterCol && c.rowRing != nil {
		return c.CustomComm(c.rowRing, d)
	}
	if d == topology.InterRow && c.colRing != nil {
		return c.CustomComm(c.colRing, d)
	}
	t := c.mesh.Torus
	return &Comm{
		chip: c,
		dir:  d,
		Size: t.RingSize(d),
		Pos:  t.RingPosition(c.Coord, d),
	}
}

// Send delivers m to the chip with the given rank. It never blocks; matrix
// contents are cloned so sender-side reuse of the buffer is safe, matching
// the semantics of a DMA send out of HBM.
func (c *Chip) Send(to int, m *tensor.Matrix) {
	c.checkPeer(to)
	var clock uint64
	if l := c.log; l != nil {
		clock = l.Send(to, m.Rows, m.Cols)
	}
	c.mesh.ex.send(c, to, m.Clone(), clock)
}

// SendOwned delivers m to the chip with the given rank, transferring
// ownership instead of cloning: the receiver gets this exact matrix, and
// the sender must not read or write it afterwards. This is the
// zero-allocation path the buffer-reusing collectives use to circulate one
// scratch buffer around a ring; use Send when the sender keeps the buffer.
// lint:hotpath ownership-transfer send: zero-copy, zero-allocation
func (c *Chip) SendOwned(to int, m *tensor.Matrix) {
	c.checkPeer(to)
	var clock uint64
	if l := c.log; l != nil {
		clock = l.Send(to, m.Rows, m.Cols)
	}
	c.mesh.pool.noteSend(m)
	c.mesh.ex.send(c, to, m, clock)
}

// Recv blocks until a matrix from the given rank arrives and returns it.
// Messages from one sender arrive in the order they were sent. The caller
// owns the returned matrix exclusively.
func (c *Chip) Recv(from int) *tensor.Matrix {
	c.checkPeer(from)
	c.streamStarts = 0 // receiving proves this chip drains the ring
	m, clock := c.mesh.ex.recv(c, from)
	c.mesh.pool.noteDeliver(m)
	if l := c.log; l != nil {
		l.Recv(from, m.Rows, m.Cols, clock)
	}
	return m
}

// checkPeer panics unless rank names a chip of this mesh. Peers index the
// exchanger's edge slab, and a message to any other rank would land in a
// mailbox nobody drains.
func (c *Chip) checkPeer(rank int) {
	if n := c.mesh.ex.n; rank < 0 || rank >= n {
		panic(fmt.Sprintf("mesh: chip %d addresses rank %d outside the %d-chip mesh", c.Rank, rank, n)) // lint:invariant peer-rank precondition
	}
}

// SpanStart opens a flight-recorder span on this chip: subsequent sends and
// receives are attributed to op until the matching SpanEnd. step is the
// span's own index (a GeMM slice or panel number; -1 for none). A no-op
// without a recorder — one pointer comparison.
// lint:hotpath steady-state record: must not allocate
func (c *Chip) SpanStart(op recorder.Op, step int) {
	if l := c.log; l != nil {
		l.SpanStart(op, step)
	}
}

// SpanEnd closes this chip's innermost flight-recorder span. A no-op
// without a recorder.
// lint:hotpath steady-state record: must not allocate
func (c *Chip) SpanEnd(op recorder.Op) {
	if l := c.log; l != nil {
		l.SpanEnd(op)
	}
}

// AcquireBuf returns a rows×cols scratch matrix from the mesh's buffer
// pool. Its contents are unspecified; the caller must fully overwrite it.
// Every acquired buffer must eventually be balanced by exactly one
// ReleaseBuf — on whichever chip holds it last, not necessarily the one
// that acquired it — or be handed off for good via SendOwned.
func (c *Chip) AcquireBuf(rows, cols int) *tensor.Matrix {
	if l := c.log; l != nil {
		l.BufAcquire(rows, cols)
	}
	return c.mesh.pool.acquire(rows, cols)
}

// ReleaseBuf returns a buffer to the mesh's pool. The caller must hold the
// only live reference; the buffer may be handed to any chip by a later
// AcquireBuf and overwritten.
func (c *Chip) ReleaseBuf(m *tensor.Matrix) {
	if l := c.log; l != nil {
		l.BufRelease(m.Rows, m.Cols)
	}
	c.mesh.pool.release(m)
}

// Comm is a ring communicator: an ordered set of chips (one row or column
// of the mesh, or any custom ring such as the depth dimension of a 3D
// torus) this chip exchanges data with.
type Comm struct {
	chip *Chip
	dir  topology.Direction
	// members lists the ring's chip ranks in position order; nil means
	// the ring is derived from the mesh torus (the common case).
	members []int
	// Size is the number of chips in the ring.
	Size int
	// Pos is this chip's position within the ring (0-based).
	Pos int
}

// SpanStart opens a flight-recorder span on this communicator's chip (see
// Chip.SpanStart). The ring collectives call it on entry.
// lint:hotpath steady-state record: must not allocate
func (cm *Comm) SpanStart(op recorder.Op, step int) {
	cm.chip.SpanStart(op, step)
}

// SpanEnd closes the innermost flight-recorder span (see Chip.SpanEnd).
// lint:hotpath steady-state record: must not allocate
func (cm *Comm) SpanEnd(op recorder.Op) {
	cm.chip.SpanEnd(op)
}

// CustomComm builds a communicator over an explicit rank list, for rings
// the 2D torus does not describe (e.g. the depth rings of a 2.5D GeMM on a
// P×P×c cluster mapped onto this runtime's rank space). Every member must
// be a rank of this mesh listed once, and the chip's own rank must be among
// them; its index becomes Pos.
func (c *Chip) CustomComm(members []int, dir topology.Direction) *Comm {
	pos := -1
	for i, r := range members {
		c.checkPeer(r)
		for _, q := range members[:i] {
			if q == r {
				panic(fmt.Sprintf("mesh: CustomComm lists rank %d twice", r)) // lint:invariant ring-membership precondition
			}
		}
		if r == c.Rank {
			pos = i
		}
	}
	if pos < 0 {
		panic(fmt.Sprintf("mesh: CustomComm members %v exclude own rank %d", members, c.Rank)) // lint:invariant ring-membership precondition
	}
	return &Comm{
		chip:    c,
		dir:     dir,
		members: append([]int(nil), members...),
		Size:    len(members),
		Pos:     pos,
	}
}

// rankAt returns the mesh rank of the ring member at position pos.
func (cm *Comm) rankAt(pos int) int {
	if cm.members != nil {
		return cm.members[pos]
	}
	t := cm.chip.mesh.Torus
	return t.Rank(t.RingPeer(cm.chip.Coord, cm.dir, pos))
}

// SendTo sends m to the ring member at position pos.
func (cm *Comm) SendTo(pos int, m *tensor.Matrix) {
	cm.chip.Send(cm.rankAt(mod(pos, cm.Size)), m)
}

// SendOwnedTo sends m to the ring member at position pos with ownership
// transfer (see Chip.SendOwned): the sender must not touch m afterwards.
// lint:hotpath ownership-transfer send: zero-copy, zero-allocation
func (cm *Comm) SendOwnedTo(pos int, m *tensor.Matrix) {
	cm.chip.SendOwned(cm.rankAt(mod(pos, cm.Size)), m)
}

// RecvFrom receives the next matrix from the ring member at position pos.
func (cm *Comm) RecvFrom(pos int) *tensor.Matrix {
	return cm.chip.Recv(cm.rankAt(mod(pos, cm.Size)))
}

// NoteStreamStart records that this chip is starting a ring stream it will
// not itself receive from — BroadcastInto's root, ReduceInto's journey
// starter — and enforces MaxStreamStarts: past the cap it panics with a
// *StreamBacklogError, which RunE returns as a typed error. rows and cols
// identify the streamed buffer shape for the error report.
// lint:hotpath steady-state guard: must not allocate
func (cm *Comm) NoteStreamStart(rows, cols int) {
	c := cm.chip
	c.streamStarts++
	if c.streamStarts > MaxStreamStarts {
		panic(&StreamBacklogError{Chip: c.Rank, Starts: c.streamStarts, Rows: rows, Cols: cols}) // lint:invariant stream-backlog guard, returned typed by RunE
	}
}

// AcquireBuf returns a scratch buffer from the mesh pool (see
// Chip.AcquireBuf).
func (cm *Comm) AcquireBuf(rows, cols int) *tensor.Matrix {
	return cm.chip.AcquireBuf(rows, cols)
}

// ReleaseBuf returns a scratch buffer to the mesh pool (see
// Chip.ReleaseBuf).
func (cm *Comm) ReleaseBuf(m *tensor.Matrix) {
	cm.chip.ReleaseBuf(m)
}

// Shift performs a circular SendRecv: it sends m to the member `steps`
// positions downstream and returns the matrix received from `steps`
// positions upstream. steps may be negative or zero (zero returns a clone
// of m without touching the network, the degenerate case Cannon hits on
// its unskewed row/column).
func (cm *Comm) Shift(steps int, m *tensor.Matrix) *tensor.Matrix {
	steps = mod(steps, cm.Size)
	if steps == 0 {
		return m.Clone()
	}
	cm.SendTo(cm.Pos+steps, m)
	return cm.RecvFrom(cm.Pos - steps)
}

func mod(a, n int) int {
	return ((a % n) + n) % n
}
