package mesh

import (
	"fmt"
	"sync"
	"sync/atomic"

	"meshslice/internal/held"
	"meshslice/internal/tensor"
)

// slabs holds the one slab the process's meshes carve their arena buffers
// from (the scratch lanes' and the pool's misses): mesh.New takes it and
// Close gives it back, so a mesh made, run and closed per call — what
// gemm.Multiply does — reuses the last closed mesh's memory instead of
// allocating and zeroing it afresh. One slab serves every mesh size; a
// mesh that is never closed keeps the slab it took.
var slabs held.Store[float64]

// slab is one mesh's share of slabs. Carving is one atomic bump, so the
// chip goroutines and comm lanes carve concurrently without a lock; used
// keeps counting past the end, where misses fall back to tensor.New, so
// Close knows how large a slab the mesh needed.
type slab struct {
	buf  []float64
	used atomic.Int64
}

// carve returns a rows×cols matrix cut from the slab, or a new one when
// the slab is full. Its contents are whatever the slab's last user left.
// lint:allow hotpath-alloc a carve allocates the matrix header; a full slab allocates what tensor.New would
func (s *slab) carve(rows, cols int) *tensor.Matrix {
	n := int64(rows) * int64(cols)
	if end := s.used.Add(n); end <= int64(len(s.buf)) {
		return &tensor.Matrix{Rows: rows, Cols: cols, Data: s.buf[end-n : end : end]}
	}
	return tensor.New(rows, cols)
}

// Close gives the mesh's slab back to the process-wide store, regrown to
// what the mesh carved and allocated, and drops every arena buffer, so the
// next mesh carves the same memory. It must not be called while a run is
// in flight; Run and RunE panic on a closed mesh, and a second Close does
// nothing. A mesh that is never closed keeps the slab it took.
func (m *Mesh) Close() {
	if m.closed {
		return
	}
	m.closed = true
	buf := m.slab.buf
	if n := m.slab.used.Load(); n > int64(len(buf)) {
		buf = make([]float64, n)
	}
	m.slab.buf, m.scratch, m.pool = nil, nil, nil
	slabs.Give(buf)
}

// bufPool recycles matrix buffers across collective calls, keyed by shape.
// Ring collectives acquire one scratch buffer per call, circulate it with
// ownership-transfer sends (SendOwned), and the chip holding it after the
// last step releases it back here — so a chip may release a buffer some
// other chip acquired, and the pool must be mesh-global for the credits to
// balance. Acquire/release happen once per collective call, not per ring
// step, so the mutex is far off the hot path (the per-step path is the
// exchanger).
type bufPool struct {
	mu   sync.Mutex
	free map[[2]int][]*tensor.Matrix
	// tag tracks buffers the owner no longer holds — pooled (bufFree) or
	// handed off with SendOwned and not yet delivered (bufInflight) — so
	// double releases and use-after-send show up as an immediate,
	// attributable panic instead of silent corruption when another chip
	// recycles the buffer. A buffer someone validly owns has no entry.
	tag map[*tensor.Matrix]bufTag
	// ops counts ownership transitions; each tag records the op that
	// created it, so a violation's panic can say when the buffer left the
	// offender's hands.
	ops uint64
	// slab is what a miss carves from.
	slab *slab
}

type bufTag struct {
	state uint8 // bufFree or bufInflight
	op    uint64
}

const (
	bufFree uint8 = iota + 1
	bufInflight
)

// maxPooledPerShape bounds how many idle buffers of one shape the pool
// retains; releases beyond that are left to the GC. (An over-cap buffer
// also drops its guard tag — once the GC may take it, pointer identity
// can be recycled and the tag would misfire.)
const maxPooledPerShape = 64

func newBufPool(s *slab) *bufPool {
	return &bufPool{
		free: make(map[[2]int][]*tensor.Matrix),
		tag:  make(map[*tensor.Matrix]bufTag),
		slab: s,
	}
}

// acquire returns a rows×cols matrix with unspecified contents: a recycled
// buffer when one of that shape is free, one carved from the slab
// otherwise.
// lint:allow hotpath-alloc pool miss carves by design; the steady state is a pool hit
func (p *bufPool) acquire(rows, cols int) *tensor.Matrix {
	k := [2]int{rows, cols}
	p.mu.Lock()
	if s := p.free[k]; len(s) > 0 {
		m := s[len(s)-1]
		s[len(s)-1] = nil
		p.free[k] = s[:len(s)-1]
		delete(p.tag, m) // the caller owns it now
		p.ops++
		p.mu.Unlock()
		return m
	}
	p.mu.Unlock()
	return p.slab.carve(rows, cols)
}

// release returns a buffer to the pool. The caller must hold the only live
// reference: the next acquire of this shape may hand the buffer to any chip,
// which will overwrite it.
func (p *bufPool) release(m *tensor.Matrix) {
	if m == nil {
		return
	}
	k := [2]int{m.Rows, m.Cols}
	p.mu.Lock()
	if t, ok := p.tag[m]; ok {
		p.mu.Unlock()
		switch t.state {
		case bufFree:
			panic(fmt.Sprintf("mesh: double ReleaseBuf of %dx%d buffer: it was already returned to the pool (op #%d) and may belong to another chip by now; release a buffer exactly once, on whichever chip holds it last", m.Rows, m.Cols, t.op)) // lint:invariant arena misuse guard, mirrors the buf-ownership lint rule
		default:
			panic(fmt.Sprintf("mesh: ReleaseBuf of %dx%d buffer after SendOwned (op #%d): ownership already transferred to the receiver, which releases or forwards it; the sender must not touch the buffer again", m.Rows, m.Cols, t.op)) // lint:invariant arena misuse guard, mirrors the buf-ownership lint rule
		}
	}
	p.ops++
	if len(p.free[k]) < maxPooledPerShape {
		p.tag[m] = bufTag{state: bufFree, op: p.ops}
		p.free[k] = append(p.free[k], m) // lint:allow hotpath-alloc pool refill: amortized, capped by maxPooledPerShape
	}
	p.mu.Unlock()
}

// noteSend records an ownership-transfer send: from here until delivery
// the sender must not release or re-send the buffer. Called by
// Chip.SendOwned before the exchanger enqueue.
func (p *bufPool) noteSend(m *tensor.Matrix) {
	if m == nil {
		return
	}
	p.mu.Lock()
	if t, ok := p.tag[m]; ok {
		p.mu.Unlock()
		switch t.state {
		case bufFree:
			panic(fmt.Sprintf("mesh: SendOwned of %dx%d buffer after ReleaseBuf (op #%d): the pool may already have handed it to another chip; acquire a fresh buffer or use Send, which clones", m.Rows, m.Cols, t.op)) // lint:invariant arena misuse guard, mirrors the buf-ownership lint rule
		default:
			panic(fmt.Sprintf("mesh: SendOwned of %dx%d buffer already in flight (op #%d): ownership was transferred by the earlier send; only the receiver may forward it", m.Rows, m.Cols, t.op)) // lint:invariant arena misuse guard, mirrors the buf-ownership lint rule
		}
	}
	p.ops++
	p.tag[m] = bufTag{state: bufInflight, op: p.ops}
	p.mu.Unlock()
}

// noteDeliver records that a received matrix reached its new owner, who
// may now write, release, or forward it. Called by Chip.Recv. Matrices
// that arrive via the cloning Send were never tagged; that is fine.
// (A message dropped by fault injection keeps its in-flight tag for the rest
// of the run: nobody legitimately holds it, so any later touch should still
// panic. clearInflight drops such tags once the run is over.)
func (p *bufPool) noteDeliver(m *tensor.Matrix) {
	if m == nil {
		return
	}
	p.mu.Lock()
	if t, ok := p.tag[m]; ok && t.state == bufInflight {
		delete(p.tag, m)
		p.ops++
	}
	p.mu.Unlock()
}

// clearInflight drops every in-flight tag. runAll calls it after every
// run: with every chip and comm lane joined and the mailboxes rewound, no
// message is in flight, but one that missed its receiver (dropped, left in
// a mailbox, or sent by a chip that fail-stopped inside SendOwned) kept
// its tag, and a scratch matrix drawn again next run would then panic as a
// double send. Pooled buffers keep their tags.
func (p *bufPool) clearInflight() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for m, t := range p.tag {
		if t.state == bufInflight {
			delete(p.tag, m)
		}
	}
}
