package mesh

import (
	"fmt"
	"strings"
	"testing"

	"meshslice/internal/topology"
)

// mustPanic runs fn and asserts it panics with a message containing want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected a panic containing %q, got none", want)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not contain %q", msg, want)
		}
	}()
	fn()
}

func TestPoolDoubleReleasePanics(t *testing.T) {
	p := newBufPool(new(slab))
	m := p.acquire(2, 3)
	p.release(m)
	mustPanic(t, "double ReleaseBuf", func() { p.release(m) })
}

func TestPoolReleaseAfterSendPanics(t *testing.T) {
	p := newBufPool(new(slab))
	m := p.acquire(2, 3)
	p.noteSend(m)
	mustPanic(t, "ReleaseBuf of 2x3 buffer after SendOwned", func() { p.release(m) })
}

func TestPoolSendAfterReleasePanics(t *testing.T) {
	p := newBufPool(new(slab))
	m := p.acquire(2, 3)
	p.release(m)
	mustPanic(t, "SendOwned of 2x3 buffer after ReleaseBuf", func() { p.noteSend(m) })
}

func TestPoolDoubleSendPanics(t *testing.T) {
	p := newBufPool(new(slab))
	m := p.acquire(2, 3)
	p.noteSend(m)
	mustPanic(t, "already in flight", func() { p.noteSend(m) })
}

// TestPoolOwnershipRoundTrip walks the legal lifecycle twice: acquire,
// send, deliver, release, re-acquire — no panics, and the pool recycles
// the same buffer.
func TestPoolOwnershipRoundTrip(t *testing.T) {
	p := newBufPool(new(slab))
	m := p.acquire(4, 4)
	for i := 0; i < 2; i++ {
		p.noteSend(m)
		p.noteDeliver(m)
		p.release(m)
		got := p.acquire(4, 4)
		if got != m {
			t.Fatalf("round %d: pool did not recycle the released buffer", i)
		}
	}
}

// TestChipReleaseAfterSendPanics exercises the guard through the public
// chip API: sending ownership away and then releasing must fail loudly
// on the offending chip, not corrupt the receiver's data. Rank 1 never
// receives: a delivery would clear the buffer's in-flight tag, and whether
// the guard fired would then depend on which chip's goroutine ran first.
func TestChipReleaseAfterSendPanics(t *testing.T) {
	m := New(topology.Torus{Rows: 1, Cols: 2})
	mustPanic(t, "after SendOwned", func() {
		m.Run(func(c *Chip) {
			if c.Rank == 0 {
				buf := c.AcquireBuf(2, 2)
				c.SendOwned(1, buf)
				c.ReleaseBuf(buf) // the bug under test
			}
		})
	})
}

// TestChipForwardingIsLegal re-sends a received buffer — the ring
// collectives' forwarding step — which must NOT trip the in-flight guard.
func TestChipForwardingIsLegal(t *testing.T) {
	m := New(topology.Torus{Rows: 1, Cols: 3})
	m.Run(func(c *Chip) {
		switch c.Rank {
		case 0:
			buf := c.AcquireBuf(2, 2)
			c.SendOwned(1, buf)
		case 1:
			buf := c.Recv(0)
			c.SendOwned(2, buf) // forwarding after delivery is the owner's right
		case 2:
			c.ReleaseBuf(c.Recv(1))
		}
	})
}
