package mesh

import (
	"strings"
	"sync"
	"testing"

	"meshslice/internal/tensor"
	"meshslice/internal/topology"
)

func TestRunVisitsEveryChipOnce(t *testing.T) {
	m := New(topology.NewTorus(3, 4))
	var mu sync.Mutex
	seen := map[int]int{}
	m.Run(func(c *Chip) {
		mu.Lock()
		seen[c.Rank]++
		mu.Unlock()
	})
	if len(seen) != 12 {
		t.Fatalf("visited %d chips, want 12", len(seen))
	}
	for rank, n := range seen {
		if n != 1 {
			t.Errorf("chip %d visited %d times", rank, n)
		}
	}
}

func TestChipCoordMatchesRank(t *testing.T) {
	tor := topology.NewTorus(2, 3)
	m := New(tor)
	m.Run(func(c *Chip) {
		if tor.Rank(c.Coord) != c.Rank {
			t.Errorf("chip coord %v does not match rank %d", c.Coord, c.Rank)
		}
	})
}

func TestSendRecvPointToPoint(t *testing.T) {
	m := New(topology.NewTorus(1, 2))
	m.Run(func(c *Chip) {
		if c.Rank == 0 {
			c.Send(1, tensor.FromSlice(1, 2, []float64{3, 4}))
		} else {
			got := c.Recv(0)
			want := tensor.FromSlice(1, 2, []float64{3, 4})
			if !got.Equal(want, 0) {
				t.Errorf("Recv = %v, want %v", got, want)
			}
		}
	})
}

func TestSendClonesPayload(t *testing.T) {
	m := New(topology.NewTorus(1, 2))
	m.Run(func(c *Chip) {
		if c.Rank == 0 {
			buf := tensor.FromSlice(1, 1, []float64{1})
			c.Send(1, buf)
			buf.Set(0, 0, 999) // mutate after send; receiver must not see it
		} else {
			if got := c.Recv(0).At(0, 0); got != 1 {
				t.Errorf("Recv saw sender mutation: %v", got)
			}
		}
	})
}

func TestSendRecvFIFOOrder(t *testing.T) {
	m := New(topology.NewTorus(1, 2))
	m.Run(func(c *Chip) {
		if c.Rank == 0 {
			for i := 0; i < 5; i++ {
				c.Send(1, tensor.FromSlice(1, 1, []float64{float64(i)}))
			}
		} else {
			for i := 0; i < 5; i++ {
				if got := c.Recv(0).At(0, 0); got != float64(i) {
					t.Errorf("message %d arrived as %v", i, got)
				}
			}
		}
	})
}

func TestCommSizeAndPos(t *testing.T) {
	m := New(topology.NewTorus(3, 5))
	m.Run(func(c *Chip) {
		row := c.RowComm()
		if row.Size != 5 || row.Pos != c.Coord.Col {
			t.Errorf("chip %v RowComm = size %d pos %d", c.Coord, row.Size, row.Pos)
		}
		col := c.ColComm()
		if col.Size != 3 || col.Pos != c.Coord.Row {
			t.Errorf("chip %v ColComm = size %d pos %d", c.Coord, col.Size, col.Pos)
		}
		if again := c.RowComm(); again == row || again.Size != 5 || again.Pos != row.Pos {
			t.Errorf("a second RowComm is not a fresh communicator over the same ring")
		}
		if row.Direction() != topology.InterCol || col.Direction() != topology.InterRow {
			t.Errorf("communicator directions wrong")
		}
	})
}

func TestShiftRotatesValuesAroundRing(t *testing.T) {
	m := New(topology.NewTorus(1, 4))
	m.Run(func(c *Chip) {
		row := c.RowComm()
		local := tensor.FromSlice(1, 1, []float64{float64(row.Pos)})
		got := row.Shift(1, local)
		want := float64((row.Pos + 3) % 4) // received from upstream neighbour
		if got.At(0, 0) != want {
			t.Errorf("pos %d Shift(1) = %v, want %v", row.Pos, got.At(0, 0), want)
		}
	})
}

func TestShiftNegativeAndMultiStep(t *testing.T) {
	m := New(topology.NewTorus(4, 1))
	m.Run(func(c *Chip) {
		col := c.ColComm()
		local := tensor.FromSlice(1, 1, []float64{float64(col.Pos)})
		got := col.Shift(-2, local)
		want := float64((col.Pos + 2) % 4)
		if got.At(0, 0) != want {
			t.Errorf("pos %d Shift(-2) = %v, want %v", col.Pos, got.At(0, 0), want)
		}
	})
}

func TestShiftZeroIsLocalClone(t *testing.T) {
	m := New(topology.NewTorus(2, 2))
	m.Run(func(c *Chip) {
		local := tensor.FromSlice(1, 1, []float64{float64(c.Rank)})
		got := c.RowComm().Shift(0, local)
		if got.At(0, 0) != float64(c.Rank) {
			t.Errorf("Shift(0) = %v", got.At(0, 0))
		}
		got.Set(0, 0, -1)
		if local.At(0, 0) != float64(c.Rank) {
			t.Errorf("Shift(0) must clone")
		}
	})
}

func TestShiftFullCircleReturnsOwn(t *testing.T) {
	m := New(topology.NewTorus(1, 3))
	m.Run(func(c *Chip) {
		local := tensor.FromSlice(1, 1, []float64{float64(c.Rank)})
		if got := c.RowComm().Shift(3, local); got.At(0, 0) != float64(c.Rank) {
			t.Errorf("Shift(Size) = %v, want own value", got.At(0, 0))
		}
	})
}

func TestSendToRecvFromWrapPositions(t *testing.T) {
	m := New(topology.NewTorus(1, 3))
	m.Run(func(c *Chip) {
		row := c.RowComm()
		// Everyone sends to position (Pos+4) mod 3 == Pos+1.
		row.SendTo(row.Pos+4, tensor.FromSlice(1, 1, []float64{float64(row.Pos)}))
		got := row.RecvFrom(row.Pos - 4)
		want := float64((row.Pos + 2) % 3)
		if got.At(0, 0) != want {
			t.Errorf("pos %d RecvFrom = %v, want %v", row.Pos, got.At(0, 0), want)
		}
	})
}

func TestRunPropagatesChipPanic(t *testing.T) {
	m := New(topology.NewTorus(1, 2))
	defer func() {
		p := recover()
		if p == nil {
			t.Fatalf("Run should panic when a chip panics")
		}
		if !strings.Contains(p.(string), "boom") {
			t.Errorf("panic %q should carry the chip's message", p)
		}
	}()
	m.Run(func(c *Chip) {
		if c.Rank == 1 {
			panic("boom")
		}
		// Chip 0 blocks on a message that will never come; the poison pill
		// must unblock it rather than deadlocking the test.
		c.Recv(1)
	})
}

func TestMeshReusableAfterRun(t *testing.T) {
	m := New(topology.NewTorus(1, 2))
	for iter := 0; iter < 3; iter++ {
		m.Run(func(c *Chip) {
			v := c.RowComm().Shift(1, tensor.FromSlice(1, 1, []float64{float64(c.Rank)}))
			want := float64((c.Rank + 1) % 2)
			if v.At(0, 0) != want {
				t.Errorf("iter %d: got %v want %v", iter, v.At(0, 0), want)
			}
		})
	}
}

func TestModHelper(t *testing.T) {
	cases := []struct{ a, n, want int }{
		{5, 3, 2}, {-1, 3, 2}, {-4, 3, 2}, {0, 3, 0}, {3, 3, 0},
	}
	for _, c := range cases {
		if got := mod(c.a, c.n); got != c.want {
			t.Errorf("mod(%d,%d) = %d, want %d", c.a, c.n, got, c.want)
		}
	}
}

func TestCustomCommRing(t *testing.T) {
	// Build a custom ring over ranks {0, 3, 1} of a 1×4 mesh and shift
	// around it; positions follow the member list order.
	m := New(topology.NewTorus(1, 4))
	m.Run(func(c *Chip) {
		members := []int{0, 3, 1}
		inRing := c.Rank == 0 || c.Rank == 3 || c.Rank == 1
		if !inRing {
			return
		}
		cm := c.CustomComm(members, topology.InterCol)
		if cm.Size != 3 {
			t.Errorf("custom ring size = %d", cm.Size)
		}
		got := cm.Shift(1, tensor.FromSlice(1, 1, []float64{float64(cm.Pos)}))
		want := float64((cm.Pos + 2) % 3)
		if got.At(0, 0) != want {
			t.Errorf("rank %d pos %d: Shift = %v, want %v", c.Rank, cm.Pos, got.At(0, 0), want)
		}
	})
}

// TestCustomCommRejectsBadMembership: a ring must list mesh ranks, each
// once, including the caller's own; point-to-point calls must address a
// mesh rank. Every rejection names the offending rank.
func TestCustomCommRejectsBadMembership(t *testing.T) {
	m := New(topology.NewTorus(1, 3))
	m.Run(func(c *Chip) {
		if c.Rank != 0 {
			return
		}
		for _, tc := range []struct {
			members []int
			want    string
		}{
			{[]int{1}, "exclude own rank 0"},
			{[]int{0, 0, 1}, "rank 0 twice"},
			{[]int{0, 2, 2}, "rank 2 twice"},
			{[]int{0, 99}, "rank 99 outside the 3-chip mesh"},
			{[]int{-1, 0}, "rank -1 outside the 3-chip mesh"},
		} {
			mustPanic(t, tc.want, func() { c.CustomComm(tc.members, topology.InterCol) })
		}
		x := tensor.New(1, 1)
		mustPanic(t, "rank 3 outside the 3-chip mesh", func() { c.Send(3, x) })
		mustPanic(t, "rank 99 outside the 3-chip mesh", func() { c.SendOwned(99, x) })
		mustPanic(t, "rank -1 outside the 3-chip mesh", func() { c.Recv(-1) })
	})
	if tr := m.Traffic(); tr.Messages != 0 {
		t.Errorf("rejected sends left traffic %+v", tr)
	}
}

func TestTrafficCounters(t *testing.T) {
	m := New(topology.NewTorus(1, 2))
	m.Run(func(c *Chip) {
		c.Send((c.Rank+1)%2, tensor.New(2, 3))
		c.Recv((c.Rank + 1) % 2)
	})
	tr := m.Traffic()
	if tr.Messages != 2 {
		t.Errorf("messages = %d, want 2", tr.Messages)
	}
	if tr.Elements != 12 {
		t.Errorf("elements = %d, want 12", tr.Elements)
	}
	if tr.PerSender[0] != 6 || tr.PerSender[1] != 6 {
		t.Errorf("per-sender = %v", tr.PerSender)
	}
	m.ResetTraffic()
	if got := m.Traffic(); got.Messages != 0 || got.Elements != 0 {
		t.Errorf("ResetTraffic left %+v", got)
	}
}

// TestTrafficKeepsZeroElementEdges: an edge that carried only empty
// matrices still counts its messages and its sender, at zero elements.
func TestTrafficKeepsZeroElementEdges(t *testing.T) {
	m := New(topology.NewTorus(1, 3))
	m.Run(func(c *Chip) {
		switch c.Rank {
		case 0:
			c.Send(1, tensor.New(0, 3))
		case 1:
			c.Recv(0)
		}
	})
	if tr := m.Traffic(); tr.Messages != 1 || tr.Elements != 0 || len(tr.PerSender) != 1 || tr.PerSender[0] != 0 {
		t.Errorf("traffic %+v, want one 0-element message from chip 0", tr)
	}
}
