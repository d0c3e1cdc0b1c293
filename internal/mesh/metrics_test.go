package mesh

import (
	"bytes"
	"strings"
	"testing"

	"meshslice/internal/obs"
	"meshslice/internal/tensor"
	"meshslice/internal/topology"
)

func TestPublishMetricsEdgesAndTotals(t *testing.T) {
	m := New(topology.NewTorus(1, 4))
	r := obs.NewRegistry()
	m.SetMetrics(r)
	m.Run(func(c *Chip) {
		// Every chip sends one 2x3 matrix to its right neighbour.
		c.Send((c.Rank+1)%4, tensor.New(2, 3))
		c.Recv((c.Rank + 3) % 4)
	})
	m.PublishMetrics()
	if got := r.Gauge("mesh_messages_total").Value(); got != 4 {
		t.Errorf("mesh_messages_total = %v, want 4", got)
	}
	if got := r.Gauge("mesh_edge_elements", obs.L("from", "0"), obs.L("to", "1")).Value(); got != 6 {
		t.Errorf("edge 0->1 elements = %v, want 6", got)
	}
	if got := r.Gauge("mesh_sender_elements", obs.L("chip", "2")).Value(); got != 6 {
		t.Errorf("sender 2 elements = %v, want 6", got)
	}
	// Re-publishing must not double-count (gauges, not counters).
	m.PublishMetrics()
	if got := r.Gauge("mesh_messages_total").Value(); got != 4 {
		t.Errorf("after republish mesh_messages_total = %v, want 4", got)
	}
}

// TestPublishMetricsKeepsZeroElementEdges: an edge that carried only empty
// matrices still counts as used — its gauge and its sender's are published
// at zero — and the edges nobody used publish nothing.
func TestPublishMetricsKeepsZeroElementEdges(t *testing.T) {
	m := New(topology.NewTorus(1, 3))
	r := obs.NewRegistry()
	m.SetMetrics(r)
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
	m.PublishMetrics()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(strings.Fields(buf.String()), "")
	want := `{"gauges":[` +
		`{"name":"mesh_edge_elements","labels":{"from":"0","to":"1"},"value":0},` +
		`{"name":"mesh_messages_total","value":1},` +
		`{"name":"mesh_sender_elements","labels":{"chip":"0"},"value":0}]}`
	if got != want {
		t.Errorf("published\n%s\nwant\n%s", got, want)
	}
}

func TestCollectiveOpCountsDeterministic(t *testing.T) {
	// Two identical runs on separate meshes produce byte-identical
	// snapshots — concurrent chip goroutines notwithstanding.
	run := func() []byte {
		m := New(topology.NewTorus(2, 2))
		r := obs.NewRegistry()
		m.SetMetrics(r)
		m.Run(func(c *Chip) {
			cm := c.RowComm()
			cm.CountCollective("allgather")
			cm.CountCollective("allgather")
			c.ColComm().CountCollective("reducescatter")
		})
		m.PublishMetrics()
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Errorf("two identical runs snapshot differently:\n%s\nvs\n%s", a, b)
	}
	// 4 chips × 2 row allgathers = 8.
	m := New(topology.NewTorus(2, 2))
	r := obs.NewRegistry()
	m.SetMetrics(r)
	m.Run(func(c *Chip) {
		c.RowComm().CountCollective("allgather")
	})
	if got := r.Counter("mesh_collective_ops", obs.L("op", "allgather"), obs.L("dir", topology.InterCol.String())).Value(); got != 4 {
		t.Errorf("allgather count = %v, want 4", got)
	}
}

func TestCountCollectiveWithoutRegistryIsNoop(t *testing.T) {
	m := New(topology.NewTorus(1, 2))
	m.Run(func(c *Chip) {
		c.RowComm().CountCollective("allgather") // must not panic
	})
}
