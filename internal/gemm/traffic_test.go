package gemm

import (
	"math/rand"
	"testing"

	"meshslice/internal/mesh"
	"meshslice/internal/tensor"
	"meshslice/internal/topology"
)

// These integration tests cross-validate the two halves of the repository:
// the *functional* runtime counts every element actually sent through the
// exchanger, and the *analytical* traffic formulas (§2.3.1) predict those
// counts. Agreement means the cost models reason about the same algorithms
// the correctness tests execute.

// measureTraffic runs fn on a fresh mesh and returns the traffic counters.
func measureTraffic(t *testing.T, tor topology.Torus, fn ChipFunc, p Problem, seed int64) mesh.Traffic {
	t.Helper()
	aR, aC, bR, bC := p.OperandShapes()
	rng := rand.New(rand.NewSource(seed))
	a := tensor.Random(aR, aC, rng)
	b := tensor.Random(bR, bC, rng)
	m := mesh.New(tor)
	as := tensor.Partition(a, tor.Rows, tor.Cols)
	bs := tensor.Partition(b, tor.Rows, tor.Cols)
	Run(m, fn, as, bs)
	return m.Traffic()
}

func TestCollectiveTrafficMatchesFormula(t *testing.T) {
	// Per-chip sends of Collective OS: (Pc-1)·|A_ij| + (Pr-1)·|B_ij|
	// elements — exactly the §2.3.1 per-chip traffic with the global
	// matrix sizes.
	tor := topology.NewTorus(3, 4)
	p := Problem{M: 24, N: 24, K: 24, Dataflow: OS}
	tr := measureTraffic(t, tor, Collective2D(OS), p, 1)

	aShard := int64(p.M/tor.Rows) * int64(p.K/tor.Cols)
	bShard := int64(p.K/tor.Rows) * int64(p.N/tor.Cols)
	wantPerChip := int64(tor.Cols-1)*aShard + int64(tor.Rows-1)*bShard
	for chip, sent := range tr.PerSender {
		if sent != wantPerChip {
			t.Errorf("chip %d sent %d elements, want %d", chip, sent, wantPerChip)
		}
	}
	if got := tr.Elements; got != wantPerChip*int64(tor.Size()) {
		t.Errorf("total traffic %d, want %d", got, wantPerChip*int64(tor.Size()))
	}
	// Cross-check against the analytical per-chip formula of §2.3.1
	// (element units): (Pr-1)·size(Mr)/P + (Pc-1)·size(Mc)/P, with B
	// flowing inter-row and A inter-column. (The same formula lives in
	// costmodel.PerChipTraffic2D, which cannot be imported here without a
	// cycle; costmodel's own tests pin it.)
	chips := float64(tor.Size())
	analytic := float64(tor.Rows-1)*float64(p.K)*float64(p.N)/chips +
		float64(tor.Cols-1)*float64(p.M)*float64(p.K)/chips
	if float64(wantPerChip) != analytic {
		t.Errorf("functional %d vs analytical %v", wantPerChip, analytic)
	}
}

func TestMeshSliceTrafficIndependentOfS(t *testing.T) {
	// Slicing changes granularity, not volume: total elements moved must
	// equal Collective's for every S.
	tor := topology.NewTorus(2, 4)
	p := Problem{M: 32, N: 32, K: 32, Dataflow: OS}
	base := measureTraffic(t, tor, Collective2D(OS), p, 2).Elements
	for _, s := range []int{1, 2, 4} {
		tr := measureTraffic(t, tor, MeshSlice(OS, MeshSliceConfig{S: s, Block: 1}), p, 2)
		if tr.Elements != base {
			t.Errorf("S=%d moved %d elements, Collective moved %d", s, tr.Elements, base)
		}
	}
}

func TestMeshSliceMessageCountGrowsWithS(t *testing.T) {
	// The granularity trade-off of §3.1: larger S means more, smaller
	// messages (more synchronisations on real hardware).
	tor := topology.NewTorus(2, 2)
	p := Problem{M: 16, N: 16, K: 16, Dataflow: OS}
	m1 := measureTraffic(t, tor, MeshSlice(OS, MeshSliceConfig{S: 1, Block: 1}), p, 3).Messages
	m4 := measureTraffic(t, tor, MeshSlice(OS, MeshSliceConfig{S: 4, Block: 1}), p, 3).Messages
	if m4 != 4*m1 {
		t.Errorf("S=4 sent %d messages, want 4x the %d of S=1", m4, m1)
	}
}

func TestWangAndSUMMATrafficEqualCollective(t *testing.T) {
	// Neither decomposition changes the volume on the wire, only the
	// schedule (Wang's shifts and SUMMA's bcast hops forward the same
	// shards the monolithic collectives do).
	tor := topology.NewTorus(2, 4)
	p := Problem{M: 32, N: 32, K: 32, Dataflow: OS}
	base := measureTraffic(t, tor, Collective2D(OS), p, 4).Elements
	if got := measureTraffic(t, tor, WangDataflow(OS), p, 4).Elements; got != base {
		t.Errorf("Wang moved %d elements, Collective %d", got, base)
	}
	if got := measureTraffic(t, tor, SUMMA(OS, SUMMAConfig{}), p, 4).Elements; got != base {
		t.Errorf("SUMMA moved %d elements, Collective %d", got, base)
	}
}

func TestCannonTrafficExceedsCollective(t *testing.T) {
	// The paper's charge against Cannon (§2.3.2): skewing adds traffic the
	// other algorithms do not pay.
	tor := topology.NewTorus(4, 4)
	p := Problem{M: 32, N: 32, K: 32, Dataflow: OS}
	cannon := measureTraffic(t, tor, Cannon(), p, 5).Elements
	coll := measureTraffic(t, tor, Collective2D(OS), p, 5).Elements
	if cannon <= coll {
		t.Errorf("Cannon moved %d elements, should exceed Collective's %d (skewing)", cannon, coll)
	}
}

func TestLSRSTrafficSymmetric(t *testing.T) {
	// LS on Pr×Pc and RS on Pc×Pr are mirror images: same traffic volume.
	p := Problem{M: 32, N: 32, K: 32, Dataflow: LS}
	ls := measureTraffic(t, topology.NewTorus(2, 4), Collective2D(LS), p, 6).Elements
	pRS := Problem{M: 32, N: 32, K: 32, Dataflow: RS}
	rs := measureTraffic(t, topology.NewTorus(4, 2), Collective2D(RS), pRS, 6).Elements
	if ls != rs {
		t.Errorf("LS traffic %d != mirrored RS traffic %d", ls, rs)
	}
}

func TestResetTraffic(t *testing.T) {
	tor := topology.NewTorus(1, 2)
	m := mesh.New(tor)
	m.Run(func(c *mesh.Chip) {
		c.RowComm().Shift(1, tensor.New(2, 2))
	})
	if m.Traffic().Elements == 0 {
		t.Fatalf("no traffic recorded")
	}
	m.ResetTraffic()
	if tr := m.Traffic(); tr.Elements != 0 || tr.Messages != 0 {
		t.Errorf("ResetTraffic left %+v", tr)
	}
}
