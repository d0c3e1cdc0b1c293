package collective

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"meshslice/internal/mesh"
	"meshslice/internal/tensor"
	"meshslice/internal/topology"
)

// runRow executes fn on every chip of a 1×p mesh, i.e. a single row ring.
func runRow(p int, fn func(c *mesh.Chip, cm *mesh.Comm)) {
	m := mesh.New(topology.NewTorus(1, p))
	m.Run(func(c *mesh.Chip) { fn(c, c.RowComm()) })
}

func TestAllGatherOrdering(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8} {
		runRow(p, func(c *mesh.Chip, cm *mesh.Comm) {
			local := tensor.FromSlice(1, 1, []float64{float64(cm.Pos)})
			got := AllGather(cm, local)
			if len(got) != p {
				t.Errorf("p=%d: AllGather returned %d shards", p, len(got))
				return
			}
			for i, s := range got {
				if s.At(0, 0) != float64(i) {
					t.Errorf("p=%d pos=%d: shard %d = %v, want %d", p, cm.Pos, i, s.At(0, 0), i)
				}
			}
		})
	}
}

func TestAllGatherRowsColsConcatenation(t *testing.T) {
	const p = 4
	rng := rand.New(rand.NewSource(21))
	global := tensor.Random(p*2, 3, rng)
	strips := tensor.SplitRows(global, p)
	runRow(p, func(c *mesh.Chip, cm *mesh.Comm) {
		got := AllGatherRows(cm, strips[cm.Pos])
		if !got.Equal(global, 0) {
			t.Errorf("pos %d: AllGatherRows != global", cm.Pos)
		}
	})
	globalC := tensor.Random(3, p*2, rng)
	stripsC := tensor.SplitCols(globalC, p)
	runRow(p, func(c *mesh.Chip, cm *mesh.Comm) {
		got := AllGatherCols(cm, stripsC[cm.Pos])
		if !got.Equal(globalC, 0) {
			t.Errorf("pos %d: AllGatherCols != global", cm.Pos)
		}
	})
}

func TestReduceScatterSumsPerDestination(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 7} {
		// Chip i contributes value 10*i+d to destination d; destination d
		// must end with Σ_i (10*i + d).
		runRow(p, func(c *mesh.Chip, cm *mesh.Comm) {
			blocks := make([]*tensor.Matrix, p)
			for d := 0; d < p; d++ {
				blocks[d] = tensor.FromSlice(1, 1, []float64{float64(10*cm.Pos + d)})
			}
			got := ReduceScatter(cm, blocks)
			want := 0.0
			for i := 0; i < p; i++ {
				want += float64(10*i + cm.Pos)
			}
			if got.At(0, 0) != want {
				t.Errorf("p=%d pos=%d: ReduceScatter = %v, want %v", p, cm.Pos, got.At(0, 0), want)
			}
		})
	}
}

func TestReduceScatterDoesNotMutateInputs(t *testing.T) {
	runRow(3, func(c *mesh.Chip, cm *mesh.Comm) {
		blocks := make([]*tensor.Matrix, 3)
		for d := range blocks {
			blocks[d] = tensor.FromSlice(1, 1, []float64{1})
		}
		ReduceScatter(cm, blocks)
		for d, b := range blocks {
			if b.At(0, 0) != 1 {
				t.Errorf("pos %d: input block %d mutated to %v", cm.Pos, d, b.At(0, 0))
			}
		}
	})
}

// TestReduceScatterWrongBlockCountPanics also covers the wrong-shape
// panics of the allocating Rows/Cols forms: each message must name the
// collective whose check fired, not a tensor routine the call never runs.
func TestReduceScatterWrongBlockCountPanics(t *testing.T) {
	for _, c := range []struct {
		name, want string
		call       func(cm *mesh.Comm)
	}{
		{"ReduceScatter", "reducescatter got 3 blocks for ring of 2", func(cm *mesh.Comm) { ReduceScatter(cm, make([]*tensor.Matrix, 3)) }},
		{"ReduceScatterRows", "collective: ReduceScatterRowsInto dst 1x2 for 3x2 over ring of 2", func(cm *mesh.Comm) { ReduceScatterRows(cm, tensor.New(3, 2)) }},
		{"ReduceScatterCols", "collective: ReduceScatterColsInto dst 2x1 for 2x3 over ring of 2", func(cm *mesh.Comm) { ReduceScatterCols(cm, tensor.New(2, 3)) }},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, c.want) {
					t.Errorf("%s panicked with %q, want %q", c.name, msg, c.want)
				}
			}()
			runRow(2, func(_ *mesh.Chip, cm *mesh.Comm) { c.call(cm) })
			t.Errorf("%s did not panic", c.name)
		}()
	}
}

func TestReduceScatterRowsMatchesManualSum(t *testing.T) {
	const p = 4
	rng := rand.New(rand.NewSource(22))
	contribs := make([]*tensor.Matrix, p)
	for i := range contribs {
		contribs[i] = tensor.Random(p*2, 3, rng)
	}
	total := tensor.New(p*2, 3)
	for _, c := range contribs {
		total.Add(c)
	}
	wantStrips := tensor.SplitRows(total, p)
	runRow(p, func(c *mesh.Chip, cm *mesh.Comm) {
		got := ReduceScatterRows(cm, contribs[cm.Pos])
		if !got.Equal(wantStrips[cm.Pos], 1e-12) {
			t.Errorf("pos %d: ReduceScatterRows mismatch", cm.Pos)
		}
	})
}

func TestReduceScatterColsMatchesManualSum(t *testing.T) {
	const p = 3
	rng := rand.New(rand.NewSource(23))
	contribs := make([]*tensor.Matrix, p)
	for i := range contribs {
		contribs[i] = tensor.Random(2, p*2, rng)
	}
	total := tensor.New(2, p*2)
	for _, c := range contribs {
		total.Add(c)
	}
	wantStrips := tensor.SplitCols(total, p)
	runRow(p, func(c *mesh.Chip, cm *mesh.Comm) {
		got := ReduceScatterCols(cm, contribs[cm.Pos])
		if !got.Equal(wantStrips[cm.Pos], 1e-12) {
			t.Errorf("pos %d: ReduceScatterCols mismatch", cm.Pos)
		}
	})
}

func TestBroadcastFromEveryRoot(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5} {
		for root := 0; root < p; root++ {
			runRow(p, func(c *mesh.Chip, cm *mesh.Comm) {
				var m *tensor.Matrix
				if cm.Pos == root {
					m = tensor.FromSlice(1, 1, []float64{42})
				}
				got := Broadcast(cm, root, m)
				if got.At(0, 0) != 42 {
					t.Errorf("p=%d root=%d pos=%d: Broadcast = %v", p, root, cm.Pos, got.At(0, 0))
				}
			})
		}
	}
}

func TestReduceFromEveryRoot(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		for root := 0; root < p; root++ {
			runRow(p, func(c *mesh.Chip, cm *mesh.Comm) {
				m := tensor.FromSlice(1, 1, []float64{float64(cm.Pos + 1)})
				got := Reduce(cm, root, m)
				if cm.Pos == root {
					want := float64(p * (p + 1) / 2)
					if got == nil || got.At(0, 0) != want {
						t.Errorf("p=%d root=%d: Reduce = %v, want %v", p, root, got, want)
					}
				} else if got != nil {
					t.Errorf("p=%d root=%d pos=%d: non-root got %v", p, root, cm.Pos, got)
				}
			})
		}
	}
}

func TestAllReduceEqualsSum(t *testing.T) {
	const p = 5
	rng := rand.New(rand.NewSource(24))
	contribs := make([]*tensor.Matrix, p)
	want := tensor.New(2, 2)
	for i := range contribs {
		contribs[i] = tensor.Random(2, 2, rng)
		want.Add(contribs[i])
	}
	runRow(p, func(c *mesh.Chip, cm *mesh.Comm) {
		got := AllReduce(cm, contribs[cm.Pos])
		if !got.Equal(want, 1e-12) {
			t.Errorf("pos %d: AllReduce mismatch", cm.Pos)
		}
	})
}

// Property: AllGather ∘ scatter is the identity (the paper's collectives are
// inverses: scattering a matrix then all-gathering reconstructs it), and
// ReduceScatter of replicated data equals P·strip.
func TestCollectiveInverseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	f := func(p8, rows8 uint8) bool {
		p := int(p8%6) + 1
		rows := (int(rows8%4) + 1) * p
		global := tensor.Random(rows, 2, rng)
		strips := tensor.SplitRows(global, p)
		ok := true
		var mu sync.Mutex
		runRow(p, func(c *mesh.Chip, cm *mesh.Comm) {
			ag := AllGatherRows(cm, strips[cm.Pos])
			rs := ReduceScatterRows(cm, global)
			scaled := strips[cm.Pos].Clone()
			scaled.Scale(float64(p))
			if !ag.Equal(global, 0) || !rs.Equal(scaled, 1e-9) {
				mu.Lock()
				ok = false
				mu.Unlock()
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: AllReduce equals ReduceScatterRows followed by AllGatherRows
// (the standard decomposition of AllReduce).
func TestAllReduceDecompositionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	f := func(p8 uint8) bool {
		p := int(p8%5) + 1
		contribs := make([]*tensor.Matrix, p)
		for i := range contribs {
			contribs[i] = tensor.Random(p*2, 2, rng)
		}
		ok := true
		var mu sync.Mutex
		runRow(p, func(c *mesh.Chip, cm *mesh.Comm) {
			ar := AllReduce(cm, contribs[cm.Pos])
			rs := ReduceScatterRows(cm, contribs[cm.Pos])
			composed := AllGatherRows(cm, rs)
			if !ar.Equal(composed, 1e-9) {
				mu.Lock()
				ok = false
				mu.Unlock()
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Collectives must also work on column rings of a real 2D mesh, with
// independent rows/columns not interfering.
func TestCollectivesOn2DMesh(t *testing.T) {
	tor := topology.NewTorus(3, 4)
	m := mesh.New(tor)
	m.Run(func(c *mesh.Chip) {
		// Column AllGather: gather row indices down each column.
		col := c.ColComm()
		got := AllGather(col, tensor.FromSlice(1, 1, []float64{float64(c.Coord.Row)}))
		for i, s := range got {
			if s.At(0, 0) != float64(i) {
				t.Errorf("chip %v: column AllGather[%d] = %v", c.Coord, i, s.At(0, 0))
			}
		}
		// Row AllReduce: sum of column indices 0+1+2+3 = 6 in every row.
		row := c.RowComm()
		sum := AllReduce(row, tensor.FromSlice(1, 1, []float64{float64(c.Coord.Col)}))
		if sum.At(0, 0) != 6 {
			t.Errorf("chip %v: row AllReduce = %v, want 6", c.Coord, sum.At(0, 0))
		}
	})
}

// ringTopo builds the 1×p torus used by ring-level tests.
func ringTopo(p int) topology.Torus { return topology.NewTorus(1, p) }
