package collective

import (
	"testing"

	"meshslice/internal/mesh"
	"meshslice/internal/obs/recorder"
	"meshslice/internal/tensor"
	"meshslice/internal/topology"
)

// patterned returns a rows×cols matrix whose values are a deterministic
// function of pos, so every chip can rebuild any peer's contribution.
func patterned(rows, cols, pos int) *tensor.Matrix {
	m := tensor.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = float64(pos*1000+i)/7 - 50
	}
	return m
}

// TestIntoVariantsMatchAllocating runs every buffer-reusing collective next
// to its allocating counterpart on the same ring, and every Rows/Cols entry
// point next to the list form, and requires bit-identical results
// (tolerance 0).
func TestIntoVariantsMatchAllocating(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 5} {
		runRow(p, func(c *mesh.Chip, cm *mesh.Comm) {
			local := patterned(4, 6, cm.Pos)

			want := AllGather(cm, local)
			out := make([]*tensor.Matrix, p)
			for i := range out {
				out[i] = tensor.New(4, 6)
			}
			AllGatherInto(cm, local, out)
			for i := range out {
				if !out[i].Equal(want[i], 0) {
					t.Errorf("p=%d pos=%d: AllGatherInto shard %d differs", p, cm.Pos, i)
				}
			}

			blocks := make([]*tensor.Matrix, p)
			for d := 0; d < p; d++ {
				blocks[d] = patterned(3, 2, cm.Pos*p+d)
			}
			wantRS := ReduceScatter(cm, blocks)
			gotRS := tensor.New(3, 2)
			ReduceScatterInto(cm, blocks, gotRS)
			if !gotRS.Equal(wantRS, 0) {
				t.Errorf("p=%d pos=%d: ReduceScatterInto differs", p, cm.Pos)
			}

			// Every Rows/Cols entry point — allocating, *Into, and
			// Start*Into + Wait — against the list forms, which keep their
			// own ring loops and so are an independent reference. Shards
			// and strips are non-square, so a swapped axis shows.
			into := func(rows, cols int, run func(dst *tensor.Matrix)) *tensor.Matrix {
				dst := tensor.New(rows, cols)
				run(dst)
				return dst
			}
			agRows := tensor.ConcatRows(AllGather(cm, local))
			agCols := tensor.ConcatCols(AllGather(cm, local))
			tall := patterned(3*p, 5, 400+cm.Pos)
			wide := patterned(3, 5*p, 500+cm.Pos)
			rsRows := ReduceScatter(cm, tensor.SplitRows(tall, p))
			rsCols := ReduceScatter(cm, tensor.SplitCols(wide, p))
			for _, e := range []struct {
				name      string
				got, want *tensor.Matrix
			}{
				{"AllGatherRows", AllGatherRows(cm, local), agRows},
				{"AllGatherRowsInto", into(4*p, 6, func(d *tensor.Matrix) { AllGatherRowsInto(cm, local, d) }), agRows},
				{"StartAllGatherRowsInto", into(4*p, 6, func(d *tensor.Matrix) { StartAllGatherRowsInto(cm, local, d).Wait() }), agRows},
				{"AllGatherCols", AllGatherCols(cm, local), agCols},
				{"AllGatherColsInto", into(4, 6*p, func(d *tensor.Matrix) { AllGatherColsInto(cm, local, d) }), agCols},
				{"StartAllGatherColsInto", into(4, 6*p, func(d *tensor.Matrix) { StartAllGatherColsInto(cm, local, d).Wait() }), agCols},
				{"ReduceScatterRows", ReduceScatterRows(cm, tall), rsRows},
				{"ReduceScatterRowsInto", into(3, 5, func(d *tensor.Matrix) { ReduceScatterRowsInto(cm, tall, d) }), rsRows},
				{"StartReduceScatterRowsInto", into(3, 5, func(d *tensor.Matrix) { StartReduceScatterRowsInto(cm, tall, d).Wait() }), rsRows},
				{"ReduceScatterCols", ReduceScatterCols(cm, wide), rsCols},
				{"ReduceScatterColsInto", into(3, 5, func(d *tensor.Matrix) { ReduceScatterColsInto(cm, wide, d) }), rsCols},
				{"StartReduceScatterColsInto", into(3, 5, func(d *tensor.Matrix) { StartReduceScatterColsInto(cm, wide, d).Wait() }), rsCols},
			} {
				if !e.got.Equal(e.want, 0) {
					t.Errorf("p=%d pos=%d: %s differs from the list form", p, cm.Pos, e.name)
				}
			}

			for root := 0; root < p; root++ {
				var bm *tensor.Matrix
				if cm.Pos == root {
					bm = patterned(2, 3, 100+root)
				}
				wantB := Broadcast(cm, root, bm)
				gotB := tensor.New(2, 3)
				BroadcastInto(cm, root, bm, gotB)
				if !gotB.Equal(wantB, 0) {
					t.Errorf("p=%d pos=%d root=%d: BroadcastInto differs", p, cm.Pos, root)
				}

				contrib := patterned(2, 3, 200+cm.Pos)
				wantR := Reduce(cm, root, contrib)
				gotR := tensor.New(2, 3)
				isRoot := ReduceInto(cm, root, contrib, gotR)
				if isRoot != (cm.Pos == root) {
					t.Errorf("p=%d pos=%d root=%d: ReduceInto root flag = %v", p, cm.Pos, root, isRoot)
				}
				if isRoot && !gotR.Equal(wantR, 0) {
					t.Errorf("p=%d pos=%d root=%d: ReduceInto differs", p, cm.Pos, root)
				}
			}

			ar := patterned(3, 4, 300+cm.Pos)
			wantAR := AllReduce(cm, ar)
			gotAR := tensor.New(3, 4)
			AllReduceInto(cm, ar, gotAR)
			if !gotAR.Equal(wantAR, 0) {
				t.Errorf("p=%d pos=%d: AllReduceInto differs", p, cm.Pos)
			}
		})
	}
}

// TestBroadcastOwnershipSymmetric pins the satellite fix: every rank — the
// root included — gets a freshly allocated result that aliases neither the
// input nor any internal ring buffer, so mutating it is always safe.
func TestBroadcastOwnershipSymmetric(t *testing.T) {
	const p = 4
	runRow(p, func(c *mesh.Chip, cm *mesh.Comm) {
		var m *tensor.Matrix
		if cm.Pos == 0 {
			m = patterned(2, 2, 9)
		}
		got := Broadcast(cm, 0, m)
		got.Scale(2) // must not affect anyone else's view
		if cm.Pos == 0 {
			if &got.Data[0] == &m.Data[0] {
				t.Error("root's Broadcast result aliases its input")
			}
			if !m.Equal(patterned(2, 2, 9), 0) {
				t.Error("mutating the root's result changed the input")
			}
		}
		// A second broadcast must be unaffected by the mutation above.
		var m2 *tensor.Matrix
		if cm.Pos == 0 {
			m2 = patterned(2, 2, 9)
		}
		again := Broadcast(cm, 0, m2)
		if !again.Equal(patterned(2, 2, 9), 0) {
			t.Errorf("pos %d: second Broadcast polluted by mutated result", cm.Pos)
		}
	})
}

// TestIntoCollectivesZeroSteadyStateAllocs is the allocation regression
// gate: once the mesh pool and mailboxes are warm, one collective call must
// not allocate at all. Measured as the allocation difference between a Run
// executing 101 calls and a Run executing 201 calls, which cancels the
// per-Run fixed costs — goroutines, communicators, profiling labels, and
// the mailbox growth that accommodates the bounded sender run-ahead (each
// Run resets the exchanger, and that warmup saturates well before 101
// iterations).
func TestIntoCollectivesZeroSteadyStateAllocs(t *testing.T) {
	runSteadyStateAllocGate(t, false)
}

// TestIntoCollectivesZeroSteadyStateAllocsRecorded re-runs the gate with a
// flight recorder attached: recording is a struct store into a preallocated
// ring, so the recorder-enabled ring step must be exactly as allocation-free
// as the bare one.
func TestIntoCollectivesZeroSteadyStateAllocsRecorded(t *testing.T) {
	runSteadyStateAllocGate(t, true)
}

func runSteadyStateAllocGate(t *testing.T, record bool) {
	const p = 4
	type scratch struct {
		local *tensor.Matrix   // this chip's shard / contribution
		wide  *tensor.Matrix   // p·rows input for reduce-scatter
		dst   *tensor.Matrix   // shard-sized destination
		rows  *tensor.Matrix   // gathered-rows destination
		out   []*tensor.Matrix // gathered shard destinations
	}
	mk := func(rank int) *scratch {
		s := &scratch{
			local: patterned(8, 6, rank),
			wide:  patterned(8*p, 6, rank),
			dst:   tensor.New(8, 6),
			rows:  tensor.New(8*p, 6),
			out:   make([]*tensor.Matrix, p),
		}
		for i := range s.out {
			s.out[i] = tensor.New(8, 6)
		}
		return s
	}
	// The rooted collectives are measured with a rotating root (the SUMMA
	// pattern): a chip that is never anything but root never receives, so a
	// tight fixed-root loop can outrun the ring by arbitrarily many calls —
	// each needing its own in-flight buffer, which no pool can recycle
	// early. Rotation gives every chip backpressure, the realistic steady
	// state.
	cases := []struct {
		name string
		op   func(cm *mesh.Comm, s *scratch, i int)
	}{
		{"AllGatherInto", func(cm *mesh.Comm, s *scratch, i int) { AllGatherInto(cm, s.local, s.out) }},
		{"AllGatherRowsInto", func(cm *mesh.Comm, s *scratch, i int) { AllGatherRowsInto(cm, s.local, s.rows) }},
		{"ReduceScatterRowsInto", func(cm *mesh.Comm, s *scratch, i int) { ReduceScatterRowsInto(cm, s.wide, s.dst) }},
		{"BroadcastInto", func(cm *mesh.Comm, s *scratch, i int) {
			if cm.Pos == i%p {
				BroadcastInto(cm, i%p, s.local, s.dst)
			} else {
				BroadcastInto(cm, i%p, nil, s.dst)
			}
		}},
		{"ReduceInto", func(cm *mesh.Comm, s *scratch, i int) { ReduceInto(cm, i%p, s.local, s.dst) }},
		{"AllReduceInto", func(cm *mesh.Comm, s *scratch, i int) { AllReduceInto(cm, s.local, s.dst) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := mesh.New(topology.NewTorus(1, p))
			if record {
				m.SetRecorder(recorder.New(p, 0))
			}
			scratches := make([]*scratch, p)
			for r := range scratches {
				scratches[r] = mk(r)
			}
			runIters := func(iters int) {
				m.Run(func(c *mesh.Chip) {
					cm := c.RowComm()
					s := scratches[c.Rank]
					for i := 0; i < iters; i++ {
						tc.op(cm, s, i)
					}
				})
			}
			runIters(3) // warm the pool, mailboxes and goroutine stacks
			base := testing.AllocsPerRun(5, func() { runIters(101) })
			many := testing.AllocsPerRun(5, func() { runIters(201) })
			if perCall := (many - base) / 100; perCall > 0.05 {
				t.Errorf("%s allocates %.3f per call in steady state, want 0 (run(101)=%.1f run(201)=%.1f)",
					tc.name, perCall, base, many)
			}
		})
	}
}
