package sched

import (
	"fmt"

	"meshslice/internal/gemm"
	"meshslice/internal/hw"
	"meshslice/internal/topology"
)

// CannonProgram builds Cannon's schedule (paper §2.3.2): a skewing
// prologue followed by P systolic iterations whose SendRecv shifts overlap
// with the partial GeMMs. The mesh must be square.
//
// The skew moves shard (i,j) by i (respectively j) ring hops; with optimal
// torus routing the worst chip moves ⌊P/2⌋ hops, and since iterations
// cannot start before every chip is skewed, the prologue is modelled as
// ⌊P/2⌋ synchronised ring steps in each direction.
func CannonProgram(p gemm.Problem, t topology.Torus, c hw.Chip) *Program {
	if !t.IsSquare() {
		panic(fmt.Sprintf("sched: Cannon requires a square mesh, got %v", t)) // lint:invariant mesh-shape precondition
	}
	if p.Dataflow != gemm.OS {
		panic("sched: Cannon computes the OS dataflow only") // lint:invariant dataflow precondition
	}
	n := t.Rows
	aR, aC, bR, bC, cR, cC := shardDims(p, t)
	bpe := c.BytesPerElement
	aBytes := float64(aR*aC) * bpe
	bBytes := float64(bR*bC) * bpe
	// The skew pair, then a GeMM and a shift pair per iteration (one window each).
	b := newBuilder(2+3*n, 2*n)

	var prevShifts []int
	if n > 1 {
		prevShifts = b.dep(
			b.add(Op{Kind: Shift, Name: "skew A", Dir: topology.InterCol,
				Bytes: aBytes, Steps: n / 2}),
			b.add(Op{Kind: Shift, Name: "skew B", Dir: topology.InterRow,
				Bytes: bBytes, Steps: n / 2}),
		)
	}
	flopsPerIter := 2 * float64(cR) * float64(cC) * float64(p.K) / float64(n)
	for it := 0; it < n; it++ {
		b.addIndexed(Op{
			Kind: Compute, FLOPs: flopsPerIter,
			M: cR, N: cC, K: p.K / n,
			HBMBytes: gemmHBM(float64(aR*aC), float64(bR*bC), float64(cR*cC), c),
			Deps:     prevShifts,
		}, gemmT, it)
		if it < n-1 && n > 1 {
			prevShifts = b.dep(
				b.addIndexed(Op{Kind: Shift, Dir: topology.InterCol, Bytes: aBytes, Steps: 1,
					Deps: follow(prevShifts, 0)}, shiftAT, it),
				b.addIndexed(Op{Kind: Shift, Dir: topology.InterRow, Bytes: bBytes, Steps: 1,
					Deps: follow(prevShifts, 1)}, shiftBT, it),
			)
		}
	}
	return &Program{Torus: t, Ops: b.ops, Label: "Cannon"}
}

// WangProgram builds Wang et al.'s schedule (paper §2.3.4): ONE collective
// is decomposed into SendRecv shifts overlapped with partial GeMMs, while
// the communication in the other direction stays monolithic and exposed —
// decomposing both directions would require Cannon. The decomposed
// collective is the flowing-input AllGather (for OS, the larger of the two
// AllGathers); for LS/RS the output ReduceScatter stays monolithic. unroll
// merges shift steps into fewer, larger iterations (the loop unrolling of
// §4.2); pass 0 for the natural fully-decomposed loop.
func WangProgram(p gemm.Problem, t topology.Torus, c hw.Chip, unroll int) *Program {
	aR, aC, bR, bC, cR, cC := shardDims(p, t)
	bpe := c.BytesPerElement
	// The loop runs at most maxIters times (the streamed ring is one of the
	// two mesh dimensions): a shift and a GeMM each, plus the monolithic
	// collective before or after it.
	maxIters := t.Rows
	if t.Cols > maxIters {
		maxIters = t.Cols
	}
	if unroll > 0 && unroll < maxIters {
		maxIters = unroll
	}
	// Dependencies per group: the shift's on the previous shift, and the
	// GeMM's on the monolithic collective and its shift (OS) or on its
	// shift and the trailing collective's on it (LS, RS).
	b := newBuilder(2*maxIters+1, 3*maxIters)
	flopsTotal := 2 * float64(cR) * float64(cC) * float64(p.K)

	// Per dataflow: which operand streams around which ring, what runs
	// monolithically before the loop, and what trails after it.
	var (
		streamDir   topology.Direction
		streamRing  int
		streamBytes float64 // shard bytes per shift step
		streamHBM   float64 // operand elements held locally (for HBM est.)
		pre         = -1    // the monolithic AllGather before the loop (OS)
		trail       Op      // the monolithic ReduceScatter after it (LS, RS)
		streamingA  bool    // OS only: which operand circulates
	)

	switch p.Dataflow {
	case gemm.OS:
		// Stream the costlier AllGather; run the other up front, exposed.
		aCost := float64(t.Cols-1) * float64(aR*aC)
		bCost := float64(t.Rows-1) * float64(bR*bC)
		if aCost >= bCost {
			streamDir, streamRing = topology.InterCol, t.Cols
			streamBytes = float64(aR*aC) * bpe
			streamHBM = float64(aR * aC)
			streamingA = true
			if t.Rows > 1 {
				pre = b.add(Op{
					Kind: AllGather, Name: "AG_row B", Dir: topology.InterRow,
					Bytes: float64(bR*bC) * bpe, Steps: t.Rows - 1,
				})
			}
		} else {
			streamDir, streamRing = topology.InterRow, t.Rows
			streamBytes = float64(bR*bC) * bpe
			streamHBM = float64(bR * bC)
			if t.Cols > 1 {
				pre = b.add(Op{
					Kind: AllGather, Name: "AG_col A", Dir: topology.InterCol,
					Bytes: float64(aR*aC) * bpe, Steps: t.Cols - 1,
				})
			}
		}
	case gemm.LS:
		// Stream B's AG_row; the RdS_col of C stays monolithic after the
		// loop (it needs every partial product's columns).
		streamDir, streamRing = topology.InterRow, t.Rows
		streamBytes = float64(bR*bC) * bpe
		streamHBM = float64(bR * bC)
		if t.Cols > 1 {
			trail = Op{
				Kind: ReduceScatter, Name: "RdS_col C", Dir: topology.InterCol,
				Bytes: float64(cR) * float64(p.N) / float64(t.Cols) * bpe,
				Steps: t.Cols - 1,
			}
		}
	case gemm.RS:
		// Stream A's AG_col; the RdS_row of C trails.
		streamDir, streamRing = topology.InterCol, t.Cols
		streamBytes = float64(aR*aC) * bpe
		streamHBM = float64(aR * aC)
		if t.Rows > 1 {
			trail = Op{
				Kind: ReduceScatter, Name: "RdS_row C", Dir: topology.InterRow,
				Bytes: float64(p.M) / float64(t.Rows) * float64(cC) * bpe,
				Steps: t.Rows - 1,
			}
		}
	default:
		panic(fmt.Sprintf("sched: unknown dataflow %d", int(p.Dataflow))) // lint:invariant exhaustive switch guard
	}

	// The streamRing shards of the streamed operand are consumed in iters
	// groups; the shift delivering group g precedes GeMM g, and the shift
	// delivering group g+1 overlaps GeMM g (link and compute engine are
	// independent resources, and shifts depend only on earlier shifts).
	iters := unroll
	if iters <= 0 || iters > streamRing {
		iters = streamRing // one GeMM per arriving shard
	}
	// The trailing collective waits for every GeMM: its window is reserved
	// here and filled as the GeMMs are added.
	var gemms []int
	if trail.Kind == ReduceScatter {
		gemms = b.window(iters)
	}
	var prevShift []int
	consumed := 0
	for g := 0; g < iters; g++ {
		group := (g+1)*streamRing/iters - consumed // shards in this group
		consumed += group
		need := group
		if g == 0 {
			need-- // the local shard needs no shift
		}
		deps := make([]int, 0, 2) // on the stack: b.dep copies it
		if pre >= 0 {
			deps = append(deps, pre)
		}
		if need > 0 {
			shift := b.addIndexed(Op{
				Kind: Shift, Dir: streamDir, Bytes: streamBytes, Steps: need,
				Deps: prevShift,
			}, sendRecvG, g)
			prevShift = b.dep(shift)
			deps = append(deps, shift)
		}
		frac := float64(group) / float64(streamRing)
		// Local GeMM dimensions of this group's partial product, for the
		// tiled compute model.
		var gm, gn, gk int
		switch p.Dataflow {
		case gemm.OS:
			gm, gn = cR, cC
			if streamingA {
				gk = group * aC
			} else {
				gk = group * bR
			}
		case gemm.LS:
			gm, gn, gk = aR, group*bR, aC
		case gemm.RS:
			gm, gn, gk = group*aC, bC, bR
		}
		gi := b.addIndexed(Op{
			Kind: Compute, FLOPs: flopsTotal * frac,
			M: gm, N: gn, K: gk,
			HBMBytes: gemmHBM(streamHBM*float64(group),
				streamHBM*float64(group), float64(cR*cC)*frac, c),
			Deps: b.dep(deps...),
		}, gemmG, g)
		if gemms != nil {
			gemms[g] = gi
		}
	}
	if gemms != nil {
		trail.Deps = gemms
		b.add(trail)
	}
	return &Program{Torus: t, Ops: b.ops, Label: fmt.Sprintf("Wang-%v U=%d", p.Dataflow, iters)}
}

// OneDTPProgram builds the 1D tensor-parallel baseline (§4.3): a ring of P
// chips computing Y = X·W with the activation AllGather decomposed into
// SendRecv shifts overlapped with partial GeMMs (Wang's method applied to
// 1D, as the paper's baselines do). m, n, k are the global GeMM dimensions.
func OneDTPProgram(m, n, k int, chips int, c hw.Chip) *Program {
	return oneDProgram("1DTP", m, n, k, chips, float64(m/chips)*float64(k),
		m/chips, n/chips, k, c)
}

// FSDPProgram builds the FSDP baseline (§4.3): identical ring structure,
// but the flowing operand is the weight shard rather than the activations.
func FSDPProgram(m, n, k int, chips int, c hw.Chip) *Program {
	return oneDProgram("FSDP", m, n, k, chips, float64(k/chips)*float64(n),
		m/chips, n, k/chips, c)
}

func oneDProgram(label string, m, n, k, chips int, flowElems float64, gm, gn, gk int, c hw.Chip) *Program {
	if chips <= 0 {
		panic(fmt.Sprintf("sched: %s with %d chips", label, chips)) // lint:invariant chip-count precondition
	}
	t := topology.NewTorus(1, chips)
	bpe := c.BytesPerElement
	flopsPerShard := 2 * float64(m) * float64(n) * float64(k) / (float64(chips) * float64(chips))
	// A shift and a GeMM per iteration, both waiting on the shift before.
	b := newBuilder(2*chips, chips)
	var prevShift []int
	for it := 0; it < chips; it++ {
		deps := prevShift
		if it < chips-1 {
			prevShift = b.dep(b.addIndexed(Op{
				Kind: Shift, Dir: topology.InterCol, Bytes: flowElems * bpe, Steps: 1,
				Deps: deps,
			}, sendRecvIt, it))
		}
		b.addIndexed(Op{
			Kind: Compute, FLOPs: flopsPerShard,
			M: gm, N: gn, K: gk,
			HBMBytes: gemmHBM(flowElems, flowElems, float64(m)*float64(n)/float64(chips), c),
			Deps:     deps,
		}, gemmIt, it)
	}
	return &Program{Torus: t, Ops: b.ops, Label: label}
}
