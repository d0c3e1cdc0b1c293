package main

import (
	"math"
	"math/rand"
	"runtime"

	"meshslice"
	"meshslice/internal/collective"
	"meshslice/internal/gemm"
	"meshslice/internal/mesh"
	"meshslice/internal/obs/recorder"
	"meshslice/internal/tensor"
	"meshslice/internal/topology"
)

// gemmOp is one functional distributed GeMM with its operands, its
// single-node reference and the last result it produced.
type gemmOp struct {
	name      string
	prob      gemm.Problem
	shape     topology.Torus
	s, block  int
	wang      bool
	pipelined bool
	twin      int // index of the serial op this one must BitEqual; -1 = none

	a, b, ref *tensor.Matrix
	refMax    float64
	as, bs    []*tensor.Matrix // gemm_fine: pre-partitioned shards

	first  *tensor.Matrix // black-box result of the first warm-up round
	got    *tensor.Matrix
	shards []*tensor.Matrix
	err    error
}

func (o *gemmOp) config() gemm.MeshSliceConfig {
	return gemm.MeshSliceConfig{S: o.s, Block: o.block, Pipelined: o.pipelined}
}

func (o *gemmOp) chipFunc() gemm.ChipFunc {
	switch {
	case o.wang && o.pipelined:
		return gemm.WangPipelined(o.prob.Dataflow)
	case o.wang:
		return gemm.WangDataflow(o.prob.Dataflow)
	default:
		return gemm.MeshSlice(o.prob.Dataflow, o.config())
	}
}

// gemmWork is gemm_compute (fine == nil: meshslice.Multiply on a fresh mesh
// per call) or gemm_fine (gemm.Run on one persistent mesh over
// pre-partitioned shards).
type gemmWork struct {
	ops  []*gemmOp
	fine *mesh.Mesh
}

func maxAbs(m *tensor.Matrix) float64 {
	var v float64
	for _, x := range m.Data {
		v = math.Max(v, math.Abs(x))
	}
	return v
}

// finishSetup draws the operands (ops with the same problem share them, so
// a pipelined op can be compared bit for bit with its serial twin),
// computes the references and runs the first warm-up round.
func (w *gemmWork) finishSetup(seed int64) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	byProblem := map[gemm.Problem]*gemmOp{}
	for _, o := range w.ops {
		if src, ok := byProblem[o.prob]; ok {
			o.a, o.b, o.ref, o.refMax = src.a, src.b, src.ref, src.refMax
		} else {
			aR, aC, bR, bC := o.prob.OperandShapes()
			o.a, o.b = tensor.Random(aR, aC, rng), tensor.Random(bR, bC, rng)
			o.ref = o.prob.Reference(o.a, o.b)
			o.refMax = maxAbs(o.ref)
			byProblem[o.prob] = o
		}
		if !o.wang {
			if err := o.config().Validate(o.prob, o.shape); err != nil {
				return nil, err
			}
		}
		if w.fine != nil {
			o.as = tensor.Partition(o.a, o.shape.Rows, o.shape.Cols)
			o.bs = tensor.Partition(o.b, o.shape.Rows, o.shape.Cols)
		}
	}
	w.round()
	if _, failed := w.check(); failed > 0 {
		return nil, errorf("%d functional GeMM ops disagree with their reference in set-up", failed)
	}
	for _, o := range w.ops {
		o.first = o.got
	}
	return w, nil
}

func setupGemmCompute(seed int64) (instance, error) {
	p := func(df gemm.Dataflow) gemm.Problem { return gemm.Problem{M: 512, N: 512, K: 512, Dataflow: df} }
	t4, t8 := topology.NewTorus(4, 4), topology.NewTorus(8, 8)
	w := &gemmWork{ops: []*gemmOp{
		{name: "4x4/OS/serial", prob: p(gemm.OS), shape: t4, twin: -1},
		{name: "4x4/LS/serial", prob: p(gemm.LS), shape: t4, twin: -1},
		{name: "4x4/RS/serial", prob: p(gemm.RS), shape: t4, twin: -1},
		{name: "4x4/OS/pipelined", prob: p(gemm.OS), shape: t4, pipelined: true, twin: 0},
		{name: "8x8/OS/serial", prob: p(gemm.OS), shape: t8, twin: -1},
	}}
	for _, o := range w.ops {
		o.s, o.block = 4, 2
	}
	return w.finishSetup(seed)
}

func setupGemmFine(seed int64) (instance, error) {
	deepK := gemm.Problem{M: 64, N: 64, K: 8192, Dataflow: gemm.OS}
	wideN := gemm.Problem{M: 64, N: 8192, K: 64, Dataflow: gemm.LS}
	t4 := topology.NewTorus(4, 4)
	w := &gemmWork{fine: mesh.New(t4), ops: []*gemmOp{
		{name: "meshslice/OS/serial", prob: deepK, twin: -1},
		{name: "meshslice/OS/pipelined", prob: deepK, pipelined: true, twin: 0},
		{name: "meshslice/LS/serial", prob: wideN, twin: -1},
		{name: "meshslice/LS/pipelined", prob: wideN, pipelined: true, twin: 2},
		{name: "wang/OS/serial", prob: deepK, wang: true, twin: -1},
		{name: "wang/OS/pipelined", prob: deepK, wang: true, pipelined: true, twin: 4},
	}}
	for _, o := range w.ops {
		o.shape, o.s, o.block = t4, 32, 8
		if o.wang {
			if err := gemm.WangValidate(o.prob, t4); err != nil {
				return nil, err
			}
		}
	}
	return w.finishSetup(seed)
}

func (w *gemmWork) round() {
	for _, o := range w.ops {
		if w.fine != nil {
			o.got, o.shards = nil, gemm.Run(w.fine, o.chipFunc(), o.as, o.bs)
		} else {
			o.got, o.err = meshslice.Multiply(o.prob, o.shape, o.config(), o.a, o.b)
		}
	}
}

func (w *gemmWork) check() (int, int) {
	failed := 0
	for _, o := range w.ops {
		if o.got == nil && o.shards != nil {
			o.got = tensor.Assemble(o.shards, o.shape.Rows, o.shape.Cols)
		}
		switch {
		case o.err != nil || o.got == nil:
			failed++
		case o.got.MaxAbsDiff(o.ref) > 1e-9*o.refMax:
			failed++
		case o.twin >= 0 && !o.got.BitEqual(w.ops[o.twin].got):
			failed++
		}
	}
	return len(w.ops), failed
}

// compose runs one op as the exported calls it is made of, on the given
// mesh (nil = a fresh one, as meshslice.Multiply does).
func (w *gemmWork) compose(tr *tracer, o *gemmOp, m *mesh.Mesh) {
	if w.fine != nil {
		tr.do("gemm", "gemm.Run", func() { o.shards = gemm.Run(m, o.chipFunc(), o.as, o.bs) })
		o.got = nil
		return
	}
	if m == nil {
		tr.do("mesh", "mesh.New", func() { m = mesh.New(o.shape) })
	}
	var as, bs []*tensor.Matrix
	tr.do("tensor", "tensor.Partition", func() {
		as = tensor.Partition(o.a, o.shape.Rows, o.shape.Cols)
		bs = tensor.Partition(o.b, o.shape.Rows, o.shape.Cols)
	})
	tr.do("gemm", "gemm.Run", func() { o.shards = gemm.Run(m, o.chipFunc(), as, bs) })
	tr.do("tensor", "tensor.Assemble", func() { o.got = tensor.Assemble(o.shards, o.shape.Rows, o.shape.Cols) })
}

func (w *gemmWork) traced(tr *tracer) error {
	for i, o := range w.ops {
		tr.nextOp()
		tr.do("gemm", "op:"+o.name, func() { w.compose(tr, o, w.fine) })
		if o.got == nil {
			o.got = tensor.Assemble(o.shards, o.shape.Rows, o.shape.Cols)
		}
		if !o.got.BitEqual(o.first) {
			return errorf("composed GeMM op %d (%s) is not BitEqual to the black-box result", i, o.name)
		}
	}
	return nil
}

// kernel describes the local kernel one op runs: which variant, its
// dimensions, and how many times the whole mesh calls it per op.
type kernel struct {
	df      gemm.Dataflow
	m, n, k int
	calls   int
}

func (o *gemmOp) kernel() kernel {
	r, c := o.shape.Rows, o.shape.Cols
	p := o.prob
	if o.wang { // C += A_t · B panel, one per ring step
		return kernel{gemm.OS, p.M / r, p.N / c, p.K / c, c * r * c}
	}
	calls := o.s * r * c
	switch p.Dataflow {
	case gemm.LS:
		return kernel{gemm.LS, p.M / r, p.N / o.s, p.K / c, calls}
	case gemm.RS:
		return kernel{gemm.RS, p.M / o.s, p.N / c, p.K / r, calls}
	default:
		return kernel{gemm.OS, p.M / r, p.N / c, p.K / o.s, calls}
	}
}

// replay runs the kernel's call sequence on one goroutine with random
// operands: the tensor layer's share of the op, free of the mesh.
func (k kernel) replay(rng *rand.Rand) func() {
	c := tensor.New(k.m, k.n)
	var a, b *tensor.Matrix
	var fn func(c, a, b *tensor.Matrix)
	switch k.df {
	case gemm.LS:
		a, b, fn = tensor.Random(k.m, k.k, rng), tensor.Random(k.n, k.k, rng), tensor.MatMulAddNT
	case gemm.RS:
		a, b, fn = tensor.Random(k.k, k.m, rng), tensor.Random(k.k, k.n, rng), tensor.MatMulAddTN
	default:
		a, b, fn = tensor.Random(k.m, k.k, rng), tensor.Random(k.k, k.n, rng), tensor.MatMulAdd
	}
	return func() {
		for i := 0; i < k.calls; i++ {
			fn(c, a, b)
		}
	}
}

// sliceReplay returns the op's slice/unslice call sequence (chip 0's
// shapes, repeated for every chip) and the bytes it copies.
func (o *gemmOp) sliceReplay() (func(), float64) {
	if o.wang {
		return func() {}, 0
	}
	r, c := o.shape.Rows, o.shape.Cols
	a := tensor.Partition(o.a, r, c)[0]
	b := tensor.Partition(o.b, r, c)[0]
	out := tensor.New(o.prob.M/r, o.prob.N/c)
	S, B := o.s, o.block
	var step func(s int)
	var elems int
	switch o.prob.Dataflow {
	case gemm.LS:
		sub := tensor.New(out.Rows, out.Cols/S)
		step = func(s int) { tensor.SliceRow(b, S, s, B); tensor.UnsliceColInto(out, sub, S, s, B) }
		elems = len(b.Data) + len(out.Data)
	case gemm.RS:
		sub := tensor.New(out.Rows/S, out.Cols)
		step = func(s int) { tensor.SliceCol(a, S, s, B); tensor.UnsliceRowInto(out, sub, S, s, B) }
		elems = len(a.Data) + len(out.Data)
	default:
		step = func(s int) { tensor.SliceCol(a, S, s, B); tensor.SliceRow(b, S, s, B) }
		elems = len(a.Data) + len(b.Data)
	}
	return func() {
		for chip := 0; chip < r*c; chip++ {
			for s := 0; s < S; s++ {
				step(s)
			}
		}
	}, float64(8 * elems * r * c)
}

// commOnly is the op with kernels and slicing removed: the same sequence
// of *Into collectives on pre-sliced buffers. It returns the ChipFunc, its
// per-rank inputs and the number of collective calls the mesh makes.
func (o *gemmOp) commOnly() (gemm.ChipFunc, []*tensor.Matrix, []*tensor.Matrix, int) {
	r, c := o.shape.Rows, o.shape.Cols
	chips := r * c
	as := tensor.Partition(o.a, r, c)
	bs := tensor.Partition(o.b, r, c)
	S, B := o.s, o.block
	if o.wang {
		full := make([]*tensor.Matrix, chips)
		for i := range full {
			full[i] = tensor.New(bs[i].Rows*r, bs[i].Cols)
		}
		return func(ch *mesh.Chip, a, b *tensor.Matrix) *tensor.Matrix {
			collective.AllGatherRowsInto(ch.ColComm(), b, full[ch.Rank])
			for t := 0; t < c-1; t++ {
				a = ch.RowComm().Shift(-1, a)
			}
			return a
		}, as, bs, chips * c
	}
	// Per-rank destination buffers, allocated once so the run itself
	// measures the rings.
	dst1 := make([]*tensor.Matrix, chips)
	dst2 := make([]*tensor.Matrix, chips)
	in1 := make([]*tensor.Matrix, chips)
	in2 := make([]*tensor.Matrix, chips)
	var fn gemm.ChipFunc
	switch o.prob.Dataflow {
	case gemm.LS:
		for i := range in1 {
			in1[i] = tensor.SliceRow(bs[i], S, 0, B)         // (N/(S·Pr)) × K/Pc
			dst1[i] = tensor.New(in1[i].Rows*r, in1[i].Cols) // gathered B'
			in2[i] = tensor.New(as[i].Rows, dst1[i].Rows)    // partial C'
			dst2[i] = tensor.New(in2[i].Rows, in2[i].Cols/c) // scattered
		}
		fn = func(ch *mesh.Chip, b, cp *tensor.Matrix) *tensor.Matrix {
			for s := 0; s < S; s++ {
				collective.AllGatherRowsInto(ch.ColComm(), b, dst1[ch.Rank])
				collective.ReduceScatterColsInto(ch.RowComm(), cp, dst2[ch.Rank])
			}
			return dst2[ch.Rank]
		}
	case gemm.RS:
		for i := range in1 {
			in1[i] = tensor.SliceCol(as[i], S, 0, B)         // K/Pr × (M/(S·Pc))
			dst1[i] = tensor.New(in1[i].Rows, in1[i].Cols*c) // gathered A'
			in2[i] = tensor.New(dst1[i].Cols, bs[i].Cols)    // partial C'
			dst2[i] = tensor.New(in2[i].Rows/r, in2[i].Cols) // scattered
		}
		fn = func(ch *mesh.Chip, a, cp *tensor.Matrix) *tensor.Matrix {
			for s := 0; s < S; s++ {
				collective.AllGatherColsInto(ch.RowComm(), a, dst1[ch.Rank])
				collective.ReduceScatterRowsInto(ch.ColComm(), cp, dst2[ch.Rank])
			}
			return dst2[ch.Rank]
		}
	default:
		for i := range in1 {
			in1[i] = tensor.SliceCol(as[i], S, 0, B)
			in2[i] = tensor.SliceRow(bs[i], S, 0, B)
			dst1[i] = tensor.New(in1[i].Rows, in1[i].Cols*c)
			dst2[i] = tensor.New(in2[i].Rows*r, in2[i].Cols)
		}
		fn = func(ch *mesh.Chip, a, b *tensor.Matrix) *tensor.Matrix {
			for s := 0; s < S; s++ {
				collective.AllGatherColsInto(ch.RowComm(), a, dst1[ch.Rank])
				collective.AllGatherRowsInto(ch.ColComm(), b, dst2[ch.Rank])
			}
			return dst1[ch.Rank]
		}
	}
	return fn, in1, in2, chips * 2 * S
}

func (w *gemmWork) probes(tr *tracer, out metricSet) error {
	rng := rand.New(rand.NewSource(1))
	var kernelMs, sliceMs, sliceBytes, flops, kernelCalls float64
	var ringMs, ringObjects, ringCalls, msgs, elems float64
	var recordedMs, plainMs, overlap, overlapOps, maxErr float64
	for _, o := range w.ops {
		k := o.kernel()
		kernelMs += timeIt(3, k.replay(rng))
		kernelCalls += float64(k.calls)
		flops += 2 * float64(k.m) * float64(k.n) * float64(k.k) * float64(k.calls)
		slice, bytes := o.sliceReplay()
		sliceMs += timeIt(3, slice)
		sliceBytes += bytes
		maxErr = math.Max(maxErr, o.first.MaxAbsDiff(o.ref))

		// Collectives alone, on a warm private mesh.
		fn, in1, in2, calls := o.commOnly()
		m := mesh.New(o.shape)
		gemm.Run(m, fn, in1, in2)
		ringMs += timeIt(5, func() { gemm.Run(m, fn, in1, in2) })
		objects, _ := mallocsDuring(func() { gemm.Run(m, fn, in1, in2) })
		ringObjects += objects
		ringCalls += float64(calls)

		// The real op on a counting mesh, then with the flight recorder
		// attached: exact traffic, structural overlap, recorder cost.
		live := w.fine
		if live == nil {
			live = mesh.New(o.shape)
		}
		run := func() { w.compose(nil, o, live) }
		run()
		live.ResetTraffic()
		run()
		traffic := live.Traffic()
		msgs += float64(traffic.Messages)
		elems += float64(traffic.Elements)
		plainMs += timeIt(3, run)
		rec := recorder.New(o.shape.Size(), 0)
		live.SetRecorder(rec)
		recordedMs += timeIt(3, func() { rec.Reset(); run() })
		if o.pipelined {
			overlap += rec.Overlap().Fraction
			overlapOps++
		}
		live.SetRecorder(nil)
	}
	procs := float64(runtime.GOMAXPROCS(0))
	runMs := tr.ms("gemm.Run")
	out["tensor.kernel_ms"] = kernelMs
	out["tensor.kernel_gflops"] = flops / (kernelMs * 1e6)
	out["tensor.kernel_calls"] = kernelCalls
	out["tensor.flops"] = flops
	out["tensor.slice_ms"] = sliceMs
	out["tensor.slice_mb"] = sliceBytes / 1e6
	out["tensor.partition_ms"] = tr.ms("tensor.Partition", "tensor.Assemble")
	out["collective.ring_ms"] = ringMs
	out["collective.us_per_msg"] = ringMs * 1e3 / msgs
	out["collective.mb_per_s"] = elems * 8 / 1e6 / (ringMs / 1e3)
	out["collective.allocs_per_op"] = ringObjects / ringCalls
	out["mesh.msgs"] = msgs
	out["mesh.elements"] = elems
	if n := tr.calls("mesh.New"); n > 0 {
		out["mesh.new_us"] = tr.ms("mesh.New") * 1e3 / n
	}
	out["gemm.run_ms"] = runMs
	serial, pipelined := w.modeMs(tr, false), w.modeMs(tr, true)
	out["gemm.serial_ms"] = serial
	out["gemm.pipelined_ms"] = pipelined
	out["gemm.pipeline_speedup"] = serial / pipelined
	out["gemm.overlap_fraction"] = overlap / overlapOps
	out["gemm.exposed_ms"] = runMs - kernelMs/procs
	out["gemm.max_abs_err"] = maxErr
	out["obs.recorder_overhead_pct"] = 100 * (recordedMs - plainMs) / plainMs
	return nil
}

// modeMs is the per-round time of the pipelined ops, or of their serial
// twins, so the two sums cover the same problems.
func (w *gemmWork) modeMs(tr *tracer, pipelined bool) float64 {
	var names []string
	for _, o := range w.ops {
		if o.pipelined {
			if pipelined {
				names = append(names, "op:"+o.name)
			} else {
				names = append(names, "op:"+w.ops[o.twin].name)
			}
		}
	}
	return tr.ms(names...)
}

func (w *gemmWork) close() {}
