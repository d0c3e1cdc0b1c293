package minitrain

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"sync"

	"meshslice/internal/ckpt"
	"meshslice/internal/collective"
	"meshslice/internal/fault"
	"meshslice/internal/held"
	"meshslice/internal/mesh"
	"meshslice/internal/obs"
	"meshslice/internal/obs/recorder"
	"meshslice/internal/tensor"
	"meshslice/internal/topology"
)

// Elastic training: the shape-independent trainer behind the checkpoint/
// restore subsystem (package ckpt).
//
// The MeshSlice trainer (Train) matches its serial reference up
// to floating-point association: ring ReduceScatter sums block partials in
// ring-dependent groupings, so the exact bit pattern of a weight depends on
// the mesh shape. That is fine for a fixed-shape run, but elastic resume —
// fail on N×M, retune, continue on N′×M′ — demands a stronger property: the
// final weights must not depend on the shape at all, or resuming on a new
// shape could never be bit-identical to the uninterrupted run.
//
// TrainElastic gets that property by construction. Operands move only
// through allgathers — pure data movement whose ring-position order equals
// the global order, never a ring reduction — and each chip computes only
// its own output block with the local tiled kernels, whose per-element
// reduction runs over k in ascending order regardless of operand shape
// (package tensor). Every computed element therefore sees exactly the
// serial reduction order, so TrainElastic on ANY mesh shape is bitwise
// equal to TrainElasticSerial — the invariant TestElasticBitwiseAcrossShapes
// pins, and the foundation of the fail→retune→resume guarantee. The cost is
// replicated operand storage during the step, the standard trade for exact
// elasticity. Each chip gathers only the operand blocks its kernels read
// (stepGathers): its column strips of W1 and of the hidden gradient come
// from the column ring alone; W2, the activations and the outputs are
// gathered in full, because the kernels read row blocks of them that no
// single ring assembles. That storage lives in one workspace per chip
// (elasticWorkspace): every step gathers, slices and multiplies into the
// same buffers, so a step allocates no tensor. The workspaces are carved
// from one slab the package keeps between runs (workspaceSlab), so a
// run does not allocate and zero them afresh either: the 2×2 resume of a
// failed 2×4 run trains in the 2×4 run's memory. Every workspace buffer is
// overwritten before it is read, so what an earlier run left in the slab
// cannot reach the bits.

// Elastic tensor names as stored in checkpoint records.
const (
	TensorW1 = "w1"
	TensorV1 = "v1"
	TensorW2 = "w2"
	TensorV2 = "v2"
)

// ElasticFlow is the dataflow tag elastic snapshots carry in manifests.
const ElasticFlow = "elastic"

// ElasticConfig describes the elastic two-layer MLP task: the same
// regression problem as Config, trained with momentum SGD so checkpoints
// carry real optimizer state.
type ElasticConfig struct {
	Batch  int
	In     int
	Hidden int
	Out    int
	// LR is the SGD learning rate, Momentum the velocity decay (0 is plain
	// SGD; the elastic tests use 0.9 so the optimizer state is load-bearing).
	LR       float64
	Momentum float64
}

// Validate reports whether the configuration can train under the layout:
// the mesh must evenly partition every sharded tensor and activation, and
// the layout slicing must divide the weight blocks (ckpt.Layout.CheckTensor).
func (c ElasticConfig) Validate(l ckpt.Layout) error {
	if c.Batch <= 0 || c.In <= 0 || c.Hidden <= 0 || c.Out <= 0 {
		return fmt.Errorf("minitrain: degenerate elastic dims %+v", c)
	}
	if c.LR <= 0 || c.Momentum < 0 || c.Momentum >= 1 {
		return fmt.Errorf("minitrain: elastic LR %v momentum %v", c.LR, c.Momentum)
	}
	if err := l.Validate(); err != nil {
		return err
	}
	if c.Batch%l.Rows != 0 {
		return fmt.Errorf("minitrain: batch %d not divisible by mesh rows %d", c.Batch, l.Rows)
	}
	if err := l.CheckTensor(TensorW1, c.In, c.Hidden); err != nil {
		return err
	}
	return l.CheckTensor(TensorW2, c.Hidden, c.Out)
}

// DataAt generates the deterministic training batch for one global step.
// Unlike a fixed batch, the elastic stream draws a fresh batch per
// step from (seed, step) alone, so a resumed run regenerates the exact
// batches the interrupted run would have seen — the snapshot only has to
// carry the seed and the step counter.
func (c ElasticConfig) DataAt(seed int64, step int) Data {
	rng := rand.New(rand.NewSource(seed + int64(step)*1000003 + 1))
	return Data{
		X: tensor.Random(c.Batch, c.In, rng),
		T: tensor.Random(c.Batch, c.Out, rng),
	}
}

// InitElastic draws the initial elastic state deterministically: the same
// scaled weight initialisation as InitWeights plus zero velocities.
func InitElastic(c ElasticConfig, seed int64) (w1, v1, w2, v2 *tensor.Matrix) {
	w1, w2 = InitWeights(Config{Batch: c.Batch, In: c.In, Hidden: c.Hidden, Out: c.Out}, seed)
	return w1, tensor.New(c.In, c.Hidden), w2, tensor.New(c.Hidden, c.Out)
}

// The gathers of one elastic step, in the order the step runs them. A
// column gather is one allgather along the column ring (ring position =
// mesh row): it assembles the chip's column strip of the tensor. A full
// gather first runs the row ring (ring position = mesh column) and then
// gathers the strips on the column ring: it assembles the global tensor.
const (
	gatherW1  = iota // column: w1c = W1[:, cc·hc : +hc]
	gatherW2         // full
	gatherAct        // full: hidden activations
	gatherY          // full: outputs
	gatherDH         // column: dHC = dH[:, cc·hc : +hc]
	numGathers
)

// stepGathers marks which of a step's gathers are full gathers.
var stepGathers = [numGathers]bool{gatherW2: true, gatherAct: true, gatherY: true}

// StepSends returns the number of messages each chip sends per elastic
// training step, read off stepGathers: Rows−1 per gather on the column
// ring, plus Cols−1 per full gather on the row ring — three full and two
// column gathers, 3·(Rows−1+Cols−1) + 2·(Rows−1). Deterministic, so fault
// injection can target an exact step (see ElasticFailFaults).
func (c ElasticConfig) StepSends(t topology.Torus) int {
	n := 0
	for _, full := range stepGathers {
		n += t.Rows - 1
		if full {
			n += t.Cols - 1
		}
	}
	return n
}

// ElasticFailFaults arms a fail-stop of the given chip at the start of
// global step failStep (counting from the run's first step, startStep):
// the chip dies on its first send of that step.
func (c ElasticConfig) ElasticFailFaults(t topology.Torus, chip, startStep, failStep int) fault.MeshFaults {
	return fault.MeshFaults{ChipFails: []fault.MeshChipFail{
		{Chip: chip, AfterSends: (failStep - startStep) * c.StepSends(t)},
	}}
}

// ElasticOpts tunes a TrainElastic run.
type ElasticOpts struct {
	// Every takes a snapshot whenever the global step counter reaches a
	// multiple of it (0 = never). Snapshot epochs are the multiples
	// themselves divided by Every, so the epoch sequence is monotone across
	// resumes.
	Every int
	// Resume restores training state from a snapshot instead of
	// initialising from the seed; the run continues from its step counter
	// and seed. The snapshot's layout must equal the run's layout.
	Resume *ckpt.Snapshot
	// Faults, when non-empty, arms the mesh fault interposer for the run.
	Faults fault.MeshFaults
	// Recorder, when set, captures snapshot/restore spans and all mesh
	// events (must cover the layout's chip count).
	Recorder *recorder.Recorder
	// Metrics, when set, receives ckpt_snapshot_/ckpt_restore_ counters.
	Metrics *obs.Registry
}

// ElasticResult carries the final assembled weights, per-step losses for
// the steps this run executed, and the snapshots it took (complete epochs
// only, ascending).
type ElasticResult struct {
	W1, W2 *tensor.Matrix
	Losses []float64
	// StartStep and Steps delimit the global step range the run covered.
	StartStep, Steps int
	Snapshots        []*ckpt.Snapshot
}

// TrainElastic runs the elastic trainer SPMD on the layout's mesh until the
// global step counter reaches steps, snapshotting every opts.Every steps.
// With opts.Resume it continues from the snapshot's step counter instead of
// step 0. On an injected fault it returns the typed mesh error together
// with the partial result — crucially including every complete snapshot
// taken before the failure, which is what the fail→retune→resume flow
// reshards and resumes from.
func TrainElastic(c ElasticConfig, lay ckpt.Layout, steps int, seed int64, opts ElasticOpts) (ElasticResult, error) {
	if err := c.Validate(lay); err != nil {
		return ElasticResult{}, err
	}
	if opts.Every < 0 {
		return ElasticResult{}, fmt.Errorf("minitrain: negative snapshot interval %d", opts.Every)
	}
	tor := lay.Torus()
	chips := lay.Chips()
	if err := opts.Faults.Validate(chips); err != nil {
		return ElasticResult{}, err
	}

	// Resolve the starting state: fresh from the seed, or decoded from the
	// resume snapshot (which then also dictates seed and start step).
	start := 0
	var resumeRecs []*ckpt.RecordData
	var resumeDigest *tensor.Matrix
	if opts.Resume != nil {
		man := opts.Resume.Manifest
		if man.Layout != lay {
			return ElasticResult{}, fmt.Errorf("minitrain: resume snapshot layout %+v, run layout %+v", man.Layout, lay)
		}
		if man.Flow != ElasticFlow {
			return ElasticResult{}, fmt.Errorf("minitrain: resume snapshot dataflow %q", man.Flow)
		}
		recs, err := opts.Resume.Decode()
		if err != nil {
			return ElasticResult{}, err
		}
		if err := c.checkRecords(recs); err != nil {
			return ElasticResult{}, err
		}
		resumeRecs = recs
		seed = man.Seed
		start = man.Step
		resumeDigest = restoreDigest(opts.Resume)
	}
	if steps <= start {
		return ElasticResult{}, fmt.Errorf("minitrain: target step %d not beyond start step %d", steps, start)
	}

	// Snapshot slots: one per (epoch, rank), written lock-free by the chip
	// goroutines (runAll's WaitGroup gives the happens-before edge).
	firstEpoch := start/max(opts.Every, 1) + 1
	nEpochs := 0
	if opts.Every > 0 {
		nEpochs = steps/opts.Every - start/opts.Every
	}
	epochRecs := make([][][]byte, nEpochs)
	for i := range epochRecs {
		epochRecs[i] = make([][]byte, chips)
	}

	pr, pc := lay.Rows, lay.Cols
	br, ir, hr := c.Batch/pr, c.In/pr, c.Hidden/pr
	hc, oc := c.Hidden/pc, c.Out/pc
	var w1s, w2s []*tensor.Matrix
	if resumeRecs == nil {
		w1g, w2g := InitWeights(Config{Batch: c.Batch, In: c.In, Hidden: c.Hidden, Out: c.Out}, seed)
		w1s = tensor.Partition(w1g, pr, pc)
		w2s = tensor.Partition(w2g, pr, pc)
	}

	// Each step's batch is drawn once and shared read-only by every chip.
	batches := make([]Data, steps-start)
	for s := range batches {
		batches[s] = c.DataAt(seed, start+s)
	}

	m := mesh.New(tor)
	m.SetFaults(opts.Faults)
	if opts.Recorder != nil {
		m.SetRecorder(opts.Recorder)
	}
	losses := make([]float64, steps-start)
	var mu sync.Mutex
	finalW1 := make([]*tensor.Matrix, chips)
	finalW2 := make([]*tensor.Matrix, chips)
	per := workspaceFloats(c, pr, pc)
	slab := workspaceSlab.Take(chips * per)
	err := m.RunE(func(ch *mesh.Chip) {
		r, cc := ch.Coord.Row, ch.Coord.Col
		// The chip trains its shards in place: decoded records and
		// partitioned blocks are this run's own, one per rank.
		var w1, v1, w2, v2 *tensor.Matrix
		if resumeRecs != nil {
			rd := resumeRecs[ch.Rank]
			w1 = rd.Tensor(TensorW1).Block
			v1 = rd.Tensor(TensorV1).Block
			w2 = rd.Tensor(TensorW2).Block
			v2 = rd.Tensor(TensorV2).Block
			verifyRestore(ch, resumeDigest, opts.Metrics, len(opts.Resume.Records[ch.Rank]))
		} else {
			w1, w2 = w1s[ch.Rank], w2s[ch.Rank]
			v1, v2 = tensor.New(ir, hc), tensor.New(hr, oc)
		}
		ws := newElasticWorkspace(ch, c, pr, pc, slab[ch.Rank*per:(ch.Rank+1)*per])
		for s := start; s < steps; s++ {
			data := batches[s-start]

			// Gather the weight blocks the kernels read (allgather = exact
			// data movement): W1's column strip, all of W2.
			w1c := ws.gather(gatherW1, w1)
			w2f := ws.gather(gatherW2, w2)

			// Forward: each chip computes only its own output block with
			// the flat ascending-k kernels, then the activations are
			// gathered so the backward contractions see the full batch.
			// Row blocks are views of their source; column blocks are
			// gathered or copied into the workspace.
			matMulInto(ws.hB, rowsView(&ws.xRows, data.X, r*br, br), w1c)
			reluInto(ws.haB, ws.hB)
			haF := ws.gather(gatherAct, ws.haB)
			ws.w2c.CopySub(w2f, 0, cc*oc)
			matMulInto(ws.yB, rowsView(&ws.haRows, haF, r*br, br), ws.w2c)
			yF := ws.gather(gatherY, ws.yB)

			// Loss gradient on the full (replicated) output — every chip
			// computes the identical scalar, so no reduction is needed.
			dyF := yF
			for i := range dyF.Data {
				dyF.Data[i] -= data.T.Data[i]
			}
			if ch.Rank == 0 {
				mu.Lock()
				losses[s-start] = sumSquares(dyF) / float64(c.Batch*c.Out)
				mu.Unlock()
			}
			dyF.Scale(2 / float64(c.Batch*c.Out))

			// Backward: own blocks only, full-batch contractions.
			ws.haC.CopySub(haF, 0, r*hr)
			ws.dyC.CopySub(dyF, 0, cc*oc)
			matMulTNInto(ws.dW2B, ws.haC, ws.dyC)
			matMulNTInto(ws.dHB, rowsView(&ws.dyRows, dyF, r*br, br), rowsView(&ws.w2Rows, w2f, cc*hc, hc))
			maskInto(ws.dHB, ws.hB)
			dHC := ws.gather(gatherDH, ws.dHB)
			ws.xC.CopySub(data.X, 0, r*ir)
			matMulTNInto(ws.dW1B, ws.xC, dHC)

			// Momentum SGD on the local shards — element-wise, so exact on
			// any shape.
			momentumStep(w1, v1, ws.dW1B, c.LR, c.Momentum)
			momentumStep(w2, v2, ws.dW2B, c.LR, c.Momentum)

			if opts.Every > 0 && (s+1)%opts.Every == 0 {
				epoch := (s + 1) / opts.Every
				snapshotChip(ch, c, lay, epochRecs[epoch-firstEpoch], s+1, seed, epoch,
					w1, v1, w2, v2, opts.Metrics)
			}
		}
		mu.Lock()
		finalW1[ch.Rank] = w1
		finalW2[ch.Rank] = w2
		mu.Unlock()
	})
	workspaceSlab.Give(slab)

	res := ElasticResult{Losses: losses, StartStep: start, Steps: steps}
	for i, recs := range epochRecs {
		complete := true
		for _, rec := range recs {
			if rec == nil {
				complete = false
				break
			}
		}
		if !complete {
			continue
		}
		snap, berr := ckpt.BuildSnapshot(lay, firstEpoch+i, ElasticFlow, recs)
		if berr != nil {
			return res, berr
		}
		res.Snapshots = append(res.Snapshots, snap)
	}
	if err != nil {
		return res, err
	}
	res.W1 = tensor.Assemble(finalW1, pr, pc)
	res.W2 = tensor.Assemble(finalW2, pr, pc)
	return res, nil
}

// checkRecords reports whether every decoded resume record holds the four
// elastic tensors at the config's global shapes, so that no chip goroutine
// meets a missing tensor or gathers blocks of another config's shape.
func (c ElasticConfig) checkRecords(recs []*ckpt.RecordData) error {
	want := [...]ckpt.TensorSpec{
		{Name: TensorW1, Rows: c.In, Cols: c.Hidden},
		{Name: TensorV1, Rows: c.In, Cols: c.Hidden},
		{Name: TensorW2, Rows: c.Hidden, Cols: c.Out},
		{Name: TensorV2, Rows: c.Hidden, Cols: c.Out},
	}
	for _, rd := range recs {
		for _, w := range want {
			nt := rd.Tensor(w.Name)
			if nt == nil {
				return fmt.Errorf("minitrain: resume record %d lacks tensor %q", rd.Rank, w.Name)
			}
			if nt.Rows != w.Rows || nt.Cols != w.Cols {
				return fmt.Errorf("minitrain: resume tensor %q is %dx%d, config needs %dx%d", w.Name, nt.Rows, nt.Cols, w.Rows, w.Cols)
			}
		}
	}
	return nil
}

// TrainElasticSerial is the single-node ground truth: the identical math in
// global form. TrainElastic on any layout must match it bitwise.
func TrainElasticSerial(c ElasticConfig, steps int, seed int64) ElasticResult {
	w1, v1, w2, v2 := InitElastic(c, seed)
	res := ElasticResult{Steps: steps}
	for s := 0; s < steps; s++ {
		data := c.DataAt(seed, s)
		h := tensor.MatMul(data.X, w1)
		hAct := relu(h)
		y := tensor.MatMul(hAct, w2)

		dy := y
		for i := range dy.Data {
			dy.Data[i] -= data.T.Data[i]
		}
		res.Losses = append(res.Losses, sumSquares(dy)/float64(c.Batch*c.Out))
		dy.Scale(2 / float64(c.Batch*c.Out))

		dW2 := tensor.MatMulTN(hAct, dy)
		dH := tensor.MatMulNT(dy, w2)
		maskInto(dH, h)
		dW1 := tensor.MatMulTN(data.X, dH)

		momentumStep(w1, v1, dW1, c.LR, c.Momentum)
		momentumStep(w2, v2, dW2, c.LR, c.Momentum)
	}
	res.W1, res.W2 = w1, w2
	return res
}

// elasticWorkspace is one chip's step storage, carved from its share of
// the run's slab: the chip's two ring communicators, the gather
// destinations, the column blocks the local kernels read, and the products
// they write. Row blocks need no buffer — a run of whole rows is a view of
// its source (rowsView), and the workspace holds the view headers.
type elasticWorkspace struct {
	row, col *mesh.Comm
	// gathers holds each of stepGathers' destinations. The column gathers
	// land straight in the column blocks w1c (In×hc) and dHC (Batch×hc).
	gathers [numGathers]gatherBufs
	// Row views: xRows (br×In), haRows (br×Hidden), dyRows (br×Out),
	// w2Rows (hc×Out).
	xRows, haRows, dyRows, w2Rows tensor.Matrix
	// Copied column blocks: w2c (Hidden×oc), haC (Batch×hr), dyC (Batch×oc),
	// xC (Batch×ir).
	w2c, haC, dyC, xC *tensor.Matrix
	// Products: hB, haB, dHB (br×hc), yB (br×oc), dW1B (ir×hc), dW2B (hr×oc).
	hB, haB, dHB, yB, dW1B, dW2B *tensor.Matrix
}

// newElasticWorkspace carves chip ch's workspace from slab, which holds
// workspaceFloats(c, pr, pc) elements.
func newElasticWorkspace(ch *mesh.Chip, c ElasticConfig, pr, pc int, slab []float64) *elasticWorkspace {
	k := carver{slab: slab}
	ws := k.workspace(c, pr, pc, ch.Coord.Row)
	ws.row, ws.col = ch.RowComm(), ch.ColComm()
	return ws
}

// workspaceFloats is the number of float64s one chip's workspace takes on a
// pr×pc mesh.
func workspaceFloats(c ElasticConfig, pr, pc int) int {
	var k carver
	k.workspace(c, pr, pc, 0)
	return k.used
}

// carver hands out consecutive matrices from a slab. With a nil slab it
// only counts the elements they take (their Data stays nil).
type carver struct {
	slab []float64
	used int
}

func (k *carver) next(rows, cols int) *tensor.Matrix {
	m := &tensor.Matrix{Rows: rows, Cols: cols}
	n := rows * cols
	if k.slab != nil {
		m.Data = k.slab[k.used : k.used+n : k.used+n]
	}
	k.used += n
	return m
}

// fullGather carves a full gather of rows×cols blocks on a pr×pc mesh for a
// chip in mesh row r. Its row-ring strip is a view of dst's row band r —
// whole rows, so contiguous — which is where the column ring puts the
// strip: the row ring gathers straight into place.
func (k *carver) fullGather(rows, cols, pr, pc, r int) gatherBufs {
	dst := k.next(pr*rows, pc*cols)
	strip := &tensor.Matrix{Rows: rows, Cols: pc * cols}
	if dst.Data != nil {
		strip.Data = dst.Data[r*rows*dst.Cols : (r+1)*rows*dst.Cols]
	}
	return gatherBufs{strip: strip, dst: dst}
}

// workspace carves the buffers of a workspace for a chip in mesh row r. It
// is the one place their shapes are written down.
func (k *carver) workspace(c ElasticConfig, pr, pc, r int) *elasticWorkspace {
	br, ir, hr := c.Batch/pr, c.In/pr, c.Hidden/pr
	hc, oc := c.Hidden/pc, c.Out/pc
	return &elasticWorkspace{
		gathers: [numGathers]gatherBufs{
			gatherW1:  {dst: k.next(c.In, hc)},
			gatherW2:  k.fullGather(hr, oc, pr, pc, r),
			gatherAct: k.fullGather(br, hc, pr, pc, r),
			gatherY:   k.fullGather(br, oc, pr, pc, r),
			gatherDH:  {dst: k.next(c.Batch, hc)},
		},
		w2c:  k.next(c.Hidden, oc),
		haC:  k.next(c.Batch, hr),
		dyC:  k.next(c.Batch, oc),
		xC:   k.next(c.Batch, ir),
		hB:   k.next(br, hc),
		haB:  k.next(br, hc),
		dHB:  k.next(br, hc),
		yB:   k.next(br, oc),
		dW1B: k.next(ir, hc),
		dW2B: k.next(hr, oc),
	}
}

// gatherBufs holds one gather's destinations: the column-ring result dst
// and, for a full gather only, the row-ring strip it gathers from.
type gatherBufs struct{ strip, dst *tensor.Matrix }

// workspaceSlab is the slab TrainElastic runs carve their workspaces from,
// kept between runs so that a run does not allocate and zero them afresh:
// a run takes it and gives it back once its mesh has stopped, so the slab
// grows to the largest run's need and one slab, not one per mesh shape,
// stays live.
var workspaceSlab held.Store[float64]

// gather runs step gather i on this chip's block: for a full gather an
// allgather along the row ring (ring position = mesh column, so blocks land
// in global column order), then along the column ring (position = mesh
// row). Allgathers copy bits, so the result is exactly the global tensor
// (full) or its column strip (column gather).
// lint:hotpath per-step gather into the workspace: must not allocate
func (ws *elasticWorkspace) gather(i int, blk *tensor.Matrix) *tensor.Matrix {
	g := ws.gathers[i]
	if stepGathers[i] {
		collective.AllGatherColsInto(ws.row, blk, g.strip)
		blk = g.strip
	}
	collective.AllGatherRowsInto(ws.col, blk, g.dst)
	return g.dst
}

// rowsView points v at rows [r0, r0+n) of m, sharing m's storage, and
// returns it.
func rowsView(v, m *tensor.Matrix, r0, n int) *tensor.Matrix {
	*v = *tensor.FromSlice(n, m.Cols, m.Data[r0*m.Cols:(r0+n)*m.Cols])
	return v
}

// matMulInto, matMulNTInto and matMulTNInto overwrite dst with A·B, A·Bᵀ
// and Aᵀ·B. MatMul, MatMulNT and MatMulTN are a fresh zero matrix plus the
// same accumulation, so the results are bitwise theirs.
func matMulInto(dst, a, b *tensor.Matrix) {
	dst.Zero()
	tensor.MatMulAdd(dst, a, b)
}

func matMulNTInto(dst, a, b *tensor.Matrix) {
	dst.Zero()
	tensor.MatMulAddNT(dst, a, b)
}

func matMulTNInto(dst, a, b *tensor.Matrix) {
	dst.Zero()
	tensor.MatMulAddTN(dst, a, b)
}

// momentumStep applies one momentum-SGD update element-wise:
// v ← µ·v + g, w ← w − lr·v.
// lint:hotpath per-step optimizer update: must not allocate
func momentumStep(w, v, g *tensor.Matrix, lr, mu float64) {
	for i := range v.Data {
		v.Data[i] = mu*v.Data[i] + g.Data[i]
		w.Data[i] -= lr * v.Data[i]
	}
}

// snapshotChip serializes this chip's state into its epoch slot, stamped as
// a snapshot span for the flight recorder. Deliberately NOT lint:hotpath:
// it runs once every k steps, not every step, and encoding a fresh record
// buffer is the operation — the per-step hot path is momentumStep and the
// ring collectives, which are annotated.
func snapshotChip(ch *mesh.Chip, c ElasticConfig, lay ckpt.Layout, slots [][]byte,
	step int, seed int64, epoch int, w1, v1, w2, v2 *tensor.Matrix, metrics *obs.Registry) {
	ch.SpanStart(recorder.OpSnapshot, epoch)
	defer ch.SpanEnd(recorder.OpSnapshot)
	rec, err := ckpt.EncodeRecord(lay, ch.Rank, step, seed, []ckpt.NamedTensor{
		{Name: TensorW1, Rows: c.In, Cols: c.Hidden, Block: w1},
		{Name: TensorV1, Rows: c.In, Cols: c.Hidden, Block: v1},
		{Name: TensorW2, Rows: c.Hidden, Cols: c.Out, Block: w2},
		{Name: TensorV2, Rows: c.Hidden, Cols: c.Out, Block: v2},
	})
	if err != nil {
		panic(fmt.Sprintf("minitrain: snapshot encode on chip %d: %v", ch.Rank, err)) // lint:invariant encode cannot fail after Validate
	}
	slots[ch.Rank] = rec
	if metrics != nil {
		metrics.Counter("ckpt_snapshot_records").Inc()
		metrics.Counter("ckpt_snapshot_bytes").AddInt(int64(len(rec)))
	}
}

// restoreDigest condenses a snapshot's identity into a 1×4 matrix: step,
// epoch, manifest-bytes checksum, chip count.
func restoreDigest(s *ckpt.Snapshot) *tensor.Matrix {
	mb, err := s.Manifest.Encode()
	if err != nil {
		panic(fmt.Sprintf("minitrain: manifest re-encode: %v", err)) // lint:invariant verified snapshot always re-encodes
	}
	return tensor.FromSlice(1, 4, []float64{
		float64(s.Manifest.Step),
		float64(s.Manifest.Epoch),
		float64(crc32.ChecksumIEEE(mb)),
		float64(len(s.Records)),
	})
}

// verifyRestore is the restore-path consistency handshake: rank 0
// broadcasts the snapshot digest along its row ring, then every row-0
// member broadcasts down its column ring, so all chips agree they restored
// from the same snapshot before training resumes. This is the root-
// broadcast path the mesh stream-backlog guard protects (two bounded
// BroadcastInto calls per chip — never a same-root tight loop).
func verifyRestore(ch *mesh.Chip, digest *tensor.Matrix, metrics *obs.Registry, recBytes int) {
	ch.SpanStart(recorder.OpRestore, -1)
	defer ch.SpanEnd(recorder.OpRestore)
	got := tensor.New(1, 4)
	if ch.Coord.Row == 0 {
		var local *tensor.Matrix
		if ch.Coord.Col == 0 {
			local = digest
		}
		collective.BroadcastInto(ch.RowComm(), 0, local, got)
		collective.BroadcastInto(ch.ColComm(), 0, got, got)
	} else {
		collective.BroadcastInto(ch.ColComm(), 0, nil, got)
	}
	if !got.BitEqual(digest) {
		panic(fmt.Sprintf("minitrain: chip %d restored from a different snapshot: digest %v, want %v", ch.Rank, got.Data, digest.Data)) // lint:invariant restore handshake mismatch
	}
	if metrics != nil {
		metrics.Counter("ckpt_restore_records").Inc()
		metrics.Counter("ckpt_restore_bytes").AddInt(int64(recBytes))
	}
}
