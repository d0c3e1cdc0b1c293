package autotune

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"meshslice/internal/costmodel"
	"meshslice/internal/gemm"
	"meshslice/internal/hw"
	"meshslice/internal/model"
	"meshslice/internal/obs"
	"meshslice/internal/topology"
)

// PassChoice is the tuned configuration of one training GeMM.
type PassChoice struct {
	Problem gemm.Problem
	S       int
	// Estimate is the cost model's prediction for this choice.
	Estimate costmodel.Estimate
}

// LayerChoice is the tuned configuration of one FC layer.
type LayerChoice struct {
	Plan   LayerPlan
	Passes [3]PassChoice
}

// Choice is the autotuner's final output: the mesh shape and per-layer
// slice counts minimising the estimated FC-layer time per block.
type Choice struct {
	Shape  topology.Torus
	Layers []LayerChoice
	// BlockTime is the estimated FC execution time of one transformer
	// block (all four layers, all three passes).
	BlockTime float64
}

// Options configures the search.
type Options struct {
	// MaxS caps the slice counts explored (0 means the default of 64; the
	// paper notes the search space of S is small because only divisors of
	// the sliced dimension qualify).
	MaxS int
	// OptimizeDataflow enables phase 1 (Table 2 compares both settings).
	OptimizeDataflow bool
	// Shapes overrides the candidate mesh shapes; nil enumerates every 2D
	// factorisation of Chips.
	Shapes []topology.Torus
	// Metrics, when set, receives the search's telemetry: candidate
	// counts, cost-model call counts, and the best-so-far trajectory
	// (see Tune).
	Metrics *obs.Registry
	// Workers bounds the goroutines scoring candidate mesh shapes
	// concurrently (0 means GOMAXPROCS). Shapes are scored independently
	// and folded in index order, so the Choice and every published metric
	// are byte-identical for any worker count.
	Workers int
}

// Tune runs the full autotuner for the model on a cluster of `chips`
// accelerators: phase 1 fixes dataflows, phase 2 exhaustively co-optimises
// the mesh shape and each pass's slice count using the analytical cost
// models (paper §3.2.2).
func Tune(cfg model.Config, tokens, chips int, chip hw.Chip, opts Options) (Choice, error) {
	if err := cfg.Validate(); err != nil {
		return Choice{}, err
	}
	if chips <= 0 || tokens <= 0 {
		return Choice{}, fmt.Errorf("autotune: chips=%d tokens=%d", chips, tokens)
	}
	plans := PlanModel(cfg, tokens, opts.OptimizeDataflow)
	shapes, err := candidateShapes(opts.Shapes, chips)
	if err != nil {
		return Choice{}, err
	}

	// Search telemetry:
	//
	//	autotune_shapes_evaluated  counter — candidate mesh shapes scored
	//	autotune_shapes_pruned     counter — shapes rejected (unshardable)
	//	autotune_passes_tuned      counter — per-pass slice-count assignments
	//	autotune_costmodel_calls   counter — cost-model evaluations run
	//	autotune_best_blocktime    series  — best-so-far over shape index
	var shapesEvaluated, shapesPruned *obs.Counter
	var trajectory *obs.Series
	if opts.Metrics != nil {
		shapesEvaluated = opts.Metrics.Counter("autotune_shapes_evaluated")
		shapesPruned = opts.Metrics.Counter("autotune_shapes_pruned")
		trajectory = opts.Metrics.Series("autotune_best_blocktime")
	}
	// Shapes are scored independently by a bounded worker pool, then folded
	// in index order: the argmin (strict <, so the first-indexed minimum
	// wins, exactly like the serial loop) and the best-so-far trajectory
	// are computed serially over the index-ordered scores, which makes the
	// Choice and the metrics snapshot byte-identical for any worker count.
	// Only the winning shape becomes a Choice.
	t := newPassTable(plans)
	scores := t.scoreShapes(shapes, []hw.Chip{chip}, opts.MaxS, opts.Workers)
	publishSearches(opts.Metrics, scores)
	best, bestTime := -1, math.Inf(1)
	for i, r := range scores {
		if opts.Metrics != nil {
			shapesEvaluated.Inc()
			if !r.ok {
				shapesPruned.Inc()
			}
		}
		if r.ok && r.block < bestTime {
			best, bestTime = i, r.block
		}
		if trajectory != nil && best >= 0 {
			trajectory.Append(float64(i), bestTime)
		}
	}
	if best < 0 {
		return Choice{}, fmt.Errorf("autotune: no shape can shard %s with %d tokens on %d chips", cfg.Name, tokens, chips)
	}
	return t.choice(plans, shapes[best], chip, scores[best]), nil
}

// candidateShapes returns the shapes to search: the override, or every 2D
// factorisation of chips when it is nil.
func candidateShapes(shapes []topology.Torus, chips int) ([]topology.Torus, error) {
	if shapes == nil {
		shapes = topology.MeshShapes2D(chips)
	}
	if len(shapes) == 0 {
		return nil, fmt.Errorf("autotune: no candidate mesh shapes for %d chips", chips)
	}
	for _, s := range shapes {
		if s.Rows <= 0 || s.Cols <= 0 {
			return nil, fmt.Errorf("autotune: candidate mesh shape %dx%d has a non-positive dimension", s.Rows, s.Cols)
		}
	}
	return shapes, nil
}

// forEachShape runs fn(i) for every shape index using up to `workers`
// goroutines (0 means GOMAXPROCS). Work is divided by index stride, so the
// division itself is deterministic; fn must write only to its own index.
func forEachShape(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				fn(i)
			}
		}(w)
	}
	wg.Wait()
}

// passTable is the distinct-problem table of a set of layer plans. Plans
// repeat problems — under the Table 1 heuristic FF2 (4h→h, X-stn) induces
// exactly FF1's three — and a problem's best S depends only on (problem,
// shape, chip), so a shape searches each distinct problem once.
type passTable struct {
	probs []gemm.Problem // distinct problems by exact equality, first-use order
	rows  [][3]int       // rows[i][pass]: index in probs of plans[i].Passes[pass]
}

func newPassTable(plans []LayerPlan) passTable {
	t := passTable{probs: make([]gemm.Problem, 0, 3*len(plans)), rows: make([][3]int, len(plans))}
	for i, plan := range plans {
		for pass, p := range plan.Passes {
			j := 0
			for j < len(t.probs) && t.probs[j] != p {
				j++
			}
			if j == len(t.probs) {
				t.probs = append(t.probs, p)
			}
			t.rows[i][pass] = j
		}
	}
	return t
}

// passScore is one distinct problem's search on one shape: the best S (0
// before the search, -1 when the problem does not shard) and its Total.
type passScore struct {
	s     int
	total float64
}

// shapeScore is one candidate's scalar score: the block time (when every
// pass shards, ok), the per-pass assignments made, the cost-model
// evaluations run, and the searches, indexed like passTable.probs.
type shapeScore struct {
	block         float64
	passes, evals int
	ok            bool
	scores        []passScore
}

// scoreShapes scores item i = shapes[i/len(views)] on views[i%len(views)]
// for every i on a bounded worker pool; item i searches into row i of one
// presized slab.
func (t passTable) scoreShapes(shapes []topology.Torus, views []hw.Chip, maxS, workers int) []shapeScore {
	scores, n := make([]shapeScore, len(shapes)*len(views)), len(t.probs)
	slab := make([]passScore, len(scores)*n)
	forEachShape(len(scores), workers, func(i int) {
		scores[i] = t.score(shapes[i/len(views)], views[i%len(views)], maxS, slab[i*n:(i+1)*n])
	})
	return scores
}

// score walks the passes in plan order, searching each problem into out at
// its first use, and stops at the first pass that does not shard. It sums
// the Totals as BlockTime is defined — ((0+fwd)+bwd-data)+bwd-weight per
// layer, layer after layer — so the block time is bit-identical to summing
// the Choice's Estimates.
func (t passTable) score(shape topology.Torus, chip hw.Chip, maxS int, out []passScore) shapeScore {
	r := shapeScore{scores: out}
	for _, row := range t.rows {
		var layer float64
		for _, j := range row {
			r.passes++
			if out[j].s == 0 {
				var n int
				out[j].s, out[j].total, n = searchS(t.probs[j], shape, chip, maxS)
				r.evals += n
			}
			if out[j].s < 0 {
				return r
			}
			layer += out[j].total
		}
		r.block += layer
	}
	r.ok = true
	return r
}

// choice builds the Choice of a scored shape, re-deriving each pass's
// Estimate at its S.
func (t passTable) choice(plans []LayerPlan, shape topology.Torus, chip hw.Chip, r shapeScore) Choice {
	c := Choice{Shape: shape, Layers: make([]LayerChoice, len(plans)), BlockTime: r.block}
	for i, plan := range plans {
		c.Layers[i].Plan = plan
		for pass, p := range plan.Passes {
			c.Layers[i].Passes[pass] = passChoice(p, shape, chip, r.scores[t.rows[i][pass]].s)
		}
	}
	return c
}

func passChoice(p gemm.Problem, shape topology.Torus, chip hw.Chip, s int) PassChoice {
	eval := costmodel.NewMeshSliceEval(p, shape, chip)
	return PassChoice{Problem: p, S: s, Estimate: eval.Estimate(s)}
}

// publishSearches adds the items' pass assignments and cost-model
// evaluations to the search counters.
func publishSearches(reg *obs.Registry, scores []shapeScore) {
	if reg == nil {
		return
	}
	var passes, evals int
	for _, r := range scores {
		passes, evals = passes+r.passes, evals+r.evals
	}
	reg.Counter("autotune_passes_tuned").AddInt(int64(passes))
	reg.Counter("autotune_costmodel_calls").AddInt(int64(evals))
}

// TunePass finds the best slice count for one GeMM problem on one shape.
// ok is false if not even S=1 is valid (the problem does not shard).
func TunePass(p gemm.Problem, shape topology.Torus, chip hw.Chip, maxS int) (PassChoice, bool) {
	return InstrumentedTunePass(p, shape, chip, maxS, nil)
}

// InstrumentedTunePass is TunePass publishing its search telemetry
// (autotune_passes_tuned, autotune_costmodel_calls) into the registry.
func InstrumentedTunePass(p gemm.Problem, shape topology.Torus, chip hw.Chip, maxS int, reg *obs.Registry) (PassChoice, bool) {
	s, _, evals := searchS(p, shape, chip, maxS)
	if reg != nil {
		reg.Counter("autotune_passes_tuned").Inc()
		reg.Counter("autotune_costmodel_calls").AddInt(int64(evals))
	}
	if s < 0 {
		return PassChoice{Problem: p}, false
	}
	return passChoice(p, shape, chip, s), true
}

// searchS returns the slice count minimising the problem's Total on the
// shape (the smallest wins ties), that Total and the evaluations spent; s
// is -1 when the problem does not shard.
func searchS(p gemm.Problem, shape topology.Torus, chip hw.Chip, maxS int) (s int, total float64, evals int) {
	if maxS <= 0 {
		maxS = 64
	}
	g, ok := p.MaxSliceCount(shape, chip.SliceBlock)
	if !ok {
		return -1, 0, 0
	}
	// Trial division bounded by maxS instead of materialising the full
	// divisor list: the search only ever looks at slice counts ≤ maxS, so
	// this visits every valid count up to maxS in ascending order, in
	// O(maxS) with no allocation. The prepared evaluator hoists the cost
	// model's S-independent terms out of the sweep (bit-identical to
	// costmodel.MeshSlice).
	eval := costmodel.NewMeshSliceEval(p, shape, chip)
	s = -1
	for c := 1; c <= g && c <= maxS; c++ {
		if g%c != 0 {
			continue
		}
		evals++
		if tot := eval.Total(c); s < 0 || tot < total {
			s, total = c, tot
		}
	}
	return s, total, evals
}
