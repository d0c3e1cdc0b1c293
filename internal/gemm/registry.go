package gemm

import (
	"fmt"
	"math/rand"

	"meshslice/internal/mesh"
	"meshslice/internal/tensor"
	"meshslice/internal/topology"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func randomMatrix(r, c int, rng *rand.Rand) *tensor.Matrix {
	return tensor.Random(r, c, rng)
}

// Algorithm is a uniform handle over the distributed 2D GeMM
// implementations, for tools that enumerate them (verification CLIs,
// comparative tests) without hard-coding each constructor.
type Algorithm struct {
	// Name is the paper's name for the algorithm.
	Name string
	// Dataflows lists the dataflows the implementation supports.
	Dataflows []Dataflow
	// Build returns the ChipFunc for a dataflow; opts tunes granularity
	// where the algorithm has any (MeshSlice's S/Block, SUMMA's
	// iteration count).
	Build func(df Dataflow, opts AlgOptions) ChipFunc
	// Validate reports whether the algorithm can run the problem on the
	// torus with the options.
	Validate func(p Problem, t topology.Torus, opts AlgOptions) error
}

// AlgOptions carries the per-algorithm tuning knobs.
type AlgOptions struct {
	// S is MeshSlice's slice count (also SUMMA's iteration count when
	// Iterations is zero).
	S int
	// Block is MeshSlice's slicing block size.
	Block int
	// Iterations overrides SUMMA's panel count.
	Iterations int
	// Pipelined selects prefetch depth 1 (collectives on background comm
	// lanes underneath the MatMuls) of the algorithms whose schedule has
	// one (MeshSlice, Wang); the others ignore it. Results are
	// bit-identical either way.
	Pipelined bool
}

func (o AlgOptions) withDefaults() AlgOptions {
	if o.S <= 0 {
		o.S = 1
	}
	if o.Block <= 0 {
		o.Block = 1
	}
	return o
}

// Algorithms returns the registry in the paper's comparison order.
func Algorithms() []Algorithm {
	all := []Dataflow{OS, LS, RS}
	return []Algorithm{
		{
			Name:      "MeshSlice",
			Dataflows: all,
			Build: func(df Dataflow, o AlgOptions) ChipFunc {
				o = o.withDefaults()
				return MeshSlice(df, MeshSliceConfig{S: o.S, Block: o.Block, Pipelined: o.Pipelined})
			},
			Validate: func(p Problem, t topology.Torus, o AlgOptions) error {
				o = o.withDefaults()
				return MeshSliceConfig{S: o.S, Block: o.Block}.Validate(p, t)
			},
		},
		{
			Name:      "Collective",
			Dataflows: all,
			Build: func(df Dataflow, o AlgOptions) ChipFunc {
				return Collective2D(df)
			},
			Validate: func(p Problem, t topology.Torus, o AlgOptions) error {
				return nil
			},
		},
		{
			Name:      "SUMMA",
			Dataflows: all,
			Build: func(df Dataflow, o AlgOptions) ChipFunc {
				return SUMMA(df, SUMMAConfig{Iterations: o.Iterations})
			},
			Validate: func(p Problem, t topology.Torus, o AlgOptions) error {
				return SUMMAConfig{Iterations: o.Iterations}.Validate(p, t)
			},
		},
		{
			Name:      "Cannon",
			Dataflows: []Dataflow{OS},
			Build: func(df Dataflow, o AlgOptions) ChipFunc {
				return Cannon()
			},
			Validate: func(p Problem, t topology.Torus, o AlgOptions) error {
				return CannonValidate(p, t)
			},
		},
		{
			Name:      "Wang",
			Dataflows: all,
			Build: func(df Dataflow, o AlgOptions) ChipFunc {
				if o.Pipelined {
					return WangPipelined(df)
				}
				return WangDataflow(df)
			},
			Validate: func(p Problem, t topology.Torus, o AlgOptions) error {
				return WangValidate(p, t)
			},
		},
	}
}

// AlgorithmByName resolves a registry entry case-insensitively.
func AlgorithmByName(name string) (Algorithm, bool) {
	for _, a := range Algorithms() {
		if equalFold(a.Name, name) {
			return a, true
		}
	}
	return Algorithm{}, false
}

// Supports reports whether the algorithm implements the dataflow.
func (a Algorithm) Supports(df Dataflow) bool {
	for _, d := range a.Dataflows {
		if d == df {
			return true
		}
	}
	return false
}

func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// VerifyResult is one algorithm's verification outcome.
type VerifyResult struct {
	Algorithm string
	Dataflow  Dataflow
	// Skipped explains why the algorithm did not run (unsupported
	// dataflow or invalid configuration); empty when it ran.
	Skipped string
	// MaxDiff is the largest deviation from the reference.
	MaxDiff float64
	// OK reports MaxDiff within tolerance.
	OK bool
}

// VerifyAlgorithmsOn runs every registry algorithm that supports the
// problem's dataflow on the mesh with real random data and checks the
// assembled result against the reference multiplication. Every algorithm
// runs over the same fabric, so instrumentation attached to it — a flight
// recorder, a metrics registry — observes the whole sweep.
func VerifyAlgorithmsOn(m *mesh.Mesh, p Problem, opts AlgOptions, seed int64, tol float64) []VerifyResult {
	t := m.Torus
	checkShardable(p, t)
	rng := newRand(seed)
	aR, aC, bR, bC := p.OperandShapes()
	a := randomMatrix(aR, aC, rng)
	b := randomMatrix(bR, bC, rng)
	want := p.Reference(a, b)

	var out []VerifyResult
	for _, alg := range Algorithms() {
		r := VerifyResult{Algorithm: alg.Name, Dataflow: p.Dataflow}
		if !alg.Supports(p.Dataflow) {
			r.Skipped = fmt.Sprintf("no %v dataflow", p.Dataflow)
			out = append(out, r)
			continue
		}
		if err := alg.Validate(p, t, opts); err != nil {
			r.Skipped = err.Error()
			out = append(out, r)
			continue
		}
		got := MultiplyOn(m, alg.Build(p.Dataflow, opts), a, b)
		r.MaxDiff = got.MaxAbsDiff(want)
		r.OK = r.MaxDiff <= tol
		out = append(out, r)
	}
	return out
}
