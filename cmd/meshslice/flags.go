package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"strconv"
	"strings"

	"meshslice/internal/gemm"
	"meshslice/internal/model"
	"meshslice/internal/topology"
	"meshslice/internal/train"
)

// cli is one subcommand's flag set and the checks its flags run after
// Parse, before the subcommand prints anything: a bad value exits 2 with a
// one-line error. The flag groups below (mesh, problem, model, seed,
// output) are declared once here and composed by the subcommands.
type cli struct {
	*flag.FlagSet
	checks []func() error
}

func newCLI(name string) *cli { return &cli{FlagSet: flag.NewFlagSet(name, flag.ExitOnError)} }

// check adds a check that parse runs after the ones added before it.
func (c *cli) check(f func() error) { c.checks = append(c.checks, f) }

// parse parses args and runs every check in order.
func (c *cli) parse(args []string) {
	c.Parse(args)
	for _, f := range c.checks {
		die(2, f())
	}
}

// die exits with code, 2 for a bad flag and 1 for a run that failed, and
// err's message on one line. It returns when err is nil, so a call can
// follow whatever may fail: die(1, err).
func die(code int, err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(code)
	}
}

// writeFile creates path, writes it with write and closes it, and exits 1
// with a one-line error if any of the three fails.
func writeFile(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err == nil {
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	die(1, err)
}

// intVar declares an int flag whose value must be min or more: the library
// would otherwise panic on a smaller one, misread it, or quietly default it.
func (c *cli) intVar(p *int, name string, def, min int, usage string) {
	c.IntVar(p, name, def, usage)
	c.check(func() error {
		if *p < min {
			return fmt.Errorf("bad -%s %d: want %d or more", name, *p, min)
		}
		return nil
	})
}

// atLeast is intVar for a flag the subcommand reads through the pointer.
func (c *cli) atLeast(name string, def, min int, usage string) *int {
	p := new(int)
	c.intVar(p, name, def, min, usage)
	return p
}

// float declares a float flag whose value must be finite and pass ok; want
// says what the flag takes.
func (c *cli) float(name string, def float64, want string, ok func(float64) bool, usage string) *float64 {
	p := c.Float64(name, def, usage)
	c.check(func() error {
		if math.IsInf(*p, 0) || !ok(*p) {
			return fmt.Errorf("bad -%s %g: want %s", name, *p, want)
		}
		return nil
	})
	return p
}

// positive declares a float flag that must be finite and above 0: the
// library would quietly default a value <= 0, so the run would not be the
// one the header prints.
func (c *cli) positive(name string, def float64, usage string) *float64 {
	return c.float(name, def, "a positive finite number", func(v float64) bool { return v > 0 }, usage)
}

// factor declares a float flag that must be a finite factor of min or more.
func (c *cli) factor(name string, def, min float64, usage string) *float64 {
	return c.float(name, def, fmt.Sprintf("a finite factor >= %g", min), func(v float64) bool { return v >= min }, usage)
}

// meshFlags is the mesh group: -rows and -cols (mesh), -chips (cluster),
// or all three (fixableMesh).
type meshFlags struct {
	rows, cols, chips int
	topology.Torus    // the -rows × -cols mesh, once checked
}

// shape checks a mesh shape, as the mesh group and ckpt -reshard take one.
func shape(rows, cols int) (topology.Torus, error) {
	if rows < 1 || cols < 1 {
		return topology.Torus{}, fmt.Errorf("bad mesh %dx%d: want sides of 1 or more", rows, cols)
	}
	return topology.NewTorus(rows, cols), nil
}

// mesh declares -rows and -cols, both at least 1.
func (c *cli) mesh(rows, cols int) *meshFlags {
	m := &meshFlags{}
	c.IntVar(&m.rows, "rows", rows, "mesh rows")
	c.IntVar(&m.cols, "cols", cols, "mesh cols")
	c.check(func() (err error) {
		m.Torus, err = shape(m.rows, m.cols)
		return err
	})
	return m
}

// cluster declares -chips.
func (c *cli) cluster(chips int, usage string) *meshFlags {
	m := &meshFlags{}
	c.intVar(&m.chips, "chips", chips, 1, usage)
	return m
}

// fixableMesh declares -chips and -rows/-cols that default to 0, which
// leaves the shape to the subcommand; unset says what it does then. A lone
// side, or a mesh of other than -chips chips, is rejected.
func (c *cli) fixableMesh(chips int, unset string) *meshFlags {
	m := c.cluster(chips, "cluster size: the shape search space, or -rows × -cols when both are set")
	c.intVar(&m.rows, "rows", 0, 0, "fix the mesh rows (0 = "+unset+")")
	c.intVar(&m.cols, "cols", 0, 0, "fix the mesh cols (0 = "+unset+")")
	c.check(func() error {
		switch {
		case (m.rows > 0) != (m.cols > 0):
			return fmt.Errorf("bad -rows %d -cols %d: set both to fix the mesh, or neither to %s", m.rows, m.cols, unset)
		case m.rows > 0 && (m.chips%m.rows != 0 || m.chips/m.rows != m.cols):
			return fmt.Errorf("bad -rows %d -cols %d: want a mesh of -chips %d chips", m.rows, m.cols, m.chips)
		case m.rows > 0:
			m.Torus = topology.NewTorus(m.rows, m.cols)
		}
		return nil
	})
	return m
}

// maxElements bounds every matrix a functional run allocates, and the
// flight recorder's events (-cap × chips). The run holds both operands,
// their shards, the result and the reference at once; 2^26 float64
// elements is 512 MiB a matrix, and past int's range the allocation would
// panic instead of failing.
const maxElements = 1 << 26

// problemFlags is the problem group: one GeMM's -m, -n, -k and, where the
// subcommand takes them, -dataflow, -s and -block.
type problemFlags struct {
	gemm.Problem
	opts gemm.AlgOptions
}

// problem declares -m, -n and -k, and -dataflow where dataflow holds (the
// problem is OS otherwise).
func (c *cli) problem(m, n, k int, dataflow bool) *problemFlags {
	p := &problemFlags{}
	c.intVar(&p.M, "m", m, 1, "result rows M")
	c.intVar(&p.N, "n", n, 1, "result cols N")
	c.intVar(&p.K, "k", k, 1, "inner dimension K")
	if dataflow {
		name := c.String("dataflow", "os", "dataflow: os, ls, or rs")
		c.check(func() error {
			for _, df := range []gemm.Dataflow{gemm.OS, gemm.LS, gemm.RS} {
				if strings.EqualFold(df.String(), *name) {
					p.Dataflow = df
					return nil
				}
			}
			return fmt.Errorf("unknown dataflow %q (want os, ls, or rs)", *name)
		})
	}
	return p
}

// slices declares -s; zero says what 0 means where the subcommand takes it.
func (p *problemFlags) slices(c *cli, s int, zero string) {
	usage, min := "MeshSlice slice count (and the baselines' unroll)", 1
	if zero != "" {
		usage, min = usage+" (0 = "+zero+")", 0
	}
	c.intVar(&p.opts.S, "s", s, min, usage)
}

// functional declares the groups of a run that multiplies real matrices
// (verify, record): a small default problem with -dataflow, -s, -block and
// the element bound, a 4x4 mesh, and the inputs' seed.
func (c *cli) functional() (*problemFlags, *meshFlags, *int64) {
	p := c.problem(64, 64, 64, true)
	p.slices(c, 2, "")
	c.intVar(&p.opts.Block, "block", 2, 1, "MeshSlice block size")
	c.check(p.fits)
	return p, c.mesh(4, 4), c.seed(1, "input matrices")
}

// fits rejects a problem with an operand or result of over maxElements
// elements.
func (p *problemFlags) fits() error {
	for _, d := range [][2]int{{p.M, p.K}, {p.K, p.N}, {p.M, p.N}} {
		if d[0] > maxElements/d[1] {
			return fmt.Errorf("bad -m %d -n %d -k %d: a %dx%d matrix is over the %d elements a functional run allocates", p.M, p.N, p.K, d[0], d[1], maxElements)
		}
	}
	return nil
}

// algos declares the simulator's -algo: one algorithm by name, or "all" for
// every one in all.
func (c *cli) algos(def string, all []train.Algo) *[]train.Algo {
	name := c.String("algo", def, "algorithm (or 'all')")
	algos := new([]train.Algo)
	c.check(func() error {
		if *name == "all" {
			*algos = all
			return nil
		}
		for _, a := range train.Algos {
			if strings.EqualFold(a.String(), *name) {
				*algos = []train.Algo{a}
				return nil
			}
		}
		return fmt.Errorf("unknown algorithm %q", *name)
	})
	return algos
}

// functionalAlgo looks up the functional implementation of an algorithm
// that runs dataflow df.
func functionalAlgo(name string, df gemm.Dataflow) (gemm.Algorithm, error) {
	alg, ok := gemm.AlgorithmByName(name)
	switch {
	case !ok:
		return alg, fmt.Errorf("no functional implementation of algorithm %q", name)
	case !alg.Supports(df):
		return alg, fmt.Errorf("%s does not implement the %v dataflow", alg.Name, df)
	}
	return alg, nil
}

// modelFlags is the model group: -model and, where the subcommand takes
// it, -tokens.
type modelFlags struct {
	model.Config
	tokens int
}

// model declares -model, and -tokens where tokens holds.
func (c *cli) model(def string, tokens bool) *modelFlags {
	mf := &modelFlags{}
	name := c.String("model", def, "LLM: gpt3, megatron, llama3-70b, or a JSON config path")
	if tokens {
		c.intVar(&mf.tokens, "tokens", 0, 0, "tokens per step (default: weak-scaling batch = chips/2)")
	}
	c.check(func() (err error) {
		mf.Config, err = modelByName(*name)
		return err
	})
	return mf
}

// tokensFor returns -tokens, or the weak-scaling batch on chips where it
// is 0 or not declared.
func (mf *modelFlags) tokensFor(chips int) int {
	if mf.tokens == 0 {
		return mf.WeakScalingTokens(chips)
	}
	return mf.tokens
}

// modelByName resolves a built-in model alias or, failing that, loads the
// argument as a JSON model-config path. A file that exists but does not
// decode or validate is reported with its error, not as an unknown model.
func modelByName(name string) (model.Config, error) {
	if c, ok := model.ByName(name); ok {
		return c, nil
	}
	c, err := model.LoadFile(name)
	switch {
	case err == nil:
		return c, nil
	case !errors.Is(err, fs.ErrNotExist):
		return c, fmt.Errorf("model %q: %v", name, err)
	}
	known := []string{}
	for _, c := range model.Builtins() {
		known = append(known, c.Name)
	}
	return c, fmt.Errorf("unknown model %q (built-ins: %s; or pass a JSON config path)", name, strings.Join(known, ", "))
}

// seed declares -seed; what says what it seeds. Any int64 is a seed.
func (c *cli) seed(def int64, what string) *int64 {
	return c.Int64("seed", def, "seed of the "+what)
}

// outputFlags is the output group: -o and -chrome, each declared where the
// subcommand gives its usage. An empty path writes nothing.
type outputFlags struct{ o, chrome string }

func (c *cli) output(o, chrome string) *outputFlags {
	out := &outputFlags{}
	if o != "" {
		c.StringVar(&out.o, "o", "", o)
	}
	if chrome != "" {
		c.StringVar(&out.chrome, "chrome", "", chrome)
	}
	return out
}

// ints splits s at sep into exactly n decimal ints, accepting nothing else.
func ints(s, sep string, n int) ([]int, bool) {
	parts := strings.Split(s, sep)
	if len(parts) != n {
		return nil, false
	}
	vals := make([]int, n)
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, false
		}
		vals[i] = v
	}
	return vals, true
}
