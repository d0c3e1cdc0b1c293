package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"meshslice/internal/gemm"
	"meshslice/internal/hw"
	"meshslice/internal/netsim"
	"meshslice/internal/sched"
)

// cmdTimeline renders the paper's Fig. 4 timelines as ASCII charts: one
// three-lane trace (compute / inter-row / inter-col) per algorithm for one
// GeMM on one mesh shape, so the overlap behaviour of each algorithm is
// visible directly.
func cmdTimeline(args []string) {
	fs := flag.NewFlagSet("timeline", flag.ExitOnError)
	m := fs.Int("m", 1<<16, "result rows M")
	n := fs.Int("n", 12288, "result cols N")
	k := fs.Int("k", 12288, "inner dimension K")
	rows := fs.Int("rows", 8, "mesh rows")
	cols := fs.Int("cols", 8, "mesh cols")
	s := fs.Int("s", 8, "MeshSlice slice count / baseline unroll")
	width := fs.Int("width", 100, "chart width in characters")
	chrome := fs.String("chrome", "", "also write whole-cluster Chrome trace-event JSON files to this directory")
	fs.Parse(args)

	tor := torusFromFlags(*rows, *cols)
	requireInts(1, "a positive value", intFlag{"m", *m}, intFlag{"n", *n}, intFlag{"k", *k}, intFlag{"s", *s}, intFlag{"width", *width})
	prob := gemm.Problem{M: *m, N: *n, K: *k, Dataflow: gemm.OS}
	chip := hw.TPUv4()

	progs := []*sched.Program{
		sched.MeshSliceProgram(prob, tor, chip, *s),
		sched.CollectiveProgram(prob, tor, chip),
		sched.WangProgram(prob, tor, chip, *s),
		sched.SUMMAProgram(prob, tor, chip, 0),
	}
	if tor.IsSquare() {
		progs = append(progs, sched.CannonProgram(prob, tor, chip))
	}
	fmt.Printf("GeMM M=%d N=%d K=%d on %v (chip-0 traces)\n\n", *m, *n, *k, tor)
	for _, p := range progs {
		// The ASCII chart shows chip 0; the Chrome export covers the
		// whole cluster, one Perfetto process per chip.
		r := netsim.Simulate(p, chip, netsim.Options{CollectTrace: true, TraceAllChips: *chrome != ""})
		fmt.Printf("--- %s  (makespan %.3fms, exposed comm %.3fms)\n",
			p.Label, r.Makespan*1e3, r.ExposedComm*1e3)
		os.Stdout.WriteString(r.Trace.Timeline(*width))
		fmt.Println()
		if *chrome != "" {
			if err := writeChrome(*chrome, p.Label, r); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
}

// writeChrome stores one algorithm's whole-cluster trace as
// Perfetto-loadable JSON.
func writeChrome(dir, label string, r netsim.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := strings.Map(func(c rune) rune {
		switch c {
		case ' ', '/', '=':
			return '_'
		}
		return c
	}, label)
	f, err := os.Create(filepath.Join(dir, name+".json"))
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Printf("(chrome trace: %s)\n", f.Name())
	return netsim.WriteClusterChromeTrace(f, r.Traces, label)
}
