package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"meshslice/internal/gemm"
	"meshslice/internal/hw"
	"meshslice/internal/netsim"
	"meshslice/internal/sched"
	"meshslice/internal/topology"
)

// cmdTimeline renders the paper's Fig. 4 timelines as ASCII charts: one
// three-lane trace (compute / inter-row / inter-col) per algorithm for one
// GeMM on one mesh shape, so the overlap behaviour of each algorithm is
// visible directly.
func cmdTimeline(args []string) {
	c := newCLI("timeline")
	p := c.problem(1<<16, 12288, 12288, false)
	p.slices(c, 8, "")
	tor := c.mesh(8, 8)
	width := c.atLeast("width", 100, 1, "chart width in characters")
	out := c.output("", "also write whole-cluster Chrome trace-event JSON files to this directory")
	c.parse(args)
	chip := hw.TPUv4()

	fmt.Printf("GeMM M=%d N=%d K=%d on %v (chip-0 traces)\n\n", p.M, p.N, p.K, tor.Torus)
	for _, prog := range programs(p.Problem, tor.Torus, chip, p.opts.S) {
		// The ASCII chart shows chip 0; the Chrome export covers the
		// whole cluster, one Perfetto process per chip.
		r := netsim.Simulate(prog, chip, netsim.Options{CollectTrace: true, TraceAllChips: out.chrome != ""})
		fmt.Printf("--- %s  (makespan %.3fms, exposed comm %.3fms)\n",
			prog.Label, r.Makespan*1e3, r.ExposedComm*1e3)
		os.Stdout.WriteString(r.Trace.Timeline(*width))
		fmt.Println()
		if out.chrome != "" {
			writeChrome(out.chrome, prog.Label, r)
		}
	}
}

// writeChrome stores one algorithm's whole-cluster trace as
// Perfetto-loadable JSON.
func writeChrome(dir, label string, r netsim.Result) {
	die(1, os.MkdirAll(dir, 0o755))
	path := filepath.Join(dir, strings.NewReplacer(" ", "_", "/", "_", "=", "_").Replace(label)+".json")
	fmt.Printf("(chrome trace: %s)\n", path)
	writeFile(path, func(w io.Writer) error { return netsim.WriteClusterChromeTrace(w, r.Traces, label) })
}

// programs returns the schedules of the 2D algorithms for p on tor, s
// slices where an algorithm takes them, then extra, then Cannon's where
// tor is square.
func programs(p gemm.Problem, tor topology.Torus, chip hw.Chip, s int, extra ...*sched.Program) []*sched.Program {
	progs := append([]*sched.Program{
		sched.MeshSliceProgram(p, tor, chip, s),
		sched.CollectiveProgram(p, tor, chip),
		sched.WangProgram(p, tor, chip, s),
		sched.SUMMAProgram(p, tor, chip, 0),
	}, extra...)
	if tor.IsSquare() {
		progs = append(progs, sched.CannonProgram(p, tor, chip))
	}
	return progs
}
