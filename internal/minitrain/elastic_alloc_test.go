package minitrain

import (
	"testing"

	"meshslice/internal/ckpt"
)

// maxAllocsPerElasticStep bounds what one extra TrainElastic step may
// allocate across the whole mesh: every chip trains on a workspace carved
// from the shared slab, so a step allocates no tensor but the one shared
// batch, and
// the rest is the mesh's own message bookkeeping: 37 objects per step on
// this 2×4 mesh, against 536 when every chip allocated its gathers,
// products and batch copy afresh each step.
const maxAllocsPerElasticStep = 64

// TestElasticStepAllocationGate holds the elastic step to its workspace: a
// 2×4 run at the ckpt_elastic benchmark's dimensions may allocate at most
// maxAllocsPerElasticStep objects per extra training step. The difference
// of two run lengths cancels the per-run cost (mesh, workspace headers,
// initial weights, final assembly); TestElasticRunReusesWorkspace bounds
// that per-run cost's bytes.
func TestElasticStepAllocationGate(t *testing.T) {
	c := ElasticConfig{Batch: 64, In: 256, Hidden: 512, Out: 128, LR: 0.05, Momentum: 0.9}
	lay := ckpt.Layout{Rows: 2, Cols: 4, SliceRows: 1, SliceCols: 1, Block: 2}
	run := func(steps int) func() {
		return func() {
			if _, err := TrainElastic(c, lay, steps, 3, ElasticOpts{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(1)() // warm the runtime: goroutine stacks, size classes
	const short, long = 2, 6
	base := testing.AllocsPerRun(3, run(short))
	more := testing.AllocsPerRun(3, run(long))
	perStep := (more - base) / (long - short)
	t.Logf("TrainElastic 2x4: %.0f allocs for %d steps, %.0f for %d: %.1f per extra step", base, short, more, long, perStep)
	if perStep > maxAllocsPerElasticStep {
		t.Errorf("an elastic step allocates %.1f objects, want ≤ %d", perStep, maxAllocsPerElasticStep)
	}
}
