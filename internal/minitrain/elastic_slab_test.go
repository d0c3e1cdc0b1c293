package minitrain

import (
	"errors"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"meshslice/internal/ckpt"
	"meshslice/internal/fault"
	"meshslice/internal/mesh"
)

// fillHeldSlab overwrites the workspace slab the package holds with NaN and
// returns its first element's address, so a test can tell whether the next
// run carved its workspaces from it.
func fillHeldSlab(t *testing.T) *float64 {
	t.Helper()
	buf := workspaceSlab.Take(0)
	defer workspaceSlab.Give(buf)
	buf = buf[:cap(buf)]
	if len(buf) == 0 {
		t.Fatal("no workspace slab held after a run")
	}
	for i := range buf {
		buf[i] = math.NaN()
	}
	return &buf[0]
}

// heldSlab returns the held slab's first element's address (nil if none).
func heldSlab() *float64 {
	buf := workspaceSlab.Take(0)
	defer workspaceSlab.Give(buf)
	if cap(buf) == 0 {
		return nil
	}
	return &buf[:1][0]
}

// TestReusedSlabCannotChangeTheBits pins that the workspace slab's past
// cannot reach the bits: a run that died mid-step leaves a half-finished
// step in the slab, the slab is then poisoned with NaN, and the 2×2 resume
// and a fresh 2×4 run that carve their workspaces from it must still equal
// the serial run bit for bit. Every workspace buffer is overwritten before
// it is read; a skipped Zero or a short copy would let a NaN through.
func TestReusedSlabCannotChangeTheBits(t *testing.T) {
	c := elasticConfig()
	const steps, seed = 8, 7
	want := TrainElasticSerial(c, steps, seed)
	from, to := elasticLayout(2, 4, 1, 1), elasticLayout(2, 2, 1, 1)

	failed, err := TrainElastic(c, from, steps, seed, ElasticOpts{
		Every:  2,
		Faults: c.ElasticFailFaults(from.Torus(), 5, 0, 5),
	})
	var cf *mesh.ChipFailedError
	if !errors.As(err, &cf) {
		t.Fatalf("err = %v, want *mesh.ChipFailedError", err)
	}
	last := failed.Snapshots[len(failed.Snapshots)-1]
	re, err := ckpt.Reshard(last, to)
	if err != nil {
		t.Fatal(err)
	}

	poisoned := fillHeldSlab(t)
	resumed, err := TrainElastic(c, to, steps, seed, ElasticOpts{Resume: re})
	if err != nil {
		t.Fatal(err)
	}
	if heldSlab() != poisoned {
		t.Fatal("the 2x2 resume did not carve its workspaces from the held 2x4 slab")
	}
	assertBitEqual(t, "2x2 resume on a NaN slab", resumed, want)

	fillHeldSlab(t)
	fresh, err := TrainElastic(c, from, steps, seed, ElasticOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if heldSlab() != poisoned {
		t.Fatal("the fresh 2x4 run did not carve its workspaces from the held slab")
	}
	assertBitEqual(t, "fresh 2x4 on a NaN slab", fresh, want)

	// Two concurrent runs: one takes the slab, the other finds it taken
	// and allocates its own. Both are bit-identical to the serial run.
	fillHeldSlab(t)
	var wg sync.WaitGroup
	results := make([]ElasticResult, 2)
	errs := make([]error, 2)
	for i, lay := range []ckpt.Layout{from, to} {
		wg.Add(1)
		go func(i int, lay ckpt.Layout) {
			defer wg.Done()
			results[i], errs[i] = TrainElastic(c, lay, steps, seed, ElasticOpts{})
		}(i, lay)
	}
	wg.Wait()
	for i, lay := range []ckpt.Layout{from, to} {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		assertBitEqual(t, "concurrent "+lay.Torus().String(), results[i], want)
	}
}

// TestElasticRunReusesWorkspace holds a warm run to the shared slab: a
// 2×4 TrainElastic at the ckpt_elastic benchmark's dimensions must
// allocate fewer bytes than one set of its chips' workspaces, which it
// carves from the slab the previous run gave back instead of allocating.
func TestElasticRunReusesWorkspace(t *testing.T) {
	c := ElasticConfig{Batch: 64, In: 256, Hidden: 512, Out: 128, LR: 0.05, Momentum: 0.9}
	lay := ckpt.Layout{Rows: 2, Cols: 4, SliceRows: 1, SliceCols: 1, Block: 2}
	run := func() {
		if _, err := TrainElastic(c, lay, 8, 7, ElasticOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm: the slab grows to this run's need
	set := uint64(lay.Chips()*workspaceFloats(c, lay.Rows, lay.Cols)) * 8
	best := uint64(math.MaxUint64)
	var ms runtime.MemStats
	for range 3 {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		run()
		runtime.ReadMemStats(&ms)
		best = min(best, ms.TotalAlloc-before)
	}
	t.Logf("warm TrainElastic 2x4: %.2f MB allocated; one workspace set is %.2f MB", float64(best)/1e6, float64(set)/1e6)
	if best >= set {
		t.Errorf("a warm run allocates %d bytes, want fewer than one workspace set (%d)", best, set)
	}
}

// TestTrainElasticRejectsFaultsOutsideTheMesh: a fault plan that targets
// no chip of the layout's mesh is an error before the mesh runs, not a run
// with nothing injected.
func TestTrainElasticRejectsFaultsOutsideTheMesh(t *testing.T) {
	c := elasticConfig()
	lay := elasticLayout(2, 2, 1, 1)
	for _, f := range []fault.MeshFaults{
		c.ElasticFailFaults(lay.Torus(), 4, 0, 1),
		{Drops: []fault.EdgeDrop{{From: 0, To: 9, Nth: 0}}},
	} {
		_, err := TrainElastic(c, lay, 4, 3, ElasticOpts{Faults: f})
		if err == nil || !strings.Contains(err.Error(), "4-chip mesh") {
			t.Errorf("faults %+v: err = %v, want a 4-chip mesh error", f, err)
		}
	}
}
