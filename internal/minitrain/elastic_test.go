package minitrain

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"

	"meshslice/internal/ckpt"
	"meshslice/internal/mesh"
)

func elasticConfig() ElasticConfig {
	return ElasticConfig{Batch: 16, In: 16, Hidden: 32, Out: 8, LR: 0.05, Momentum: 0.9}
}

func elasticLayout(rows, cols, sr, sc int) ckpt.Layout {
	return ckpt.Layout{Rows: rows, Cols: cols, SliceRows: sr, SliceCols: sc, Block: 2}
}

// assertBitEqual fails unless both runs produced bit-identical weights and
// exactly equal losses.
func assertBitEqual(t *testing.T, label string, got, want ElasticResult) {
	t.Helper()
	if !got.W1.BitEqual(want.W1) {
		t.Fatalf("%s: W1 not bit-identical (max diff %g)", label, got.W1.MaxAbsDiff(want.W1))
	}
	if !got.W2.BitEqual(want.W2) {
		t.Fatalf("%s: W2 not bit-identical (max diff %g)", label, got.W2.MaxAbsDiff(want.W2))
	}
	if len(got.Losses) > len(want.Losses) {
		t.Fatalf("%s: %d losses, want at most %d", label, len(got.Losses), len(want.Losses))
	}
	for i, l := range got.Losses {
		ref := want.Losses[len(want.Losses)-len(got.Losses)+i]
		if l != ref { // lint:float-exact bitwise-reproducibility contract of the elastic trainer
			t.Fatalf("%s: loss[%d] = %v, want %v", label, i, l, ref)
		}
	}
}

// TestElasticBitwiseAcrossShapes pins the elastic trainer's foundational
// property: the distributed run is bitwise equal to the serial reference on
// EVERY mesh shape — not merely within tolerance, as the MeshSlice trainer
// is — because allgather-only movement plus ascending-k local kernels
// reproduce the serial reduction order exactly.
func TestElasticBitwiseAcrossShapes(t *testing.T) {
	c := elasticConfig()
	const steps, seed = 4, 42
	want := TrainElasticSerial(c, steps, seed)
	for _, lay := range []ckpt.Layout{
		elasticLayout(1, 1, 1, 1),
		elasticLayout(1, 2, 1, 2),
		elasticLayout(2, 1, 2, 1),
		elasticLayout(2, 2, 2, 1),
		elasticLayout(2, 4, 1, 1),
		elasticLayout(4, 2, 1, 1),
		elasticLayout(4, 4, 1, 1),
	} {
		got, err := TrainElastic(c, lay, steps, seed, ElasticOpts{})
		if err != nil {
			t.Fatalf("TrainElastic(%+v): %v", lay, err)
		}
		assertBitEqual(t, lay.Torus().String(), got, want)
	}
}

// TestElasticResumeAcrossReshard proves the headline mechanism at the unit
// level: snapshot mid-run on one layout, reshard onto a different mesh
// shape AND slicing, resume there — bit-identical to the uninterrupted run.
func TestElasticResumeAcrossReshard(t *testing.T) {
	c := elasticConfig()
	const steps, seed = 8, 7
	ref, err := TrainElastic(c, elasticLayout(2, 2, 2, 1), steps, seed, ElasticOpts{})
	if err != nil {
		t.Fatal(err)
	}
	first, err := TrainElastic(c, elasticLayout(2, 2, 2, 1), steps, seed, ElasticOpts{Every: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Snapshots) != 4 {
		t.Fatalf("%d snapshots, want 4", len(first.Snapshots))
	}
	mid := first.Snapshots[1] // step 4
	if mid.Manifest.Step != 4 || mid.Manifest.Epoch != 2 {
		t.Fatalf("mid snapshot at (step %d, epoch %d), want (4, 2)", mid.Manifest.Step, mid.Manifest.Epoch)
	}
	for _, to := range []ckpt.Layout{
		elasticLayout(1, 2, 1, 2),
		elasticLayout(4, 1, 1, 1),
		elasticLayout(2, 4, 1, 1),
	} {
		re, err := ckpt.Reshard(mid, to)
		if err != nil {
			t.Fatalf("Reshard onto %+v: %v", to, err)
		}
		got, err := TrainElastic(c, to, steps, 999 /* ignored: seed comes from the snapshot */, ElasticOpts{Resume: re})
		if err != nil {
			t.Fatalf("resume on %+v: %v", to, err)
		}
		if got.StartStep != 4 {
			t.Fatalf("resumed at step %d, want 4", got.StartStep)
		}
		assertBitEqual(t, "resume "+to.Torus().String(), got, ref)
	}
}

// TestElasticResumeContinuesEpochs pins that a resumed run's snapshot
// epochs continue the interrupted run's sequence monotonically.
func TestElasticResumeContinuesEpochs(t *testing.T) {
	c := elasticConfig()
	first, err := TrainElastic(c, elasticLayout(2, 2, 1, 1), 8, 3, ElasticOpts{Every: 2})
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := TrainElastic(c, elasticLayout(2, 2, 1, 1), 8, 3, ElasticOpts{Every: 2, Resume: first.Snapshots[1]})
	if err != nil {
		t.Fatal(err)
	}
	var epochs []int
	for _, s := range resumed.Snapshots {
		epochs = append(epochs, s.Manifest.Epoch)
	}
	if len(epochs) != 2 || epochs[0] != 3 || epochs[1] != 4 {
		t.Fatalf("resumed epochs %v, want [3 4]", epochs)
	}
	// The resumed run's snapshots must be byte-identical to the
	// uninterrupted run's at the same epochs.
	for i, s := range resumed.Snapshots {
		want := first.Snapshots[2+i]
		sm, _ := s.Manifest.Encode()
		wm, _ := want.Manifest.Encode()
		if !bytes.Equal(sm, wm) {
			t.Fatalf("epoch %d manifest differs between resumed and uninterrupted runs", s.Manifest.Epoch)
		}
		for rank := range s.Records {
			if !bytes.Equal(s.Records[rank], want.Records[rank]) {
				t.Fatalf("epoch %d record %d differs between resumed and uninterrupted runs", s.Manifest.Epoch, rank)
			}
		}
	}
}

// TestElasticSnapshotDeterministic pins that snapshot artifacts are
// byte-identical across runs and across GOMAXPROCS 1/2/8 — chip goroutine
// interleaving must never reach the bytes.
func TestElasticSnapshotDeterministic(t *testing.T) {
	c := elasticConfig()
	lay := elasticLayout(2, 2, 2, 1)
	run := func() [][]byte {
		res, err := TrainElastic(c, lay, 4, 5, ElasticOpts{Every: 2})
		if err != nil {
			t.Fatal(err)
		}
		var out [][]byte
		for _, s := range res.Snapshots {
			mb, err := s.Manifest.Encode()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, mb)
			out = append(out, s.Records...)
		}
		return out
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(2)
	want := run()
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		got := run()
		if len(got) != len(want) {
			t.Fatalf("GOMAXPROCS=%d produced %d artifacts, want %d", procs, len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("GOMAXPROCS=%d artifact %d not byte-identical", procs, i)
			}
		}
	}
}

// TestElasticChipFailKeepsCompleteSnapshots pins the failure contract: an
// injected fail-stop surfaces as the typed error, and the partial result
// still carries every snapshot whose epoch completed before the failure.
func TestElasticChipFailKeepsCompleteSnapshots(t *testing.T) {
	c := elasticConfig()
	lay := elasticLayout(2, 2, 1, 1)
	res, err := TrainElastic(c, lay, 8, 7, ElasticOpts{
		Every:  2,
		Faults: c.ElasticFailFaults(lay.Torus(), 3, 0, 5),
	})
	var cf *mesh.ChipFailedError
	if !errors.As(err, &cf) {
		t.Fatalf("err = %v, want *mesh.ChipFailedError", err)
	}
	if cf.Chip != 3 {
		t.Fatalf("failed chip %d, want 3", cf.Chip)
	}
	if len(res.Snapshots) != 2 {
		t.Fatalf("%d complete snapshots after failure, want 2", len(res.Snapshots))
	}
	last := res.Snapshots[len(res.Snapshots)-1]
	if last.Manifest.Step != 4 {
		t.Fatalf("last complete snapshot at step %d, want 4", last.Manifest.Step)
	}
}

// TestElasticResumeRejectsForeignSnapshot is the regression test for
// resuming from a snapshot of another config: a Hidden 64 run resumed from
// a Hidden 32 snapshot used to panic on a chip goroutine inside a gather,
// and a record without w1 would have dereferenced nil. Both must fail
// before the mesh runs, with an error naming the tensor.
func TestElasticResumeRejectsForeignSnapshot(t *testing.T) {
	c := elasticConfig()
	lay := elasticLayout(2, 2, 1, 1)
	first, err := TrainElastic(c, lay, 2, 3, ElasticOpts{Every: 2})
	if err != nil {
		t.Fatal(err)
	}
	snap := first.Snapshots[0]
	wide := c
	wide.Hidden = 64
	_, err = TrainElastic(wide, lay, 4, 3, ElasticOpts{Resume: snap})
	if err == nil || !strings.Contains(err.Error(), `"w1" is 16x32, config needs 16x64`) {
		t.Fatalf("resume of a Hidden %d snapshot with Hidden %d: err = %v", c.Hidden, wide.Hidden, err)
	}

	// The same snapshot with w1 dropped from every record.
	recs, err := snap.Decode()
	if err != nil {
		t.Fatal(err)
	}
	raw := make([][]byte, len(recs))
	for rank, rd := range recs {
		var keep []ckpt.NamedTensor
		for _, nt := range rd.Tensors {
			if nt.Name != TensorW1 {
				keep = append(keep, nt)
			}
		}
		if raw[rank], err = ckpt.EncodeRecord(lay, rank, rd.Step, rd.Seed, keep); err != nil {
			t.Fatal(err)
		}
	}
	noW1, err := ckpt.BuildSnapshot(lay, snap.Manifest.Epoch, ElasticFlow, raw)
	if err != nil {
		t.Fatal(err)
	}
	_, err = TrainElastic(c, lay, 4, 3, ElasticOpts{Resume: noW1})
	if err == nil || !strings.Contains(err.Error(), `lacks tensor "w1"`) {
		t.Fatalf("resume of a snapshot without w1: err = %v", err)
	}
}

func TestElasticValidate(t *testing.T) {
	c := elasticConfig()
	if err := c.Validate(elasticLayout(2, 2, 2, 1)); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if err := c.Validate(elasticLayout(3, 2, 1, 1)); err == nil {
		t.Fatal("mesh rows 3 accepted for batch 16")
	}
	if err := c.Validate(elasticLayout(2, 2, 4, 4)); err == nil {
		t.Fatal("oversized slicing accepted")
	}
	bad := c
	bad.Momentum = 1
	if err := bad.Validate(elasticLayout(2, 2, 1, 1)); err == nil {
		t.Fatal("momentum 1 accepted")
	}
}
