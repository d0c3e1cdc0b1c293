package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"meshslice/internal/ckpt"
	"meshslice/internal/mesh"
	"meshslice/internal/minitrain"
)

// scratchBase is where the benchmark keeps what it writes: inside the
// directory it is run from, never the system temp dir.
const scratchBase = ".bench_build"

const ckptOps = 7

// ckptElastic is the fail → reshard → resume loop of `meshslice ckpt`:
// train on 2×4 until chip 5 dies in step 5, persist the complete snapshots,
// load the latest, reshard it to 2×2, resume to the end, persist again, and
// compare the final weights with the uninterrupted serial run.
type ckptElastic struct {
	cfg      minitrain.ElasticConfig
	from, to ckpt.Layout
	seed     int64
	serial   minitrain.ElasticResult

	dir    string // this instance's scratch root
	rounds int
	ok     [ckptOps]bool
	final  minitrain.ElasticResult
	failed *ckpt.Snapshot // latest snapshot of the interrupted run, for the probes
}

const (
	ckptSteps    = 8
	ckptEvery    = 2
	ckptFailStep = 5
	ckptFailChip = 5
)

func setupCkptElastic(seed int64) (instance, error) {
	w := &ckptElastic{
		cfg:  minitrain.ElasticConfig{Batch: 64, In: 256, Hidden: 512, Out: 128, LR: 0.05, Momentum: 0.9},
		from: ckpt.Layout{Rows: 2, Cols: 4, SliceRows: 1, SliceCols: 1, Block: 2},
		to:   ckpt.Layout{Rows: 2, Cols: 2, SliceRows: 1, SliceCols: 1, Block: 2},
		seed: seed,
	}
	for _, lay := range []ckpt.Layout{w.from, w.to} {
		if err := w.cfg.Validate(lay); err != nil {
			return nil, err
		}
	}
	if err := os.MkdirAll(scratchBase, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratchBase, "ckpt-")
	if err != nil {
		return nil, err
	}
	w.dir = dir
	w.serial = minitrain.TrainElasticSerial(w.cfg, ckptSteps, seed)
	w.round()
	if _, failed := w.check(); failed > 0 {
		w.close()
		return nil, errorf("ckpt_elastic: %d of %d ops failed in set-up (ok=%v)", failed, ckptOps, w.ok)
	}
	return w, nil
}

func (w *ckptElastic) round() { w.run(nil) }

func (w *ckptElastic) traced(tr *tracer) error { w.run(tr); return nil }

// run executes the seven ops in order; an op that fails leaves the ones
// that depend on it marked failed too.
func (w *ckptElastic) run(tr *tracer) {
	w.ok = [ckptOps]bool{}
	w.rounds++
	store, err := ckpt.NewFileStore(filepath.Join(w.dir, fmt.Sprintf("round-%06d", w.rounds)))
	if err != nil {
		return
	}
	save := func(snaps []*ckpt.Snapshot) bool {
		for _, s := range snaps {
			if ckpt.Save(store, s) != nil {
				return false
			}
		}
		return len(snaps) > 0
	}

	var res minitrain.ElasticResult
	tr.nextOp()
	tr.do("minitrain", "minitrain.TrainElastic", func() {
		res, err = minitrain.TrainElastic(w.cfg, w.from, ckptSteps, w.seed, minitrain.ElasticOpts{
			Every:  ckptEvery,
			Faults: w.cfg.ElasticFailFaults(w.from.Torus(), ckptFailChip, 0, ckptFailStep),
		})
	})
	var chipFailed *mesh.ChipFailedError
	if w.ok[0] = errors.As(err, &chipFailed); !w.ok[0] {
		return
	}
	tr.nextOp()
	tr.do("ckpt", "ckpt.Save", func() { w.ok[1] = save(res.Snapshots) })
	if !w.ok[1] {
		return
	}
	var snap, resharded *ckpt.Snapshot
	tr.nextOp()
	tr.do("ckpt", "ckpt.Load", func() {
		var latest int
		if latest, err = ckpt.LatestEpoch(store); err == nil {
			snap, err = ckpt.Load(store, latest)
		}
	})
	if w.ok[2] = err == nil; !w.ok[2] {
		return
	}
	w.failed = snap
	tr.nextOp()
	tr.do("ckpt", "ckpt.Reshard", func() { resharded, err = ckpt.Reshard(snap, w.to) })
	if w.ok[3] = err == nil; !w.ok[3] {
		return
	}
	tr.nextOp()
	tr.do("minitrain", "minitrain.TrainElastic", func() {
		res, err = minitrain.TrainElastic(w.cfg, w.to, ckptSteps, w.seed, minitrain.ElasticOpts{Every: ckptEvery, Resume: resharded})
	})
	if w.ok[4] = err == nil; !w.ok[4] {
		return
	}
	w.final = res
	tr.nextOp()
	tr.do("ckpt", "ckpt.Save", func() { w.ok[5] = save(res.Snapshots) })
	tr.nextOp()
	tr.do("tensor", "tensor.BitEqual", func() {
		w.ok[6] = res.W1.BitEqual(w.serial.W1) && res.W2.BitEqual(w.serial.W2)
	})
}

func (w *ckptElastic) check() (int, int) {
	os.RemoveAll(filepath.Join(w.dir, fmt.Sprintf("round-%06d", w.rounds)))
	failed := 0
	for _, ok := range w.ok {
		if !ok {
			failed++
		}
	}
	return ckptOps, failed
}

func (w *ckptElastic) probes(tr *tracer, out metricSet) error {
	snap := w.failed
	recs, err := snap.Decode()
	if err != nil {
		return err
	}
	man := snap.Manifest
	encode := func() {
		records := make([][]byte, len(recs))
		for rank, rd := range recs {
			if records[rank], err = ckpt.EncodeRecord(w.from, rank, man.Step, man.Seed, rd.Tensors); err != nil {
				return
			}
		}
		_, err = ckpt.BuildSnapshot(w.from, man.Epoch, man.Flow, records)
	}
	encodeMs := timeIt(5, encode)
	_, encodeBytes := mallocsDuring(encode)
	if err != nil {
		return err
	}
	var snapBytes float64
	for _, rec := range snap.Records {
		snapBytes += float64(len(rec))
	}
	_, reshardBytes := mallocsDuring(func() { _, err = ckpt.Reshard(snap, w.to) })
	if err != nil {
		return err
	}
	train := func(every int) func() {
		return func() {
			_, err = minitrain.TrainElastic(w.cfg, w.from, ckptSteps, w.seed, minitrain.ElasticOpts{Every: every})
		}
	}
	nosnapMs := timeIt(3, train(0))
	snapMs := timeIt(3, train(ckptEvery))
	if err != nil {
		return err
	}
	out["ckpt.encode_ms"] = encodeMs
	out["ckpt.encode_alloc_mb"] = encodeBytes / 1e6
	out["ckpt.encode_mb_per_s"] = snapBytes / 1e6 / (encodeMs / 1e3)
	out["ckpt.snapshot_mb"] = snapBytes / 1e6
	out["ckpt.verify_ms"] = timeIt(5, func() { err = snap.Verify() })
	out["ckpt.decode_ms"] = timeIt(5, func() { _, err = snap.Decode() })
	out["ckpt.reshard_ms"] = tr.ms("ckpt.Reshard")
	out["ckpt.reshard_alloc_mb"] = reshardBytes / 1e6
	out["ckpt.save_ms"] = tr.ms("ckpt.Save")
	out["ckpt.load_ms"] = tr.ms("ckpt.Load")
	out["minitrain.train_ms"] = tr.ms("minitrain.TrainElastic")
	out["minitrain.nosnap_ms"] = nosnapMs
	out["minitrain.snapshot_stall_ms"] = snapMs - nosnapMs
	out["minitrain.serial_ms"] = timeIt(3, func() { minitrain.TrainElasticSerial(w.cfg, ckptSteps, w.seed) })
	out["minitrain.final_loss"] = w.final.Losses[len(w.final.Losses)-1]
	return err
}

func (w *ckptElastic) close() { os.RemoveAll(w.dir) }
