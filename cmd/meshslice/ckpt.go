package main

import (
	"errors"
	"fmt"
	"os"

	"meshslice/internal/ckpt"
	"meshslice/internal/mesh"
	"meshslice/internal/minitrain"
)

// cmdCkpt demonstrates the elastic checkpoint/restore subsystem end to end:
// it trains the minitrain MLP on a mesh with deterministic sharded
// snapshots every -every steps, optionally fail-stops a chip mid-run
// (-fail-at/-fail-chip), reshards the last complete snapshot onto a new
// mesh shape (-reshard RxC), resumes there, and verifies the final weights
// are bit-identical to an uninterrupted serial reference. -o persists the
// snapshots as ckpt-NNNNNN/{manifest.json,chip-NNNN.bin} under a directory.
func cmdCkpt(args []string) {
	c := newCLI("ckpt")
	tor := c.mesh(2, 2)
	steps := c.atLeast("steps", 10, 1, "training steps")
	every := c.atLeast("every", 2, 0, "snapshot every k steps (0 = no snapshots)")
	seed := c.seed(1, "training run")
	failAt := c.Int("fail-at", -1, "fail-stop a chip during this step (-1: no failure)")
	failChip := c.atLeast("fail-chip", 0, 0, "chip to fail-stop")
	reshard := c.String("reshard", "", "resume mesh shape RxC (default: the original shape)")
	out := c.output("persist snapshots under this directory", "")
	c.parse(args)
	if *failAt < -1 || *failAt >= *steps {
		die(2, fmt.Errorf("bad -fail-at %d: want -1 (no failure) or a step in [0, %d)", *failAt, *steps))
	}

	mlp := minitrain.ElasticConfig{Batch: 16, In: 16, Hidden: 32, Out: 8, LR: 0.05, Momentum: 0.9}
	from := ckpt.Layout{Rows: tor.Rows, Cols: tor.Cols, SliceRows: 1, SliceCols: 1, Block: 2}
	to := from
	if *reshard != "" {
		v, ok := ints(*reshard, "x", 2)
		if !ok {
			die(2, fmt.Errorf("bad -reshard %q: want RxC", *reshard))
		}
		t, err := shape(v[0], v[1])
		if err != nil {
			die(2, fmt.Errorf("-reshard %q: %v", *reshard, err))
		}
		to.Rows, to.Cols = t.Rows, t.Cols
	}
	for _, l := range []ckpt.Layout{from, to} {
		die(2, mlp.Validate(l))
	}

	opts := minitrain.ElasticOpts{Every: *every}
	if *failAt >= 0 {
		opts.Faults = mlp.ElasticFailFaults(from.Torus(), *failChip, 0, *failAt)
		if err := opts.Faults.Validate(from.Chips()); err != nil {
			die(2, fmt.Errorf("bad -fail-chip %d: %v", *failChip, err))
		}
	}

	var store ckpt.Store = ckpt.NewMemStore()
	if out.o != "" {
		fstore, err := ckpt.NewFileStore(out.o)
		die(1, err)
		store = fstore
	}
	save := func(snaps []*ckpt.Snapshot) {
		for _, s := range snaps {
			die(1, ckpt.Save(store, s))
			fmt.Printf("  snapshot epoch %d (step %d): %d records, %d bytes each\n",
				s.Manifest.Epoch, s.Manifest.Step, len(s.Records), len(s.Records[0]))
		}
	}

	fmt.Printf("training %dx%d, %d steps, snapshot every %d, seed %d\n",
		from.Rows, from.Cols, *steps, *every, *seed)
	res, err := minitrain.TrainElastic(mlp, from, *steps, *seed, opts)
	save(res.Snapshots)

	if err != nil {
		var cf *mesh.ChipFailedError
		if !errors.As(err, &cf) {
			die(1, err)
		}
		fmt.Printf("chip failure: %v\n", cf)
		latest, lerr := ckpt.LatestEpoch(store)
		if lerr != nil {
			die(1, fmt.Errorf("no complete snapshot to resume from: %v", lerr))
		}
		snap, lerr := ckpt.Load(store, latest)
		die(1, lerr)
		fmt.Printf("resuming from epoch %d (step %d), resharding %dx%d -> %dx%d\n",
			latest, snap.Manifest.Step, from.Rows, from.Cols, to.Rows, to.Cols)
		resharded, rerr := ckpt.Reshard(snap, to)
		die(1, rerr)
		res, err = minitrain.TrainElastic(mlp, to, *steps, *seed, minitrain.ElasticOpts{Every: *every, Resume: resharded})
		die(1, err)
		save(res.Snapshots)
	}

	ref := minitrain.TrainElasticSerial(mlp, *steps, *seed)
	bitIdentical := res.W1.BitEqual(ref.W1) && res.W2.BitEqual(ref.W2)
	fmt.Printf("final loss: %.6f\n", res.Losses[len(res.Losses)-1])
	fmt.Printf("bit-identical to uninterrupted serial run: %v\n", bitIdentical)
	if !bitIdentical {
		os.Exit(1)
	}
}
