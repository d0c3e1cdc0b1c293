package main

import (
	"errors"
	"flag"
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
	fs := flag.NewFlagSet("ckpt", flag.ExitOnError)
	rows := fs.Int("rows", 2, "mesh rows")
	cols := fs.Int("cols", 2, "mesh cols")
	steps := fs.Int("steps", 10, "training steps")
	every := fs.Int("every", 2, "snapshot every k steps")
	seed := fs.Int64("seed", 1, "training seed")
	failAt := fs.Int("fail-at", -1, "fail-stop a chip during this step (-1: no failure)")
	failChip := fs.Int("fail-chip", 0, "chip to fail-stop")
	reshard := fs.String("reshard", "", "resume mesh shape RxC (default: the original shape)")
	out := fs.String("o", "", "persist snapshots under this directory")
	fs.Parse(args)
	requireInts(1, "at least 1", intFlag{"steps", *steps})
	requireInts(0, "0 (no snapshots) or more", intFlag{"every", *every})
	requireInts(0, "a chip rank", intFlag{"fail-chip", *failChip})
	if *failAt < -1 || *failAt >= *steps {
		fmt.Fprintf(os.Stderr, "bad -fail-at %d: want -1 (no failure) or a step in [0, %d)\n", *failAt, *steps)
		os.Exit(2)
	}

	c := minitrain.ElasticConfig{Batch: 16, In: 16, Hidden: 32, Out: 8, LR: 0.05, Momentum: 0.9}
	from := ckpt.Layout{Rows: *rows, Cols: *cols, SliceRows: 1, SliceCols: 1, Block: 2}
	if err := c.Validate(from); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	to := from
	if *reshard != "" {
		var tr, tc int
		if n, err := fmt.Sscanf(*reshard, "%dx%d", &tr, &tc); n != 2 || err != nil {
			fmt.Fprintf(os.Stderr, "bad -reshard %q: want RxC\n", *reshard)
			os.Exit(2)
		}
		to = ckpt.Layout{Rows: tr, Cols: tc, SliceRows: 1, SliceCols: 1, Block: from.Block}
		if err := c.Validate(to); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	opts := minitrain.ElasticOpts{Every: *every}
	if *failAt >= 0 {
		opts.Faults = c.ElasticFailFaults(from.Torus(), *failChip, 0, *failAt)
		if err := opts.Faults.Validate(from.Chips()); err != nil {
			fmt.Fprintf(os.Stderr, "bad -fail-chip %d: %v\n", *failChip, err)
			os.Exit(2)
		}
	}

	var store ckpt.Store = ckpt.NewMemStore()
	if *out != "" {
		fstore, err := ckpt.NewFileStore(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		store = fstore
	}

	fmt.Printf("training %dx%d, %d steps, snapshot every %d, seed %d\n",
		from.Rows, from.Cols, *steps, *every, *seed)
	res, err := minitrain.TrainElastic(c, from, *steps, *seed, opts)
	for _, s := range res.Snapshots {
		if serr := ckpt.Save(store, s); serr != nil {
			fmt.Fprintln(os.Stderr, serr)
			os.Exit(1)
		}
		fmt.Printf("  snapshot epoch %d (step %d): %d records, %d bytes each\n",
			s.Manifest.Epoch, s.Manifest.Step, len(s.Records), len(s.Records[0]))
	}

	if err != nil {
		var cf *mesh.ChipFailedError
		if !errors.As(err, &cf) {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("chip failure: %v\n", cf)
		latest, lerr := ckpt.LatestEpoch(store)
		if lerr != nil {
			fmt.Fprintf(os.Stderr, "no complete snapshot to resume from: %v\n", lerr)
			os.Exit(1)
		}
		snap, lerr := ckpt.Load(store, latest)
		if lerr != nil {
			fmt.Fprintln(os.Stderr, lerr)
			os.Exit(1)
		}
		fmt.Printf("resuming from epoch %d (step %d), resharding %dx%d -> %dx%d\n",
			latest, snap.Manifest.Step, from.Rows, from.Cols, to.Rows, to.Cols)
		resharded, rerr := ckpt.Reshard(snap, to)
		if rerr != nil {
			fmt.Fprintln(os.Stderr, rerr)
			os.Exit(1)
		}
		res, err = minitrain.TrainElastic(c, to, *steps, *seed, minitrain.ElasticOpts{Every: *every, Resume: resharded})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for _, s := range res.Snapshots {
			if serr := ckpt.Save(store, s); serr != nil {
				fmt.Fprintln(os.Stderr, serr)
				os.Exit(1)
			}
			fmt.Printf("  snapshot epoch %d (step %d): %d records, %d bytes each\n",
				s.Manifest.Epoch, s.Manifest.Step, len(s.Records), len(s.Records[0]))
		}
	}

	ref := minitrain.TrainElasticSerial(c, *steps, *seed)
	bitIdentical := res.W1.BitEqual(ref.W1) && res.W2.BitEqual(ref.W2)
	fmt.Printf("final loss: %.6f\n", res.Losses[len(res.Losses)-1])
	fmt.Printf("bit-identical to uninterrupted serial run: %v\n", bitIdentical)
	if !bitIdentical {
		os.Exit(1)
	}
}
