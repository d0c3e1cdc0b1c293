package minitrain

import (
	"testing"

	"meshslice/internal/obs/recorder"
)

// TestElasticStepTraffic pins what one elastic step moves: on 2×4, 2×2 and
// 4×2 at the ckpt_elastic benchmark's dimensions, every chip must receive
// exactly the elements and messages of the step's five gathers — W1's and
// the hidden gradient's column strips on the column ring alone, W2, the
// hidden activations and the outputs in full (row ring, then the strips on
// the column ring). A full gather of W1 or dH coming back shows here: it
// makes a 2×4 chip receive 236,544 elements in 20 messages instead of
// 113,664 in 14.
func TestElasticStepTraffic(t *testing.T) {
	c := ElasticConfig{Batch: 64, In: 256, Hidden: 512, Out: 128, LR: 0.05, Momentum: 0.9}
	for _, tc := range []struct {
		rows, cols int
		elems      int // per chip, 0 = closed form only
	}{
		{2, 4, 113664},
		{2, 2, 120832},
		{4, 2, 0},
	} {
		lay := elasticLayout(tc.rows, tc.cols, 1, 1)
		pr, pc := tc.rows, tc.cols
		br, ir, hr := c.Batch/pr, c.In/pr, c.Hidden/pr
		hc, oc := c.Hidden/pc, c.Out/pc
		col := func(rows, cols int) int { return (pr - 1) * rows * cols }
		full := func(rows, cols int) int { return (pc-1)*rows*cols + (pr-1)*rows*pc*cols }
		wantElems := col(ir, hc) + full(hr, oc) + full(br, hc) + full(br, oc) + col(br, hc)
		wantMsgs := 3*(pr-1+pc-1) + 2*(pr-1)
		if tc.elems != 0 && wantElems != tc.elems {
			t.Fatalf("%dx%d: closed form gives %d elements, want %d", pr, pc, wantElems, tc.elems)
		}

		rec := recorder.New(lay.Chips(), 0)
		if _, err := TrainElastic(c, lay, 1, 7, ElasticOpts{Recorder: rec}); err != nil {
			t.Fatal(err)
		}
		for _, l := range rec.Snapshot().Logs {
			if l.Truncated > 0 {
				t.Fatalf("%dx%d chip %d truncated %d events", pr, pc, l.Chip, l.Truncated)
			}
			elems, msgs := 0, 0
			for _, e := range l.Events {
				if e.Kind == "recv" {
					elems += e.Rows * e.Cols
					msgs++
				}
			}
			if elems != wantElems || msgs != wantMsgs {
				t.Errorf("%dx%d chip %d received %d elements in %d messages, want %d in %d",
					pr, pc, l.Chip, elems, msgs, wantElems, wantMsgs)
			}
		}
		if got := c.StepSends(lay.Torus()); got != wantMsgs {
			t.Errorf("%dx%d: StepSends = %d, want %d", pr, pc, got, wantMsgs)
		}
	}
}
