package minitrain

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"meshslice/internal/obs/recorder"
)

// Goldens of TestElasticRecordedRunGolden: the sha256 of the canonical
// recorder export, and of the run's snapshots (each manifest followed by its
// records, epochs in order).
const (
	elasticRecordGolden   = "c2da2522f3dfdb83d239f6c725ec872c7f64c45da14787a759cd973a7636a06b"
	elasticSnapshotGolden = "59533c8ffcceb7f589435975a64585948184e7b2d04d667c713ee5e18e4e252c"
)

// TestElasticRecordedRunGolden pins what a recorded 2×4, 4-step TrainElastic
// run with a snapshot every 2 steps emits: every recorder event (sends,
// receives, spans, buffer checkouts, with their Lamport clocks) and every
// snapshot byte. It also holds the run to StepSends: ElasticFailFaults
// targets a step by counting sends, so each chip must send exactly
// StepSends messages per step.
func TestElasticRecordedRunGolden(t *testing.T) {
	c := elasticConfig()
	lay := elasticLayout(2, 4, 1, 1)
	const steps = 4
	rec := recorder.New(lay.Chips(), 0)
	res, err := TrainElastic(c, lay, steps, 13, ElasticOpts{Every: 2, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	snap := rec.Snapshot()
	sends := 0
	for _, l := range snap.Logs {
		if l.Truncated > 0 {
			t.Fatalf("chip %d truncated %d events; grow the recorder ring", l.Chip, l.Truncated)
		}
		for _, e := range l.Events {
			if e.Kind == "send" {
				sends++
			}
		}
	}
	if want := steps * lay.Chips() * c.StepSends(lay.Torus()); sends != want {
		t.Fatalf("recorded %d sends, want steps × chips × StepSends = %d", sends, want)
	}
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(buf.Bytes()); got != elasticRecordGolden {
		t.Errorf("recorder export sha256 %s, golden %s", got, elasticRecordGolden)
	}
	if len(res.Snapshots) != steps/2 {
		t.Fatalf("%d snapshots, want %d", len(res.Snapshots), steps/2)
	}
	h := sha256.New()
	for _, s := range res.Snapshots {
		mb, err := s.Manifest.Encode()
		if err != nil {
			t.Fatal(err)
		}
		h.Write(mb)
		for _, r := range s.Records {
			h.Write(r)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != elasticSnapshotGolden {
		t.Errorf("snapshot sha256 %s, golden %s", got, elasticSnapshotGolden)
	}
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
