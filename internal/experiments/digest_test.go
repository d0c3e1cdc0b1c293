package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"meshslice/internal/hw"
)

// raceDetector reports whether the tests run under -race (set in
// race_on_test.go).
var raceDetector bool

// TestMarkdownDigest pins what `go run ./cmd/experiments -md FILE` writes
// at full size on TPUv4: every table of every experiment, in IDs() order,
// as markdown. The digest moves only when a simulated or priced number
// does; re-capture it then, on purpose.
func TestMarkdownDigest(t *testing.T) {
	if raceDetector {
		t.Skip("a full-size regeneration is slow under -race; the plain run pins it")
	}
	const want = "cf9ce8d64b97a59593260081f2cca445f542dd15ebb3ad29506a319d1de3ca85"
	h := sha256.New()
	for _, id := range IDs() {
		tables, err := Run(id, hw.TPUv4(), false)
		if err != nil {
			t.Fatal(err)
		}
		for _, tbl := range tables {
			if err := tbl.WriteMarkdown(h); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("experiments markdown sha256 = %s, want %s", got, want)
	}
}
