package hw

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzLoadProfile feeds arbitrary bytes to LoadProfile, the decoder behind
// every -profile flag. Each input must either fail with an error or give a
// Chip that passes Validate, saves, and loads back to the same Chip, whose
// second save is byte-identical to the first; an accepted input is one
// JSON value, and no input may panic. JSON has
// no NaN or infinity, so a non-finite field can only arrive as a token the
// decoder rejects (NaN, Infinity) or a literal that overflows (1e999): the
// committed corpus holds both, beside the shipped profiles.
func FuzzLoadProfile(f *testing.F) {
	var tpu bytes.Buffer
	if err := SaveProfile(&tpu, TPUv4()); err != nil {
		f.Fatal(err)
	}
	f.Add(tpu.Bytes())
	f.Add([]byte(`{"LinkBandwidth": 25e9, "SyncLatency": -0}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := LoadProfile(bytes.NewReader(data))
		if err != nil {
			return
		}
		if !json.Valid(data) {
			t.Fatalf("LoadProfile accepted %q, which is not one JSON value", data)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("LoadProfile accepted %q, which fails Validate: %v", data, err)
		}
		var first bytes.Buffer
		if err := SaveProfile(&first, c); err != nil {
			t.Fatalf("SaveProfile rejects the profile LoadProfile accepted from %q: %v", data, err)
		}
		back, err := LoadProfile(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("LoadProfile rejects its own saved profile %s: %v", first.Bytes(), err)
		}
		if back != c {
			t.Fatalf("round trip of %q changed the chip:\n got %+v\nwant %+v", data, back, c)
		}
		var second bytes.Buffer
		if err := SaveProfile(&second, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("saved profile is not stable:\n%s\nthen\n%s", first.Bytes(), second.Bytes())
		}
	})
}
