package model

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzLoad feeds arbitrary bytes to Load, the decoder behind a -model flag
// that names a JSON config file. Each input must either fail with an error or be exactly one
// JSON value giving a Config that passes Validate, saves, and loads back
// to the same Config, whose second save is byte-identical to the first;
// no input may panic. The committed corpus holds a trailing object,
// trailing garbage, an unknown field, null and an int overflow.
func FuzzLoad(f *testing.F) {
	for _, c := range []Config{GPT3(), MegatronNLG()} {
		var buf bytes.Buffer
		if err := Save(&buf, c); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if !json.Valid(data) {
			t.Fatalf("Load accepted %q, which is not one JSON value", data)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("Load accepted %q, which fails Validate: %v", data, err)
		}
		var first bytes.Buffer
		if err := Save(&first, c); err != nil {
			t.Fatalf("Save rejects the config Load accepted from %q: %v", data, err)
		}
		back, err := Load(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("Load rejects its own saved config %s: %v", first.Bytes(), err)
		}
		if back != c {
			t.Fatalf("round trip of %q changed the config:\n got %+v\nwant %+v", data, back, c)
		}
		var second bytes.Buffer
		if err := Save(&second, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("saved config is not stable:\n%s\nthen\n%s", first.Bytes(), second.Bytes())
		}
	})
}
