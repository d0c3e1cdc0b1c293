package hw

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestProfileRoundTrip(t *testing.T) {
	orig := TPUv4()
	orig.LinkBandwidth = 123e9
	var buf bytes.Buffer
	if err := SaveProfile(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := LoadProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != orig {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, orig)
	}
}

func TestLoadProfilePartialOverride(t *testing.T) {
	// A profile overriding only the bandwidth keeps the other defaults.
	got, err := LoadProfile(strings.NewReader(`{"LinkBandwidth": 25e9}`))
	if err != nil {
		t.Fatal(err)
	}
	if got.LinkBandwidth != 25e9 {
		t.Errorf("override ignored: %v", got.LinkBandwidth)
	}
	if got.EffFLOPS != TPUv4().EffFLOPS {
		t.Errorf("defaults not inherited: %v", got.EffFLOPS)
	}
}

func TestLoadProfileRejectsGarbage(t *testing.T) {
	cases := []string{
		`{`,                  // malformed JSON
		`{"NoSuchField": 1}`, // unknown field
		`{"PeakFLOPS": -5}`,  // fails validation
		`{"SliceBlock": 0}`,  // fails validation
		`{"EffFLOPS": 9e30}`, // above peak
		`{"BytesPerElement": 4} {"PeakFLOPS": -1}`, // a second object after the profile
		`{"LinkBandwidth": 25e9} x`,                // junk after the profile
	}
	for _, in := range cases {
		if _, err := LoadProfile(strings.NewReader(in)); err == nil {
			t.Errorf("profile %q accepted", in)
		}
	}
}

func TestSaveProfileRejectsInvalid(t *testing.T) {
	var buf bytes.Buffer
	bad := TPUv4()
	bad.HBMBandwidth = 0
	if err := SaveProfile(&buf, bad); err == nil {
		t.Errorf("invalid profile saved")
	}
}

func TestLoadProfileFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "chip.json")
	var buf bytes.Buffer
	if err := SaveProfile(&buf, TPUv4()); err != nil {
		t.Fatal(err)
	}
	if err := writeFile(path, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	got, err := LoadProfileFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != TPUv4() {
		t.Errorf("file round trip mismatch")
	}
	if _, err := LoadProfileFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Errorf("missing file accepted")
	}
}

func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

func TestShippedProfilesLoad(t *testing.T) {
	// The profiles/ directory ships ready-to-use calibrations; all must
	// load and validate.
	for _, name := range []string{"tpuv4.json", "tpuv5e-like.json", "gpu-logical-mesh.json"} {
		c, err := LoadProfileFile(filepath.Join("..", "..", "profiles", name))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if err := c.Validate(); err != nil {
			t.Errorf("%s invalid: %v", name, err)
		}
	}
	// The tpuv4 profile matches the built-in default.
	c, err := LoadProfileFile(filepath.Join("..", "..", "profiles", "tpuv4.json"))
	if err != nil {
		t.Fatal(err)
	}
	if c != TPUv4() {
		t.Errorf("shipped tpuv4.json diverges from the built-in default:\n%+v\n%+v", c, TPUv4())
	}
}
