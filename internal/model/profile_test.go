package model

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestModelConfigRoundTrip(t *testing.T) {
	orig := MegatronNLG()
	var buf bytes.Buffer
	if err := Save(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != orig {
		t.Errorf("round trip mismatch: %+v vs %+v", got, orig)
	}
}

func TestLoadRejectsInvalidConfigs(t *testing.T) {
	cases := []string{
		`{`,
		`{"Mystery": 4}`,
		`{"Name":"x","Layers":0,"Hidden":8,"Heads":2,"FFHidden":32,"SeqLen":8}`,
		`{"Name":"x","Layers":2,"Hidden":9,"Heads":2,"FFHidden":32,"SeqLen":8}`, // heads don't divide
	}
	for _, in := range cases {
		if _, err := Load(strings.NewReader(in)); err == nil {
			t.Errorf("config %q accepted", in)
		}
	}
}

// TestLoadRejectsTrailingData: a config file is exactly one JSON object. A
// second object or stray bytes after it must fail the load, not be ignored.
func TestLoadRejectsTrailingData(t *testing.T) {
	const valid = `{"Name":"x","Layers":2,"Hidden":8,"Heads":2,"FFHidden":32,"SeqLen":4}`
	if _, err := Load(strings.NewReader(valid + "\n")); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for _, tail := range []string{` {"Layers":-1}`, ` garbage`, `}`, ` null`} {
		if _, err := Load(strings.NewReader(valid + tail)); err == nil {
			t.Errorf("config followed by %q accepted", tail)
		}
	}
}

func TestSaveRejectsInvalid(t *testing.T) {
	var buf bytes.Buffer
	bad := GPT3()
	bad.SeqLen = 0
	if err := Save(&buf, bad); err == nil {
		t.Errorf("invalid config saved")
	}
}

func TestLoadFileCustomModel(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "llama.json")
	custom := `{"Name":"Llama-3-70B","Layers":80,"Hidden":8192,"Heads":64,"FFHidden":28672,"SeqLen":8192}`
	if err := os.WriteFile(path, []byte(custom), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "Llama-3-70B" || got.Layers != 80 {
		t.Errorf("loaded %+v", got)
	}
	// A custom model plugs straight into the rest of the stack.
	if got.ParamCount() <= 0 || len(got.TrainingGeMMs(1024)) != 12 {
		t.Errorf("custom model unusable: params %d", got.ParamCount())
	}
	if _, err := LoadFile(filepath.Join(dir, "absent.json")); err == nil {
		t.Errorf("missing file accepted")
	}
}
