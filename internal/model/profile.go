package model

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Model configurations as JSON, so users can evaluate LLMs beyond the two
// the paper uses without recompiling.

// Load decodes a model configuration from JSON — exactly one object, with
// no unknown fields and nothing after it — and validates it.
func Load(r io.Reader) (Config, error) {
	var c Config
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return Config{}, fmt.Errorf("model: decoding config: %w", err)
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return Config{}, fmt.Errorf("model: decoding config: data after the config object")
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// LoadFile is Load over a file path.
func LoadFile(path string) (Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return Config{}, fmt.Errorf("model: %w", err)
	}
	defer f.Close()
	return Load(f)
}

// Save encodes the configuration as indented JSON.
// lint:allow unused cmd/meshslice's tests write -model files with it
func Save(w io.Writer, c Config) error {
	if err := c.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(c); err != nil {
		return fmt.Errorf("model: encoding config: %w", err)
	}
	return nil
}
