package hw

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Calibration profiles: the paper calibrates its simulator against real
// TPUv4 measurements (§4.1, §4.5 — bandwidth, sync latency, launch
// overhead measured on 2- and 4-chip clusters). These helpers load and
// store such calibrations as JSON so alternative hardware (different TPU
// generations, GPU fabrics) can be described without recompiling.

// LoadProfile decodes a chip calibration from JSON and validates it.
// Missing fields inherit the TPUv4 defaults, so a profile may override
// only the parameters that were measured. The input must hold exactly one
// JSON object: anything but white space after it is an error.
func LoadProfile(r io.Reader) (Chip, error) {
	c := TPUv4()
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return Chip{}, fmt.Errorf("hw: decoding profile: %w", err)
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return Chip{}, fmt.Errorf("hw: decoding profile: data after the profile object")
	}
	if err := c.Validate(); err != nil {
		return Chip{}, err
	}
	return c, nil
}

// LoadProfileFile is LoadProfile over a file path.
func LoadProfileFile(path string) (Chip, error) {
	f, err := os.Open(path)
	if err != nil {
		return Chip{}, fmt.Errorf("hw: %w", err)
	}
	defer f.Close()
	return LoadProfile(f)
}

// SaveProfile encodes the calibration as indented JSON.
func SaveProfile(w io.Writer, c Chip) error {
	if err := c.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(c); err != nil {
		return fmt.Errorf("hw: encoding profile: %w", err)
	}
	return nil
}
