package ckpt

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
)

// ManifestFormat is bumped on any change to the manifest schema.
const ManifestFormat = 1

// TensorSpec names one global tensor covered by a snapshot.
type TensorSpec struct {
	Name string `json:"name"`
	Rows int    `json:"rows"`
	Cols int    `json:"cols"`
}

// RecordInfo summarises one per-chip record for integrity checking.
type RecordInfo struct {
	Rank  int    `json:"rank"`
	Bytes int    `json:"bytes"`
	CRC32 string `json:"crc32"`
}

// Manifest makes a snapshot a single byte-comparable artifact: it pins the
// layout the records were written under, the training position (epoch,
// step, seed), the dataflow that produced the state, the tensor inventory
// (sorted by name), and a checksum per record. Encode emits canonical JSON —
// fixed field order, sorted slices, no timestamps — so two manifests are
// byte-identical exactly when they describe the same snapshot.
type Manifest struct {
	Format int `json:"format"`
	// Epoch is the monotone checkpoint counter within a training run:
	// snapshot k of a run has Epoch k, and a resumed run continues the
	// sequence from the snapshot it restored.
	Epoch int    `json:"epoch"`
	Step  int    `json:"step"`
	Seed  int64  `json:"seed"`
	Flow  string `json:"dataflow"`
	// Layout is the sharding the records are stored under.
	Layout  Layout       `json:"layout"`
	Tensors []TensorSpec `json:"tensors"`
	Records []RecordInfo `json:"records"`
}

// Encode renders the canonical JSON form (indented, trailing newline).
func (m *Manifest) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// DecodeManifest parses canonical manifest JSON.
func DecodeManifest(data []byte) (*Manifest, error) {
	var m Manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("ckpt: manifest: %w", err)
	}
	if m.Format != ManifestFormat {
		return nil, fmt.Errorf("ckpt: manifest format %d, want %d", m.Format, ManifestFormat)
	}
	return &m, nil
}

// Snapshot is one complete checkpoint: the manifest plus one record per
// chip, indexed by rank.
type Snapshot struct {
	Manifest *Manifest
	Records  [][]byte
}

// recordCRC is the checksum stored per record (IEEE CRC-32 over the raw
// record bytes, rendered as fixed-width hex).
func recordCRC(data []byte) string {
	return fmt.Sprintf("%08x", crc32.ChecksumIEEE(data))
}

// BuildSnapshot assembles and validates a snapshot from the per-chip record
// bytes (indexed by rank): every record must decode under the layout, agree
// on step and seed, declare its own rank, and cover an identical tensor
// inventory. The manifest's tensor list is collected from the records and
// emitted in sorted name order. Records are checked by a header walk that
// skips each payload once its length is verified: it accepts exactly the
// records DecodeRecord accepts, without materialising a block.
func BuildSnapshot(l Layout, epoch int, flow string, records [][]byte) (*Snapshot, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	if epoch < 0 {
		return nil, fmt.Errorf("ckpt: negative epoch %d", epoch)
	}
	if len(records) != l.Chips() {
		return nil, fmt.Errorf("ckpt: %d records for %dx%d mesh", len(records), l.Rows, l.Cols)
	}
	m := &Manifest{Format: ManifestFormat, Epoch: epoch, Flow: flow, Layout: l}
	specs := make(map[string]TensorSpec)
	inventory := -1
	for rank, rec := range records {
		rd, err := readRecord(l, rec, false)
		if err != nil {
			return nil, fmt.Errorf("ckpt: record %d: %w", rank, err)
		}
		if rd.Rank != rank {
			return nil, fmt.Errorf("ckpt: record %d declares rank %d", rank, rd.Rank)
		}
		if rank == 0 {
			m.Step, m.Seed = rd.Step, rd.Seed
		} else if rd.Step != m.Step || rd.Seed != m.Seed {
			return nil, fmt.Errorf("ckpt: record %d at (step %d, seed %d), record 0 at (step %d, seed %d)", rank, rd.Step, rd.Seed, m.Step, m.Seed)
		}
		for _, t := range rd.Tensors {
			spec := TensorSpec{Name: t.Name, Rows: t.Rows, Cols: t.Cols}
			if prev, ok := specs[t.Name]; ok && prev != spec {
				return nil, fmt.Errorf("ckpt: tensor %q is %dx%d in record %d but %dx%d earlier", t.Name, t.Rows, t.Cols, rank, prev.Rows, prev.Cols)
			}
			specs[t.Name] = spec
		}
		if inventory < 0 {
			inventory = len(specs)
		}
		if len(rd.Tensors) != inventory || len(specs) != inventory {
			return nil, fmt.Errorf("ckpt: record %d covers %d tensors, record 0 covers %d", rank, len(rd.Tensors), inventory)
		}
		m.Records = append(m.Records, RecordInfo{Rank: rank, Bytes: len(rec), CRC32: recordCRC(rec)})
	}
	// Collect-then-sort: the spec map's iteration order must never reach
	// the manifest, so names are gathered, sorted, then emitted.
	names := make([]string, 0, len(specs))
	for name := range specs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m.Tensors = append(m.Tensors, specs[name])
	}
	return &Snapshot{Manifest: m, Records: records}, nil
}

// ErrManifest marks a manifest that cannot describe a snapshot: its layout
// is malformed, its record list does not hold one record per chip of that
// layout in rank order, or its tensor list differs from the records'.
var ErrManifest = errors.New("ckpt: malformed manifest")

// Verify checks the manifest against its own layout — a well-formed layout
// and one record per chip, listed in rank order — then re-derives every
// record checksum and compares it (and the record count and sizes) against
// the manifest.
func (s *Snapshot) Verify() error {
	m := s.Manifest
	if m == nil {
		return fmt.Errorf("ckpt: snapshot has no manifest")
	}
	l := m.Layout
	if err := l.Validate(); err != nil {
		return fmt.Errorf("%w: layout %+v", ErrManifest, l)
	}
	// len == Rows·Cols, tested without forming a product that could
	// overflow on a decoded layout.
	if n := len(m.Records); n%l.Rows != 0 || n/l.Rows != l.Cols {
		return fmt.Errorf("%w: %d records for a %dx%d layout", ErrManifest, n, l.Rows, l.Cols)
	}
	if len(s.Records) != len(m.Records) {
		return fmt.Errorf("ckpt: snapshot has %d records, manifest lists %d", len(s.Records), len(m.Records))
	}
	for i, rec := range s.Records {
		info := m.Records[i]
		if info.Rank != i {
			return fmt.Errorf("%w: record %d declares rank %d", ErrManifest, i, info.Rank)
		}
		if len(rec) != info.Bytes {
			return fmt.Errorf("ckpt: record %d is %d bytes, manifest says %d", i, len(rec), info.Bytes)
		}
		if got := recordCRC(rec); got != info.CRC32 {
			return fmt.Errorf("ckpt: record %d checksum %s, manifest says %s", i, got, info.CRC32)
		}
	}
	return nil
}

// Decode parses every record of the snapshot, returning them indexed by
// rank. Each record must declare its own rank and cover exactly the
// manifest's tensors, so a consumer may size and index by the manifest.
func (s *Snapshot) Decode() ([]*RecordData, error) {
	if err := s.Verify(); err != nil {
		return nil, err
	}
	specs := s.Manifest.Tensors
	out := make([]*RecordData, len(s.Records))
	for i, rec := range s.Records {
		rd, err := DecodeRecord(s.Manifest.Layout, rec)
		if err != nil {
			return nil, fmt.Errorf("ckpt: record %d: %w", i, err)
		}
		if rd.Rank != i {
			return nil, fmt.Errorf("ckpt: record %d declares rank %d", i, rd.Rank)
		}
		if len(rd.Tensors) != len(specs) {
			return nil, fmt.Errorf("%w: record %d covers %d tensors, manifest lists %d", ErrManifest, i, len(rd.Tensors), len(specs))
		}
		for k, t := range rd.Tensors {
			if got := (TensorSpec{Name: t.Name, Rows: t.Rows, Cols: t.Cols}); got != specs[k] {
				return nil, fmt.Errorf("%w: record %d holds tensor %+v, manifest lists %+v", ErrManifest, i, got, specs[k])
			}
		}
		out[i] = rd
	}
	return out, nil
}
