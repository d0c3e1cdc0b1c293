package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"meshslice/internal/tensor"
)

// fuzzLayout is the layout FuzzDecodeRecord decodes under: row and column
// slicing with Block 2, so the payload order is a real interleave.
var fuzzLayout = Layout{Rows: 2, Cols: 2, SliceRows: 2, SliceCols: 2, Block: 2}

// recordHead encodes a record's fixed header as the format defines it.
func recordHead(l Layout, rank, step int, seed int64, ntensors int) []byte {
	b := []byte(recordMagic)
	for _, v := range []int{recordFormat, rank} {
		b = binary.BigEndian.AppendUint32(b, uint32(v))
	}
	b = binary.BigEndian.AppendUint64(b, uint64(step))
	b = binary.BigEndian.AppendUint64(b, uint64(seed))
	for _, v := range []int{l.Rows, l.Cols, l.SliceRows, l.SliceCols, l.Block, ntensors} {
		b = binary.BigEndian.AppendUint32(b, uint32(v))
	}
	return b
}

// tensorHead appends one tensor's header: its name and global shape.
func tensorHead(b []byte, name string, rows, cols uint32) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(name)))
	b = append(b, name...)
	b = binary.BigEndian.AppendUint32(b, rows)
	return binary.BigEndian.AppendUint32(b, cols)
}

// oversizedRecord is a header-only record: one tensor "w" declared as
// rows×cols under l, with no payload behind it.
func oversizedRecord(l Layout, rows, cols uint32) []byte {
	return tensorHead(recordHead(l, 0, 0, 0, 1), "w", rows, cols)
}

// TestDecodeRejectsOversizedHeader is the regression test for a record
// whose header declares a tensor far larger than the bytes behind it: the
// 65-byte record declaring a 2³¹×2³¹ tensor used to panic in makeslice, and
// a 2¹⁵×2¹⁵ one allocated a 2 GiB block before noticing the missing
// payload. Both must fail with the truncation error before any allocation,
// through every entry point that decodes records.
func TestDecodeRejectsOversizedHeader(t *testing.T) {
	l := Layout{Rows: 2, Cols: 2, SliceRows: 1, SliceCols: 1, Block: 1}
	huge := oversizedRecord(l, 1<<31, 1<<31)
	if len(huge) != 65 {
		t.Fatalf("crafted record is %d bytes, want 65", len(huge))
	}
	for _, rec := range [][]byte{huge, oversizedRecord(l, 1<<15, 1<<15)} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeRecord(l, rec)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("DecodeRecord: err = %v, want ErrTruncated", err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
			t.Fatalf("DecodeRecord allocated %d bytes before rejecting the header", grew)
		}

		records := [][]byte{rec, rec, rec, rec}
		if _, err := BuildSnapshot(l, 0, "elastic", records); !errors.Is(err, ErrTruncated) {
			t.Fatalf("BuildSnapshot: err = %v, want ErrTruncated", err)
		}
		// A snapshot whose manifest checksums match, as Load would return.
		s := &Snapshot{Manifest: &Manifest{Format: ManifestFormat, Layout: l}, Records: records}
		for rank, r := range records {
			s.Manifest.Records = append(s.Manifest.Records, RecordInfo{Rank: rank, Bytes: len(r), CRC32: recordCRC(r)})
		}
		if _, err := s.Decode(); !errors.Is(err, ErrTruncated) {
			t.Fatalf("Snapshot.Decode: err = %v, want ErrTruncated", err)
		}
		if _, err := Reshard(s, testLayout); !errors.Is(err, ErrTruncated) {
			t.Fatalf("Reshard: err = %v, want ErrTruncated", err)
		}
	}
}

// TestEncodeMatchesSlicedReference pins the payload order against its
// definition: for every slicing of a 4×2 mesh (1, 2 or 4 row and column
// slices, block size 1, 2 or 4), EncodeRecord's bytes equal a reference
// encoder that materialises SliceCol(SliceRow(block, SliceRows, i, Block),
// SliceCols, j, Block) for every (i, j), and DecodeRecord inverts them bit
// for bit.
func TestEncodeMatchesSlicedReference(t *testing.T) {
	for _, b := range []int{1, 2, 4} {
		for _, sr := range []int{1, 2, 4} {
			for _, sc := range []int{1, 2, 4} {
				l := Layout{Rows: 4, Cols: 2, SliceRows: sr, SliceCols: sc, Block: b}
				for rank, tensors := range slicingState(t, l) {
					got, err := EncodeRecord(l, rank, 5, 17, tensors)
					if err != nil {
						t.Fatal(err)
					}
					if want := referenceRecord(l, rank, 5, 17, tensors); !bytes.Equal(got, want) {
						t.Fatalf("layout %+v rank %d: record bytes differ from the sliced reference", l, rank)
					}
					rd, err := DecodeRecord(l, got)
					if err != nil {
						t.Fatal(err)
					}
					for i, nt := range rd.Tensors {
						if !nt.Block.BitEqual(tensors[i].Block) {
							t.Fatalf("layout %+v rank %d: tensor %q not bit-identical after decode", l, rank, nt.Name)
						}
					}
				}
			}
		}
	}
}

// slicingState returns every chip's blocks of two random tensors whose
// 16×16 and 16×32 blocks divide under any slicing of up to 4 slices of
// block size up to 4, sorted by name.
func slicingState(t *testing.T, l Layout) [][]NamedTensor {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(l.SliceRows*100 + l.SliceCols*10 + l.Block)))
	perChip := make([][]NamedTensor, l.Chips())
	for _, spec := range []TensorSpec{{"a", 16 * l.Rows, 16 * l.Cols}, {"b", 16 * l.Rows, 32 * l.Cols}} {
		if err := l.CheckTensor(spec.Name, spec.Rows, spec.Cols); err != nil {
			t.Fatal(err)
		}
		for rank, blk := range tensor.Partition(tensor.Random(spec.Rows, spec.Cols, rng), l.Rows, l.Cols) {
			perChip[rank] = append(perChip[rank], NamedTensor{Name: spec.Name, Rows: spec.Rows, Cols: spec.Cols, Block: blk})
		}
	}
	return perChip
}

// referenceRecord encodes a record the way the format defines it, slice by
// slice through tensor.SliceRow and tensor.SliceCol. tensors must be sorted
// by name.
func referenceRecord(l Layout, rank, step int, seed int64, tensors []NamedTensor) []byte {
	b := recordHead(l, rank, step, seed, len(tensors))
	for _, t := range tensors {
		b = tensorHead(b, t.Name, uint32(t.Rows), uint32(t.Cols))
		for i := 0; i < l.SliceRows; i++ {
			rs := tensor.SliceRow(t.Block, l.SliceRows, i, l.Block)
			for j := 0; j < l.SliceCols; j++ {
				for _, v := range tensor.SliceCol(rs, l.SliceCols, j, l.Block).Data {
					b = binary.BigEndian.AppendUint64(b, math.Float64bits(v))
				}
			}
		}
	}
	return b
}

// FuzzDecodeRecord holds the record decoder to three properties on any
// input: it returns an error or a record, never panics; a record it accepts
// re-encodes to exactly the input bytes; and BuildSnapshot's header walk
// accepts exactly the records DecodeRecord accepts. The committed corpus
// (testdata/fuzz/FuzzDecodeRecord) seeds a valid record, a truncated one,
// one with a trailing byte, and an oversized header.
func FuzzDecodeRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		rd, err := DecodeRecord(fuzzLayout, data)
		_, herr := readRecord(fuzzLayout, data, false)
		if (err == nil) != (herr == nil) {
			t.Fatalf("DecodeRecord err = %v, header walk err = %v", err, herr)
		}
		if err != nil {
			if !strings.HasPrefix(err.Error(), "ckpt: ") {
				t.Fatalf("untyped error %q", err)
			}
			return
		}
		re, err := EncodeRecord(fuzzLayout, rd.Rank, rd.Step, rd.Seed, rd.Tensors)
		if err != nil {
			t.Fatalf("decoded record does not re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("re-encoded record differs from its input")
		}
	})
}

// FuzzDecodeManifest holds manifest decoding, and everything Load builds on
// it, to its contract on any bytes: DecodeManifest returns an error or a
// manifest, never a panic; an accepted manifest encodes and decodes back to
// an equal manifest; and Load over a store holding the bytes and the
// records they list — the records of a real 2×2 snapshot, by rank — never
// panics, nor does resharding what Load accepts. The committed corpus
// (testdata/fuzz/FuzzDecodeManifest) seeds that snapshot's manifest, a
// truncated copy, one with an unknown field, and one cut to 2 records.
func FuzzDecodeManifest(f *testing.F) {
	base := buildTestSnapshot(f, testLayout, 1, 4, 77)
	to := Layout{Rows: 1, Cols: 4, SliceRows: 1, SliceCols: 1, Block: 2}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeManifest(data)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "ckpt: ") {
				t.Fatalf("untyped error %q", err)
			}
			return
		}
		re, err := m.Encode()
		if err != nil {
			t.Fatalf("decoded manifest does not encode: %v", err)
		}
		back, err := DecodeManifest(re)
		if err != nil {
			t.Fatalf("encoded manifest does not decode: %v", err)
		}
		if !reflect.DeepEqual(back, m) {
			t.Fatalf("manifest round trip: %+v, want %+v", back, m)
		}

		st := NewMemStore()
		st.Put(ManifestKey(m.Epoch), data)
		for rank := range min(len(m.Records), len(base.Records)) {
			st.Put(RecordKey(m.Epoch, rank), base.Records[rank])
		}
		s, err := Load(st, m.Epoch)
		if err != nil {
			return
		}
		if r, err := Reshard(s, to); err == nil {
			if err := r.Verify(); err != nil {
				t.Fatalf("resharded snapshot does not verify: %v", err)
			}
		} else if !strings.HasPrefix(err.Error(), "ckpt: ") {
			t.Fatalf("untyped reshard error %q", err)
		}
	})
}
