package ckpt

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"meshslice/internal/tensor"
)

// testLayout is the default 2×2 layout with 2×1 slicing used across the
// unit tests.
var testLayout = Layout{Rows: 2, Cols: 2, SliceRows: 2, SliceCols: 1, Block: 2}

// testState builds a deterministic global tensor set and its per-chip
// blocks under the layout.
func testState(t testing.TB, l Layout, seed int64) (globals map[string]*tensor.Matrix, perChip [][]NamedTensor) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	globals = map[string]*tensor.Matrix{
		"w1": tensor.Random(16, 32, rng),
		"v1": tensor.Random(16, 32, rng),
		"w2": tensor.Random(32, 8, rng),
		"v2": tensor.Random(32, 8, rng),
	}
	perChip = make([][]NamedTensor, l.Chips())
	for _, name := range []string{"w1", "v1", "w2", "v2"} {
		g := globals[name]
		if err := l.CheckTensor(name, g.Rows, g.Cols); err != nil {
			t.Fatalf("CheckTensor(%s): %v", name, err)
		}
		shards := tensor.Partition(g, l.Rows, l.Cols)
		for rank, blk := range shards {
			perChip[rank] = append(perChip[rank], NamedTensor{Name: name, Rows: g.Rows, Cols: g.Cols, Block: blk})
		}
	}
	return globals, perChip
}

// buildTestSnapshot encodes a full snapshot of the deterministic state.
func buildTestSnapshot(t testing.TB, l Layout, epoch, step int, seed int64) *Snapshot {
	t.Helper()
	_, perChip := testState(t, l, seed)
	records := make([][]byte, l.Chips())
	for rank, tensors := range perChip {
		rec, err := EncodeRecord(l, rank, step, seed, tensors)
		if err != nil {
			t.Fatalf("EncodeRecord(rank %d): %v", rank, err)
		}
		records[rank] = rec
	}
	s, err := BuildSnapshot(l, epoch, "elastic", records)
	if err != nil {
		t.Fatalf("BuildSnapshot: %v", err)
	}
	return s
}

func TestRecordRoundTrip(t *testing.T) {
	l := testLayout
	_, perChip := testState(t, l, 11)
	for rank, tensors := range perChip {
		rec, err := EncodeRecord(l, rank, 7, 11, tensors)
		if err != nil {
			t.Fatalf("EncodeRecord: %v", err)
		}
		rd, err := DecodeRecord(l, rec)
		if err != nil {
			t.Fatalf("DecodeRecord: %v", err)
		}
		if rd.Rank != rank || rd.Step != 7 || rd.Seed != 11 {
			t.Fatalf("decoded identity (%d, %d, %d), want (%d, 7, 11)", rd.Rank, rd.Step, rd.Seed, rank)
		}
		if len(rd.Tensors) != len(tensors) {
			t.Fatalf("decoded %d tensors, want %d", len(rd.Tensors), len(tensors))
		}
		for _, want := range tensors {
			got := rd.Tensor(want.Name)
			if got == nil {
				t.Fatalf("decoded record lacks %q", want.Name)
			}
			if !got.Block.BitEqual(want.Block) {
				t.Fatalf("tensor %q block not bit-identical after round trip", want.Name)
			}
		}
	}
}

func TestRecordByteStable(t *testing.T) {
	l := testLayout
	_, perChip := testState(t, l, 3)
	a, err := EncodeRecord(l, 1, 4, 3, perChip[1])
	if err != nil {
		t.Fatal(err)
	}
	// Same state listed in reverse order must serialize identically: the
	// encoder sorts by name.
	rev := make([]NamedTensor, len(perChip[1]))
	for i, nt := range perChip[1] {
		rev[len(rev)-1-i] = nt
	}
	b, err := EncodeRecord(l, 1, 4, 3, rev)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("record bytes depend on caller's tensor order")
	}
}

func TestRecordRejectsCorruption(t *testing.T) {
	l := testLayout
	_, perChip := testState(t, l, 5)
	rec, err := EncodeRecord(l, 0, 1, 5, perChip[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRecord(l, rec[:len(rec)-3]); err == nil {
		t.Fatal("truncated record decoded")
	}
	if _, err := DecodeRecord(l, append(append([]byte(nil), rec...), 0)); err == nil {
		t.Fatal("record with trailing bytes decoded")
	}
	wrong := l
	wrong.SliceRows = 1
	if _, err := DecodeRecord(wrong, rec); err == nil {
		t.Fatal("record decoded under mismatched layout")
	}
}

func TestManifestCanonicalAndByteStable(t *testing.T) {
	a := buildTestSnapshot(t, testLayout, 2, 6, 42)
	b := buildTestSnapshot(t, testLayout, 2, 6, 42)
	am, err := a.Manifest.Encode()
	if err != nil {
		t.Fatal(err)
	}
	bm, err := b.Manifest.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(am, bm) {
		t.Fatalf("manifests differ between identical builds:\n%s\nvs\n%s", am, bm)
	}
	m, err := DecodeManifest(am)
	if err != nil {
		t.Fatal(err)
	}
	if m.Epoch != 2 || m.Step != 6 || m.Seed != 42 || m.Layout != testLayout {
		t.Fatalf("decoded manifest %+v", m)
	}
	for i := 1; i < len(m.Tensors); i++ {
		if m.Tensors[i-1].Name >= m.Tensors[i].Name {
			t.Fatalf("manifest tensors not sorted: %v", m.Tensors)
		}
	}
	if err := a.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	// A flipped byte must fail verification.
	a.Records[1][len(a.Records[1])-1] ^= 0xff
	if err := a.Verify(); err == nil {
		t.Fatal("corrupted record passed Verify")
	}
}

func TestBuildSnapshotRejectsInconsistency(t *testing.T) {
	l := testLayout
	_, perChip := testState(t, l, 9)
	records := make([][]byte, l.Chips())
	for rank, tensors := range perChip {
		step := 3
		if rank == 2 {
			step = 4 // divergent step counter
		}
		rec, err := EncodeRecord(l, rank, step, 9, tensors)
		if err != nil {
			t.Fatal(err)
		}
		records[rank] = rec
	}
	if _, err := BuildSnapshot(l, 0, "elastic", records); err == nil {
		t.Fatal("snapshot with divergent step counters built")
	}
}

func TestStoreRoundTrip(t *testing.T) {
	stores := map[string]Store{"mem": NewMemStore()}
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stores["file"] = fs
	for name, st := range stores {
		t.Run(name, func(t *testing.T) {
			for epoch := 0; epoch < 3; epoch++ {
				s := buildTestSnapshot(t, testLayout, epoch, 2*(epoch+1), 77)
				if err := Save(st, s); err != nil {
					t.Fatalf("Save(epoch %d): %v", epoch, err)
				}
			}
			latest, err := LatestEpoch(st)
			if err != nil {
				t.Fatal(err)
			}
			if latest != 2 {
				t.Fatalf("LatestEpoch = %d, want 2", latest)
			}
			es, err := Epochs(st)
			if err != nil {
				t.Fatal(err)
			}
			if len(es) != 3 || es[0] != 0 || es[2] != 2 {
				t.Fatalf("Epochs = %v", es)
			}
			got, err := Load(st, 1)
			if err != nil {
				t.Fatal(err)
			}
			want := buildTestSnapshot(t, testLayout, 1, 4, 77)
			gm, _ := got.Manifest.Encode()
			wm, _ := want.Manifest.Encode()
			if !bytes.Equal(gm, wm) {
				t.Fatal("loaded manifest differs from saved")
			}
			for rank := range want.Records {
				if !bytes.Equal(got.Records[rank], want.Records[rank]) {
					t.Fatalf("record %d differs after store round trip", rank)
				}
			}
		})
	}
}

// TestLoadRejectsMalformedManifest is the regression test for manifests
// whose record checksums all match but which cannot describe their
// snapshot: one that lists fewer records than its layout has chips (a 2×2
// snapshot cut to 2 records used to pass Load and then panic in Reshard
// with an index out of range), one whose layout is malformed, and one
// whose layout has fewer chips than the records listed. Load must return
// ErrManifest. A manifest that lies about a tensor's shape, and one that
// lists two records' files swapped, pass Load (the checksums match) but
// must fail Decode and Reshard instead of reading past a block or moving a
// block to the wrong chip.
func TestLoadRejectsMalformedManifest(t *testing.T) {
	for _, tc := range []struct {
		name     string
		edit     func(m *Manifest, recs [][]byte)
		loadFail bool
	}{
		{"short records", func(m *Manifest, _ [][]byte) { m.Records = m.Records[:2] }, true},
		{"zero rows", func(m *Manifest, _ [][]byte) { m.Layout.Rows = 0 }, true},
		{"fewer chips", func(m *Manifest, _ [][]byte) { m.Layout.Cols = 1 }, true},
		{"tensor shape", func(m *Manifest, _ [][]byte) { m.Tensors[0].Rows *= 2 }, false},
		{"swapped records", func(m *Manifest, recs [][]byte) {
			recs[1], recs[2] = recs[2], recs[1]
			m.Records[1].CRC32, m.Records[2].CRC32 = m.Records[2].CRC32, m.Records[1].CRC32
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := buildTestSnapshot(t, testLayout, 1, 4, 77)
			m := *s.Manifest
			m.Records = append([]RecordInfo(nil), m.Records...)
			m.Tensors = append([]TensorSpec(nil), m.Tensors...)
			recs := append([][]byte(nil), s.Records...)
			tc.edit(&m, recs)
			mb, err := m.Encode()
			if err != nil {
				t.Fatal(err)
			}
			st := NewMemStore()
			if err := st.Put(ManifestKey(1), mb); err != nil {
				t.Fatal(err)
			}
			for rank, rec := range recs {
				if err := st.Put(RecordKey(1, rank), rec); err != nil {
					t.Fatal(err)
				}
			}
			got, err := Load(st, 1)
			if tc.loadFail {
				if !errors.Is(err, ErrManifest) {
					t.Fatalf("Load: err = %v, want ErrManifest", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			if _, err := got.Decode(); err == nil {
				t.Fatal("Decode accepted the snapshot")
			}
			if _, err := Reshard(got, Layout{Rows: 1, Cols: 1, SliceRows: 1, SliceCols: 1, Block: 1}); err == nil {
				t.Fatal("Reshard accepted the snapshot")
			}
		})
	}
}

// snapshotBytes flattens a snapshot into one byte string (manifest then
// records) for whole-artifact comparison.
func snapshotBytes(t *testing.T, s *Snapshot) []byte {
	t.Helper()
	mb, err := s.Manifest.Encode()
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte(nil), mb...)
	for _, rec := range s.Records {
		out = append(out, rec...)
	}
	return out
}

// validLayouts enumerates every layout on meshes up to maxDim whose slicing
// is compatible with the test tensor set (16×32 and 32×8 globals, block 2).
func validLayouts(maxDim int) []Layout {
	var out []Layout
	for rows := 1; rows <= maxDim; rows++ {
		for cols := 1; cols <= maxDim; cols++ {
			for _, sr := range []int{1, 2} {
				for _, sc := range []int{1, 2} {
					l := Layout{Rows: rows, Cols: cols, SliceRows: sr, SliceCols: sc, Block: 2}
					ok := true
					for _, dims := range [][2]int{{16, 32}, {32, 8}} {
						if l.CheckTensor("t", dims[0], dims[1]) != nil {
							ok = false
						}
					}
					if ok {
						out = append(out, l)
					}
				}
			}
		}
	}
	return out
}

// TestReshardRoundTripProperty is the resharding property test: for every
// valid (N, M, sr, sc) → (N′, M′, sr′, sc′) pair on small meshes, snapshot →
// reshard → reshard-back round-trips byte-identically (manifest and every
// record), and the resharded snapshot decodes to the same global tensors.
func TestReshardRoundTripProperty(t *testing.T) {
	layouts := validLayouts(4)
	if len(layouts) < 8 {
		t.Fatalf("only %d valid layouts enumerated", len(layouts))
	}
	for _, from := range layouts {
		src := buildTestSnapshot(t, from, 3, 6, 19)
		srcBytes := snapshotBytes(t, src)
		globals, _ := testState(t, from, 19)
		for _, to := range layouts {
			re, err := Reshard(src, to)
			if err != nil {
				t.Fatalf("Reshard %+v → %+v: %v", from, to, err)
			}
			if re.Manifest.Step != 6 || re.Manifest.Seed != 19 || re.Manifest.Epoch != 3 {
				t.Fatalf("reshard %+v → %+v changed identity: %+v", from, to, re.Manifest)
			}
			// The resharded records must hold exactly the source global
			// tensors, re-addressed.
			decoded, err := re.Decode()
			if err != nil {
				t.Fatalf("decode resharded %+v → %+v: %v", from, to, err)
			}
			for name, g := range globals {
				shards := tensor.Partition(g, to.Rows, to.Cols)
				for rank, want := range shards {
					nt := decoded[rank].Tensor(name)
					if nt == nil || !nt.Block.BitEqual(want) {
						t.Fatalf("reshard %+v → %+v: tensor %q rank %d not bit-identical", from, to, name, rank)
					}
				}
			}
			// Round trip back to the source layout: byte-identical.
			back, err := Reshard(re, from)
			if err != nil {
				t.Fatalf("Reshard back %+v → %+v: %v", to, from, err)
			}
			if !bytes.Equal(snapshotBytes(t, back), srcBytes) {
				t.Fatalf("reshard %+v → %+v → back not byte-identical", from, to)
			}
		}
	}
}

func TestReshardRejectsIncompatibleLayout(t *testing.T) {
	s := buildTestSnapshot(t, testLayout, 0, 2, 1)
	// 3 does not divide the 8-column w2 global evenly.
	if _, err := Reshard(s, Layout{Rows: 1, Cols: 3, SliceRows: 1, SliceCols: 1, Block: 2}); err == nil {
		t.Fatal("reshard onto incompatible mesh succeeded")
	}
}
