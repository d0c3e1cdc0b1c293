package obs

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// The snapshot writer promises the bytes of a json.Encoder with
// SetIndent("", "  ") without encoding/json. These tests hold both
// Snapshot.WriteJSON and Registry.WriteJSON to that against the encoder on
// registries built from arbitrary bytes.

// fuzzPieces are what names, label keys and values are made of: every
// escape class of a Chrome label (HTML specials, a multi-byte rune, a
// quote, a control byte, invalid UTF-8, a line separator), a backslash, a
// NUL, the bytes a canonical key is built with, and the empty string.
var fuzzPieces = []string{"", "a", "b", "k", "<&>", " — ", "\"", "\t", "\xff", "\u2028", "\\", "\x00", "=", ",", "{", "}"}

// fuzzBytes reads a registry recipe; past the end it reads zeros.
type fuzzBytes struct{ data []byte }

func (r *fuzzBytes) byte() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

// str is one to three pieces, or with the high bit set up to seven raw
// bytes.
func (r *fuzzBytes) str() string {
	n := r.byte()
	var b []byte
	if n&0x80 != 0 {
		for i := n & 7; i > 0; i-- {
			b = append(b, r.byte())
		}
		return string(b)
	}
	for i := n%3 + 1; i > 0; i-- {
		b = append(b, fuzzPieces[int(r.byte())%len(fuzzPieces)]...)
	}
	return string(b)
}

// key draws a label key from few pieces, so keys repeat within a metric.
func (r *fuzzBytes) key() string { return fuzzPieces[int(r.byte())%6] }

func (r *fuzzBytes) float() float64 {
	switch b := r.byte(); b % 10 {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.NaN()
	case 3:
		return math.Inf(1)
	case 4:
		return math.Inf(-1)
	case 5:
		return 1e-7
	case 6:
		return 1e21
	case 7:
		return float64(b) / 8
	default:
		var w [8]byte
		for i := range w {
			w[i] = r.byte()
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(w[:]))
	}
}

// fuzzRegistry builds a registry from data: counters, gauges, histograms
// (zero to three bounds) and series (possibly empty), each with zero to
// three labels whose keys may repeat, holding any float including NaN and
// ±Inf.
func fuzzRegistry(data []byte) *Registry {
	r, in := NewRegistry(), &fuzzBytes{data}
	for len(in.data) > 0 {
		op, name := in.byte(), in.str()
		labels := make([]Label, in.byte()%4)
		for i := range labels {
			labels[i] = L(in.key(), in.str())
		}
		switch op % 4 {
		case 0:
			r.Counter(name, labels...).Add(math.Abs(in.float()))
		case 1:
			r.Gauge(name, labels...).Set(in.float())
		case 2:
			bounds := make([]float64, in.byte()%4)
			for i := range bounds {
				bounds[i] = float64(i) + float64(in.byte())/256
			}
			func() {
				defer func() { recover() }() // re-registered with other bounds
				h := r.Histogram(name, bounds, labels...)
				for n := in.byte() % 3; n > 0; n-- {
					h.Observe(in.float())
				}
			}()
		default:
			s := r.Series(name, labels...)
			for n := in.byte() % 3; n > 0; n-- {
				s.Append(in.float(), in.float())
			}
		}
	}
	return r
}

// reshape gives a snapshot what a registry never produces: empty but
// non-nil sections, label maps and slices, and nil counts.
func reshape(s Snapshot, flags byte) Snapshot {
	if flags&1 != 0 && s.Counters == nil {
		s.Counters = []CounterPoint{}
	}
	if flags&2 != 0 && len(s.Gauges) > 0 {
		s.Gauges = append([]GaugePoint(nil), s.Gauges...)
		s.Gauges[0].Labels = map[string]string{}
	}
	if flags&4 != 0 && len(s.Histograms) > 0 {
		s.Histograms = append([]HistogramPoint(nil), s.Histograms...)
		s.Histograms[0].Bounds, s.Histograms[0].Counts = []float64{}, nil
	}
	if flags&8 != 0 && len(s.Series) > 0 {
		s.Series = append([]SeriesPoint(nil), s.Series...)
		s.Series[0].X = []float64{}
	}
	return s
}

// checkSnapshotJSON requires write to give the encoder's bytes for s, or an
// error and no bytes when the encoder fails.
func checkSnapshotJSON(t *testing.T, what string, s Snapshot, write func(*bytes.Buffer) error) {
	t.Helper()
	var want, got bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	wantErr := enc.Encode(s)
	err := write(&got)
	if (err != nil) != (wantErr != nil) || !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("%s: wrote %d bytes, error %v; encoding/json wrote %d, error %v\n got %q\nwant %q",
			what, got.Len(), err, want.Len(), wantErr, got.Bytes(), want.Bytes())
	}
}

func checkSnapshotBytes(t *testing.T, data []byte) {
	t.Helper()
	r := fuzzRegistry(data)
	snap := r.Snapshot()
	checkSnapshotJSON(t, "Registry.WriteJSON", snap, func(b *bytes.Buffer) error { return r.WriteJSON(b) })
	checkSnapshotJSON(t, "Snapshot.WriteJSON", snap, func(b *bytes.Buffer) error { return snap.WriteJSON(b) })
	var flags byte
	if len(data) > 0 {
		flags = data[len(data)-1]
	}
	snap = reshape(snap, flags)
	checkSnapshotJSON(t, "reshaped Snapshot.WriteJSON", snap, func(b *bytes.Buffer) error { return snap.WriteJSON(b) })
}

func TestSnapshotMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3000; trial++ {
		data := make([]byte, rng.Intn(96))
		rng.Read(data)
		checkSnapshotBytes(t, data)
	}
}

func FuzzSnapshotJSON(f *testing.F) {
	for _, seed := range [][]byte{
		nil, // an empty registry: {}
		{1, 2, 4, 5, 6, 3, 1, 0, 7, 1, 0, 8, 3, 0, 9, 7}, // escapes, a duplicate label key
		{1, 0, 1, 0, 2}, // a NaN gauge
		{0, 0, 2, 0, 3}, // a +Inf counter
		{2, 0, 3, 0, 0, 0, 2, 0, 1, 1, 2, 0, 1, 2, 10, 20, 2, 7, 5},  // histograms with no and two bounds
		{3, 0, 1, 0, 0, 3, 0x83, 0xc3, 0x28, 0x22, 0, 1, 7, 1, 0x0f}, // an empty series, a raw name, every reshape
	} {
		f.Add(seed)
	}
	f.Fuzz(checkSnapshotBytes)
}

// TestConcurrentRegisterAndWrite registers, looks up and updates labeled
// metrics from several goroutines while others write the registry, as the
// mesh's chip goroutines do; every registration of one identity must find
// one instrument, and the final bytes must still be encoding/json's.
func TestConcurrentRegisterAndWrite(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				chip := L("chip", PadInt(i%4, 4))
				r.Counter("ops", L("kind", "ag"), chip).AddInt(1)
				r.Series("trail", chip).Append(float64(g), float64(i))
				if i%50 == 0 {
					if err := r.WriteJSON(io.Discard); err != nil {
						t.Error(err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	snap := r.Snapshot()
	if len(snap.Counters) != 4 || len(snap.Series) != 4 {
		t.Fatalf("%d counters and %d series, want 4 of each", len(snap.Counters), len(snap.Series))
	}
	for _, c := range snap.Counters {
		if c.Value != 400 {
			t.Errorf("%s%v = %v, want 400", c.Name, c.Labels, c.Value)
		}
	}
	checkSnapshotJSON(t, "Registry.WriteJSON", snap, func(b *bytes.Buffer) error { return r.WriteJSON(b) })
}
