package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// heldExport is one export through the package's held buffer and the bytes
// it must write; a nil want is an export that must fail and write nothing.
type heldExport struct {
	name  string
	write func(io.Writer) error
	want  []byte
}

// heldExports returns Chrome exports, with replays, drawn as
// TestChromeReplayMatchesEncodingJSON draws them, beside the Registry and
// Snapshot JSON of seeded random registries, some of which hold a NaN or an
// infinity. Their sizes differ, so a later export often runs in a buffer an
// earlier, larger one left its bytes in.
func heldExports(t *testing.T) []heldExport {
	var exports []heldExport
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		k := randomReplayTrace(t, rng)
		exports = append(exports, heldExport{"Chrome replay trace", k.encode, k.want})
	}
	rng = rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		data := make([]byte, rng.Intn(256))
		rng.Read(data)
		r := fuzzRegistry(data)
		snap := r.Snapshot()
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		var w []byte // nil after an encoder error: nothing may be written
		if enc.Encode(snap) == nil {
			w = buf.Bytes()
		}
		exports = append(exports,
			heldExport{"Registry.WriteJSON", r.WriteJSON, w},
			heldExport{"Snapshot.WriteJSON", snap.WriteJSON, w})
	}
	return exports
}

// poisonHeld fills what the package holds with bytes no export writes.
func poisonHeld() {
	b := heldBuf.Take(0)
	b = b[:cap(b)]
	for i := range b {
		b[i] = 0xff
	}
	heldBuf.Give(b)
	at := heldAt.Take(0)
	at = at[:cap(at)]
	for i := range at {
		at[i] = chromeAt{start: -1, pid: -1}
	}
	heldAt.Give(at)
}

// runHeld runs each export once, poisoning the held buffer before each, and
// requires its bytes, or an error and nothing written where it must fail.
func runHeld(t *testing.T, how string, exports []heldExport) {
	for i, e := range exports {
		poisonHeld()
		var got bytes.Buffer
		err := e.write(&got)
		if e.want == nil {
			if err == nil || got.Len() != 0 {
				t.Errorf("%s, export %d (%s): error %v and %d bytes, want an error and nothing written", how, i, e.name, err, got.Len())
			}
			continue
		}
		if err != nil || !bytes.Equal(got.Bytes(), e.want) {
			t.Errorf("%s, export %d (%s): error %v,\n got %q\nwant %q", how, i, e.name, err, got.Bytes(), e.want)
		}
	}
}

// TestHeldBufferCannotChangeTheBytes runs the Chrome and snapshot exports
// forwards, backwards and from two goroutines at once, filling the held
// buffer and event index with 0xff and -1 before every export: whatever an
// earlier export left there, each export writes exactly its own bytes.
// Run it with -race after touching internal/held.
func TestHeldBufferCannotChangeTheBytes(t *testing.T) {
	exports := heldExports(t)
	if !slices.ContainsFunc(exports, func(e heldExport) bool { return e.want == nil }) {
		t.Fatal("no export fails; want some snapshots to hold a NaN or an infinity")
	}
	runHeld(t, "forwards", exports)
	reversed := slices.Clone(exports)
	slices.Reverse(reversed)
	runHeld(t, "backwards", reversed)
	var wg sync.WaitGroup
	for _, order := range [][]heldExport{exports, reversed} {
		wg.Add(1)
		go func(order []heldExport) {
			defer wg.Done()
			runHeld(t, "concurrently", order)
		}(order)
	}
	wg.Wait()
}

// TestNonFiniteExportLeavesTheNextExportFresh puts a failing Chrome export
// and a failing snapshot export between good ones: each fails and writes
// nothing, and the export after it writes the bytes it writes with nothing
// held.
func TestNonFiniteExportLeavesTheNextExportFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	big := randomReplayTrace(t, rng)
	for len(big.want) < 1<<10 {
		big = randomReplayTrace(t, rng)
	}
	small := &chromeCase{calls: []func(*ChromeTrace){func(c *ChromeTrace) { c.Event(ChromeFields{Ph: "X"}).Str("ok") }}}
	small.finish(t, []any{jsonEvent{Name: "ok", Ph: "X", Dur: new(float64)}})
	nanTrace := func(w io.Writer) error {
		c := NewChromeTrace(2)
		c.Event(ChromeFields{Ph: "X"}).Str("ok")
		c.Event(ChromeFields{Ph: "X", Dur: math.NaN()}).Str("bad")
		return c.Encode(w)
	}
	nanReg := NewRegistry()
	nanReg.Gauge("ok").Set(1)
	nanReg.Gauge("bad").Set(math.Inf(1))
	okReg := NewRegistry()
	okReg.Gauge("ok").Set(1)
	var fresh bytes.Buffer
	heldBuf.Take(0) // empty the stores: the next export starts fresh
	heldAt.Take(0)
	if err := okReg.WriteJSON(&fresh); err != nil {
		t.Fatal(err)
	}
	runHeld(t, "around a failing export", []heldExport{
		{"large Chrome trace", big.encode, big.want},
		{"NaN Chrome trace", nanTrace, nil},
		{"small Chrome trace", small.encode, small.want},
		{"large Chrome trace", big.encode, big.want},
		{"+Inf Registry.WriteJSON", nanReg.WriteJSON, nil},
		{"Registry.WriteJSON", okReg.WriteJSON, fresh.Bytes()},
	})
}

// TestRegistryWriteAllocatesNoBuffer holds a warm Registry.WriteJSON to its
// four sorted instrument lists: it writes 1,024 labeled gauges and series
// of 256 points, over 150 KB, into the held buffer and allocates at most
// 32 KiB, where a fresh buffer would be the size of the output.
func TestRegistryWriteAllocatesNoBuffer(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 1024; i++ {
		r.Gauge("busy_seconds", L("chip", PadInt(i, 1024)), L("dir", "row")).Set(float64(i) / 3)
	}
	for i := 0; i < 4; i++ {
		s := r.Series("trail", L("run", PadInt(i, 4)))
		for x := 0; x < 256; x++ {
			s.Append(float64(x), float64(x*i)/7)
		}
	}
	var out bytes.Buffer
	if err := r.WriteJSON(&out); err != nil {
		t.Fatal(err)
	}
	best := uint64(math.MaxUint64)
	var ms runtime.MemStats
	for range 5 {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		if err := r.WriteJSON(io.Discard); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		best = min(best, ms.TotalAlloc-before)
	}
	t.Logf("warm Registry.WriteJSON: %d bytes written, %d allocated", out.Len(), best)
	if out.Len() < 150e3 {
		t.Fatalf("the registry writes %d bytes, want over 150 KB", out.Len())
	}
	if best > 32<<10 {
		t.Errorf("a warm Registry.WriteJSON allocates %d bytes, want <= 32 KiB (the held buffer is not reused)", best)
	}
}
