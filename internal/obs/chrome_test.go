package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"testing"
)

// The Chrome writer promises encoding/json's bytes without encoding/json.
// These tests hold it to that against the real encoder: strings and floats
// one value at a time, then whole traces against the struct-and-map form
// the exports used to be encoded from.

// randomJSONString draws a short byte string biased towards what the
// escaper must get right: control bytes, quotes and backslashes, HTML
// specials, multi-byte runes (U+2028/2029 among them), truncated and stray
// continuation bytes, and arbitrary high bytes.
func randomJSONString(rng *rand.Rand) string {
	pieces := []string{
		"\"", "\\", "<", ">", "&", "\u2028", "\u2029", "—", "→", "é", "\U0001F600", "\ufffd",
		"\xe2\x80", "\xe2", "\x80", "\xbf", "\xc0\xaf", "\xed\xa0\x80", "\xf4\x90\x80\x80", "\x7f", "a", "Z", " ",
	}
	var b []byte
	for n := rng.Intn(16); n > 0; n-- {
		switch rng.Intn(3) {
		case 0:
			b = append(b, byte(rng.Intn(256)))
		case 1:
			b = append(b, byte(rng.Intn(0x20)))
		default:
			b = append(b, pieces[rng.Intn(len(pieces))]...)
		}
	}
	return string(b)
}

// checkString compares both instantiations of appendJSONString with
// json.Marshal, which escapes HTML like json.Encoder's default.
func checkString(t *testing.T, s string) {
	t.Helper()
	want, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
		t.Fatalf("appendJSONString(%q) = %s, json.Marshal gives %s", s, got, want)
	}
	if got := appendJSONString([]byte("x"), []byte(s)); !bytes.Equal(got[1:], want) {
		t.Fatalf("appendJSONString([]byte(%q)) = %s, json.Marshal gives %s", s, got[1:], want)
	}
}

func TestChromeStringMatchesEncodingJSON(t *testing.T) {
	for c := 0; c < 256; c++ {
		checkString(t, string([]byte{byte(c)}))
		checkString(t, "a"+string([]byte{byte(c)})+"b")
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		checkString(t, randomJSONString(rng))
	}
}

func FuzzChromeString(f *testing.F) {
	for _, s := range []string{"", "chip 0 — MeshSlice-OS S=8", "<&>\"\\", "\b\f\n\r\t\x00\x1f\x7f", "\u2028\u2029", "\xff\xe2\x80", "send→3"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) { checkString(t, s) })
}

func checkFloat(t *testing.T, f float64) {
	t.Helper()
	want, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if got := appendJSONFloat(nil, f); !bytes.Equal(got, want) {
		t.Fatalf("appendJSONFloat(%v [%#x]) = %s, json.Marshal gives %s", f, math.Float64bits(f), got, want)
	}
}

func TestChromeFloatMatchesEncodingJSON(t *testing.T) {
	for _, f := range []float64{
		0, 1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1),
		1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)),
		math.SmallestNonzeroFloat64, math.MaxFloat64, 1e-7, 1e-10, 1.5e-300, 123456789.125, 5.2428799999999995,
	} {
		checkFloat(t, f)
		checkFloat(t, -f)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		checkFloat(t, f)
		checkFloat(t, rng.Float64()*math.Pow(10, float64(rng.Intn(50)-25)))
	}
}

func TestChromeNonFiniteWritesNothing(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, f := range []ChromeFields{{Ph: "X", TS: v}, {Ph: "X", Dur: v}, {Ph: "i", TS: v}} {
			c := NewChromeTrace(2)
			c.Event(ChromeFields{Ph: "X"}).Str("ok")
			c.Event(f).Str("bad").Arg("k").Str("v")
			var buf bytes.Buffer
			if err := c.Encode(&buf); err == nil || buf.Len() != 0 {
				t.Errorf("%+v: Encode returned %v and wrote %d bytes, want an error and nothing written", f, err, buf.Len())
			}
		}
	}
}

// jsonEvent and jsonMeta are the struct-and-map form the exports were
// encoded from before the writer; a nil Dur is an event without one, as the
// recorder's B/E/i/s/f events were.
type jsonEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  *float64          `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	ID   int               `json:"id,omitempty"`
	BP   string            `json:"bp,omitempty"`
	S    string            `json:"s,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

type jsonMeta struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// chromeCase is a random trace: the calls that write it into a trace
// presized for events, and the bytes json.Encoder prints for the same
// events.
type chromeCase struct {
	events int
	calls  []func(*ChromeTrace)
	want   []byte
}

// encode writes the case into a new trace and encodes it to w.
func (k *chromeCase) encode(w io.Writer) error {
	c := NewChromeTrace(k.events)
	for _, call := range k.calls {
		call(c)
	}
	return c.Encode(w)
}

// check requires the case's trace to encode to the encoder's bytes.
func (k *chromeCase) check(t *testing.T, what string) {
	t.Helper()
	var got bytes.Buffer
	if err := k.encode(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), k.want) {
		t.Fatalf("%s:\n got %s\nwant %s", what, got.Bytes(), k.want)
	}
}

// finish encodes the case's events with json.Encoder.
func (k *chromeCase) finish(t testing.TB, out []any) *chromeCase {
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(out); err != nil {
		t.Fatal(err)
	}
	k.want = want.Bytes()
	return k
}

// randomTrace draws meta, complete and instant/flow events, with and
// without ids, scopes and args, half the timestamps repeats.
func randomTrace(t testing.TB, rng *rand.Rand) *chromeCase {
	pick := func(opts ...string) string { return opts[rng.Intn(len(opts))] }
	k := &chromeCase{events: rng.Intn(4)}
	var out []any
	for n := rng.Intn(8); n > 0; n-- {
		name, pid, tid := randomJSONString(rng), rng.Intn(100), rng.Intn(5)
		ts := rng.Float64() * math.Pow(10, float64(rng.Intn(12)-4))
		if rng.Intn(2) == 0 { // a repeated value, copied from its earlier text
			ts = []float64{0, 1.5, 5.2428799999999995, 1e-7}[rng.Intn(4)]
		}
		switch rng.Intn(3) {
		case 0:
			kind := pick("process_name", "thread_name")
			out = append(out, jsonMeta{Name: kind, Ph: "M", PID: pid, TID: tid, Args: map[string]any{"name": name}})
			k.calls = append(k.calls, func(c *ChromeTrace) { c.Meta(kind, pid, tid).Str(name) })
			continue
		case 1:
			dur := rng.Float64()
			k.calls = append(k.calls, func(c *ChromeTrace) {
				c.Event(ChromeFields{Cat: "compute", Ph: "X", TS: ts, Dur: dur, PID: pid, TID: tid}).Str(name)
			})
			out = append(out, jsonEvent{Name: name, Cat: "compute", Ph: "X", TS: ts, Dur: &dur, PID: pid, TID: tid, Args: randomArgs(rng, k)})
		default:
			e := jsonEvent{Name: name, Cat: pick("span", "msg", "flow", ""), Ph: pick("B", "E", "i", "s", "f"), TS: ts, PID: pid, TID: tid,
				ID: rng.Intn(3), BP: pick("", "e"), S: pick("", "t")}
			f := ChromeFields{Cat: e.Cat, Ph: e.Ph, TS: e.TS, Dur: rng.Float64(), PID: pid, TID: tid, ID: e.ID, BP: e.BP, S: e.S}
			k.calls = append(k.calls, func(c *ChromeTrace) { c.Event(f).Str(name) })
			e.Args = randomArgs(rng, k)
			out = append(out, e)
		}
	}
	return k.finish(t, out)
}

// TestChromeTraceMatchesEncodingJSON writes seeded random traces through
// both the writer and json.Encoder, and requires equal bytes, including
// null for an empty trace.
func TestChromeTraceMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		randomTrace(t, rng).check(t, fmt.Sprintf("trial %d", trial))
	}
}

// randomArgs gives the case's open event zero to three args, in sorted key
// order with values composed of string and int pieces, and returns them as
// the map encoding/json would have been given (nil when there are none).
func randomArgs(rng *rand.Rand, k *chromeCase) map[string]string {
	keys := []string{"chip", "dir", "from", "kind", "shape", "step", "to", "<k>"}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	keys = keys[:rng.Intn(4)]
	sort.Strings(keys)
	var args map[string]string
	for _, key := range keys {
		s, n := randomJSONString(rng), rng.Intn(2000)-1000
		k.calls = append(k.calls, func(c *ChromeTrace) { c.Arg(key).Str(s).Int(n) })
		if args == nil {
			args = map[string]string{}
		}
		args[key] = s + strconv.Itoa(n)
	}
	return args
}

// randomReplayTrace interleaves random events with replays of random
// earlier ranges — the last event included, a range starting at the first
// event, empty ranges, pids of other digit counts — and gives json.Encoder
// the same events with the replayed ones' pid changed.
func randomReplayTrace(t testing.TB, rng *rand.Rand) *chromeCase {
	k := &chromeCase{events: rng.Intn(4)}
	var out []any
	for step := rng.Intn(12); step > 0; step-- {
		if n := len(out); n > 0 && rng.Intn(3) == 0 {
			from := rng.Intn(n + 1)
			to := from + rng.Intn(n-from+1)
			pid := []int{0, 7, 10, 123456, -3}[rng.Intn(5)]
			k.calls = append(k.calls, func(c *ChromeTrace) { c.Replay(from, to, pid) })
			for _, e := range out[from:to] {
				switch e := e.(type) {
				case jsonEvent:
					e.PID = pid
					out = append(out, e)
				case jsonMeta:
					e.PID = pid
					out = append(out, e)
				}
			}
			continue
		}
		name, pid, tid := randomJSONString(rng), rng.Intn(100), rng.Intn(5)
		if rng.Intn(3) == 0 {
			out = append(out, jsonMeta{Name: "thread_name", Ph: "M", PID: pid, TID: tid, Args: map[string]any{"name": name}})
			k.calls = append(k.calls, func(c *ChromeTrace) { c.Meta("thread_name", pid, tid).Str(name) })
			continue
		}
		ts, dur := rng.Float64(), rng.Float64()
		k.calls = append(k.calls, func(c *ChromeTrace) {
			c.Event(ChromeFields{Cat: "comm", Ph: "X", TS: ts, Dur: dur, PID: pid, TID: tid}).Str(name)
		})
		out = append(out, jsonEvent{Name: name, Cat: "comm", Ph: "X", TS: ts, Dur: &dur, PID: pid, TID: tid, Args: randomArgs(rng, k)})
	}
	return k.finish(t, out)
}

// TestChromeReplayMatchesEncodingJSON requires random traces with replays
// to encode to json.Encoder's bytes.
func TestChromeReplayMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 500; trial++ {
		randomReplayTrace(t, rng).check(t, fmt.Sprintf("trial %d", trial))
	}
}
