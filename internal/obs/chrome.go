package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"

	"meshslice/internal/held"
)

// ChromeTrace appends one Chrome trace-event JSON array (Perfetto) into a
// byte slice, allocating nothing per event: the bytes json.Encoder.Encode
// prints for structs keyed name, cat, ph, ts, dur, pid, tid, id, bp, s,
// args (the last four omitempty, args a string map). Event or Meta opens an
// event; Str and Int compose a string — its name, then each Arg's value —
// escaped whole when the next call closes it. Args go in sorted key order,
// as encoding/json orders map keys.
type ChromeTrace struct {
	b, str []byte // the array so far; the open string, unescaped
	at     []chromeAt
	fields ChromeFields
	named  bool // the open string is an event's name; fields follow it
	args   bool // the open event has an args object
	closed bool // there is no open event
	events int
	err    error // set by a non-finite ts or dur
	// floats maps a hash of a value's bits to where it was last written in
	// b: the chips of a symmetric mesh share most ts and dur values.
	floats [1024]struct{ bits, off, n uint64 }
}

// chromeAt is where an event starts in the array and where its pid does.
type chromeAt struct{ start, pid int }

// ChromeFields are an event's fields after its name.
type ChromeFields struct {
	Cat, Ph  string
	TS, Dur  float64 // microseconds; Dur is written for complete ("X") events only
	PID, TID int
	ID       int    // flow id, omitted when 0
	BP, S    string // flow binding point and instant scope, omitted when empty
}

// NewChromeTrace returns an empty trace presized for events events of 160
// bytes, more than a simulator event (two 17-digit floats, one arg) takes.
func NewChromeTrace(events int) *ChromeTrace {
	return &ChromeTrace{b: append(heldBuf.Take(events*160 + 2)[:0], '['), str: make([]byte, 0, 64), at: heldAt.Take(events)[:0], closed: true}
}

// heldBuf is the buffer the package's two document writers, ChromeTrace
// and snapshotJSON, build their bytes in, and heldAt ChromeTrace's event
// index, kept between exports so that an export does not allocate and
// zero them afresh. A writer takes them when it starts and gives them back
// once its one Write has returned, which io.Writer forbids to retain them;
// a concurrent writer allocates its own.
var (
	heldBuf held.Store[byte]
	heldAt  held.Store[chromeAt]
)

// Event opens an event with fields f; Str and Int then compose its name.
func (c *ChromeTrace) Event(f ChromeFields) *ChromeTrace {
	c.open()
	c.fields, c.named = f, true
	return c
}

// Meta opens a metadata event of kind "process_name" or "thread_name" for
// process pid, track tid; Str and Int then compose the name it gives.
func (c *ChromeTrace) Meta(kind string, pid, tid int) *ChromeTrace {
	c.open()
	b := append(appendJSONString(c.b, kind), `,"ph":"M","pid":`...)
	c.at[c.events-1].pid = len(b)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = strconv.AppendInt(append(b, `,"tid":`...), int64(tid), 10)
	c.b, c.args = append(b, `,"args":{"name":`...), true
	return c
}

// Arg adds key to the open event's args; Str and Int then compose its value.
func (c *ChromeTrace) Arg(key string) *ChromeTrace {
	c.closeString()
	if c.args {
		c.b = append(c.b, ',')
	} else {
		c.b, c.args = append(c.b, `,"args":{`...), true
	}
	c.b = append(appendJSONString(c.b, key), ':')
	return c
}

// Str appends s to the open string.
func (c *ChromeTrace) Str(s string) *ChromeTrace {
	c.str = append(c.str, s...)
	return c
}

// Int appends n in decimal to the open string.
func (c *ChromeTrace) Int(n int) *ChromeTrace {
	c.str = strconv.AppendInt(c.str, int64(n), 10)
	return c
}

// Events returns the number of events so far: the index of the next one.
func (c *ChromeTrace) Events() int { return c.events }

// Replay closes the open event and appends copies of events [from, to)
// with their pid set to pid, every other byte as first written.
func (c *ChromeTrace) Replay(from, to, pid int) {
	c.closeEvent()
	last := len(c.b) // where the last event ends
	for i := from; i < to; i++ {
		at, end := c.at[i], last
		if i+1 < c.events {
			end = c.at[i+1].start - 1 // before the comma
		}
		rest := at.pid + bytes.IndexByte(c.b[at.pid:], ',') // a pid is followed by ,"tid":
		c.b = append(c.b, ',')
		c.at = append(c.at, chromeAt{start: len(c.b), pid: len(c.b) + at.pid - at.start})
		c.b = strconv.AppendInt(append(c.b, c.b[at.start:at.pid]...), int64(pid), 10)
		c.b = append(c.b, c.b[rest:end]...)
	}
	c.events += to - from
}

// Encode ends the array and writes it to w in one Write call, as
// json.Encoder.Encode would: the array, or null when there are no events,
// then a newline. A NaN or infinite ts or dur makes it return an error and
// write nothing. The trace takes no events after Encode, which gives its
// buffers back to the package.
func (c *ChromeTrace) Encode(w io.Writer) error {
	if c.events == 0 {
		c.b = append(c.b[:0], "null"...)
	} else {
		c.closeEvent() // its ts and dur may be the non-finite ones
		c.b = append(c.b, ']')
	}
	err := c.err
	if err == nil {
		c.b = append(c.b, '\n')
		_, err = w.Write(c.b)
	}
	heldBuf.Give(c.b)
	heldAt.Give(c.at)
	c.b, c.at = nil, nil
	return err
}

// open closes the previous event and starts the next one's name.
func (c *ChromeTrace) open() {
	if c.events > 0 {
		c.closeEvent()
		c.b = append(c.b, ',')
	}
	c.events++
	c.closed = false
	c.at = append(c.at, chromeAt{start: len(c.b)})
	c.b = append(c.b, `{"name":`...)
}

func (c *ChromeTrace) closeEvent() {
	if c.closed {
		return
	}
	c.closed = true
	c.closeString()
	if c.args {
		c.b, c.args = append(c.b, '}'), false
	}
	c.b = append(c.b, '}')
}

// closeString escapes the open string (an open event always has one), then
// the fields if it was the name, storing c.b once (a GC write barrier).
func (c *ChromeTrace) closeString() {
	b := appendJSONString(c.b, c.str)
	c.str = c.str[:0]
	if f := &c.fields; c.named {
		c.named = false
		b = appendJSONString(append(b, `,"cat":`...), f.Cat)
		b = appendJSONString(append(b, `,"ph":`...), f.Ph)
		b = c.appendFloat(append(b, `,"ts":`...), f.TS)
		if f.Ph == "X" {
			b = c.appendFloat(append(b, `,"dur":`...), f.Dur)
		}
		b = append(b, `,"pid":`...)
		c.at[c.events-1].pid = len(b)
		b = strconv.AppendInt(b, int64(f.PID), 10)
		b = strconv.AppendInt(append(b, `,"tid":`...), int64(f.TID), 10)
		if f.ID != 0 {
			b = strconv.AppendInt(append(b, `,"id":`...), int64(f.ID), 10)
		}
		if f.BP != "" {
			b = appendJSONString(append(b, `,"bp":`...), f.BP)
		}
		if f.S != "" {
			b = appendJSONString(append(b, `,"s":`...), f.S)
		}
	}
	c.b = b
}

// appendFloat is appendJSONFloat, copying a repeated value's earlier text
// and recording a non-finite f as c.err.
func (c *ChromeTrace) appendFloat(b []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		c.err = fmt.Errorf("obs: Chrome trace has unsupported value %v", f)
		return b
	}
	bits := math.Float64bits(f)
	e := &c.floats[bits*0x9e3779b97f4a7c15>>54]
	if e.n > 0 && e.bits == bits {
		return append(b, b[e.off:e.off+e.n]...)
	}
	e.bits, e.off = bits, uint64(len(b))
	b = appendJSONFloat(b, f)
	e.n = uint64(len(b)) - e.off
	return b
}

// appendJSONFloat formats f as encoding/json does: shortest 'f', or 'e'
// below 1e-6 and from 1e21 with e-07 written e-7.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) { // lint:float-exact zero stays 'f', as in encoding/json
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b = append(b[:n-2], b[n-1])
	}
	return b
}

// appendJSONString quotes s as encoding/json does with HTML escaping on: "
// \ \b \f \n \r \t as two-byte escapes; other control bytes, < > & and
// U+2028/2029 as \u escapes; each invalid UTF-8 byte as \ufffd.
func appendJSONString[S string | []byte](b []byte, s S) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		r, size := rune(s[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		}
		if r >= 0x20 && r != '"' && r != '\\' && r != '<' && r != '>' && r != '&' &&
			r != '\u2028' && r != '\u2029' && (r != utf8.RuneError || size > 1) {
			i += size
			continue
		}
		b = append(b, s[start:i]...)
		if j := strings.IndexRune("\"\\\b\f\n\r\t", r); j >= 0 {
			b = append(b, '\\', `"\bfnrt`[j])
		} else if r == utf8.RuneError {
			b = append(b, `\ufffd`...)
		} else {
			b = append(b, '\\', 'u', hex[r>>12&0xF], hex[r>>8&0xF], hex[r>>4&0xF], hex[r&0xF])
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}
