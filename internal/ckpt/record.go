package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"meshslice/internal/tensor"
)

// recordMagic opens every per-chip record; recordFormat is bumped on any
// change to the byte layout so stale artifacts fail loudly instead of
// decoding garbage.
const (
	recordMagic  = "MSCK"
	recordFormat = 1
)

// NamedTensor pairs a tensor name with this chip's local contiguous block
// of it (rows/Layout.Rows × cols/Layout.Cols of the global tensor) and the
// global shape, which the record carries so decode needs no side channel.
type NamedTensor struct {
	Name string
	// Rows, Cols are the GLOBAL tensor dimensions.
	Rows, Cols int
	// Block is this chip's local contiguous block.
	Block *tensor.Matrix
}

// RecordData is a decoded per-chip record: the identity of the shard plus
// the training-state scalars every chip snapshots (global step counter and
// the run's RNG seed, so a resumed run regenerates the exact data stream).
type RecordData struct {
	Rank int
	Step int
	Seed int64
	// Tensors holds this chip's blocks, sorted by name (the canonical
	// record order).
	Tensors []NamedTensor
}

// Tensor returns the named block, or nil when absent.
func (r *RecordData) Tensor(name string) *NamedTensor {
	for i := range r.Tensors {
		if r.Tensors[i].Name == name {
			return &r.Tensors[i]
		}
	}
	return nil
}

// EncodeRecord serializes one chip's shards into the canonical byte-stable
// record format:
//
//	"MSCK" | format u32 | rank u32 | step u64 | seed u64
//	| layout (rows, cols, slice_rows, slice_cols, block) 5×u32
//	| ntensors u32
//	| per tensor, sorted by name:
//	|   namelen u32 | name | global rows u32 | global cols u32
//	|   | payload: float64 bit patterns, big-endian
//
// The payload stores the chip's block in sliced form — for each row-slice i
// and column-slice j (row-major over (i, j)), the bytes of
// SliceCol(SliceRow(block, SliceRows, i, Block), SliceCols, j, Block) — so
// the on-disk order is the MeshSlice transfer order. payloadRuns walks that
// order over the block itself, so encode writes and decode reads the block
// in place, with no sliced intermediates. Tensors are sorted by name before
// emission, so the same state always produces the same bytes regardless of
// the order the caller listed them in.
func EncodeRecord(l Layout, rank, step int, seed int64, tensors []NamedTensor) ([]byte, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	if rank < 0 || rank >= l.Chips() {
		return nil, fmt.Errorf("ckpt: rank %d outside %dx%d mesh", rank, l.Rows, l.Cols)
	}
	if step < 0 {
		return nil, fmt.Errorf("ckpt: negative step %d", step)
	}
	ts := slices.Clone(tensors)
	slices.SortFunc(ts, func(a, b NamedTensor) int { return strings.Compare(a.Name, b.Name) })
	size := len(recordMagic) + 4 + 4 + 8 + 8 + 5*4 + 4
	for i, t := range ts {
		if i > 0 && ts[i-1].Name == t.Name {
			return nil, fmt.Errorf("ckpt: duplicate tensor %q", t.Name)
		}
		if err := l.CheckTensor(t.Name, t.Rows, t.Cols); err != nil {
			return nil, err
		}
		if t.Block == nil || t.Block.Rows != t.Rows/l.Rows || t.Block.Cols != t.Cols/l.Cols {
			return nil, fmt.Errorf("ckpt: tensor %q block mismatch for %dx%d over %dx%d mesh", t.Name, t.Rows, t.Cols, l.Rows, l.Cols)
		}
		size += 4 + len(t.Name) + 4 + 4 + 8*t.Block.Rows*t.Block.Cols
	}
	buf := make([]byte, 0, size)
	buf = append(buf, recordMagic...)
	buf = be32(buf, recordFormat)
	buf = be32(buf, rank)
	buf = binary.BigEndian.AppendUint64(buf, uint64(step))
	buf = binary.BigEndian.AppendUint64(buf, uint64(seed))
	for _, v := range []int{l.Rows, l.Cols, l.SliceRows, l.SliceCols, l.Block} {
		buf = be32(buf, v)
	}
	buf = be32(buf, len(ts))
	for _, t := range ts {
		buf = be32(buf, len(t.Name))
		buf = append(buf, t.Name...)
		buf = be32(buf, t.Rows)
		buf = be32(buf, t.Cols)
		n := len(buf)
		buf = buf[:n+8*len(t.Block.Data)]
		p := buf[n:]
		payloadRuns(l, t.Block, func(run []float64) {
			for e, v := range run {
				binary.BigEndian.PutUint64(p[8*e:], math.Float64bits(v))
			}
			p = p[8*len(run):]
		})
	}
	return buf, nil
}

// payloadRuns calls fn on every contiguous run of blk's storage in record
// payload order: row-slice i, then column-slice j, then the rows of that
// sub-shard top to bottom (Algorithm 2's blocked row slicing: every
// SliceRows-th run of Block rows), and within a row its Block-wide column
// runs left to right. That is the element order of
// SliceCol(SliceRow(blk, SliceRows, i, Block), SliceCols, j, Block), so
// EncodeRecord and DecodeRecord share one definition of the byte layout.
// Without column slicing a row's runs are adjacent, and each row is one run.
// blk must satisfy l.CheckTensor's divisibility.
func payloadRuns(l Layout, blk *tensor.Matrix, fn func(run []float64)) {
	rowGroups := blk.Rows / (l.SliceRows * l.Block)
	colGroups := blk.Cols / (l.SliceCols * l.Block)
	for i := 0; i < l.SliceRows; i++ {
		for j := 0; j < l.SliceCols; j++ {
			for g := 0; g < rowGroups; g++ {
				for b := 0; b < l.Block; b++ {
					row := blk.Row((g*l.SliceRows+i)*l.Block + b)
					if l.SliceCols == 1 {
						fn(row)
						continue
					}
					for h := 0; h < colGroups; h++ {
						lo := (h*l.SliceCols + j) * l.Block
						fn(row[lo : lo+l.Block])
					}
				}
			}
		}
	}
}

// ErrTruncated is wrapped by every error that reports a record ending
// before its header or payload does.
var ErrTruncated = errors.New("ckpt: truncated record")

// DecodeRecord parses a record back into the chip's unsliced blocks. The
// layout argument must match the one the record was encoded with (it is
// cross-checked against the embedded copy). A tensor's block is allocated
// only once the record is known to hold its whole payload, so a header that
// declares more data than follows fails with ErrTruncated before any
// allocation.
func DecodeRecord(l Layout, data []byte) (*RecordData, error) {
	return readRecord(l, data, true)
}

// readRecord parses a record under l, making every check DecodeRecord
// makes. With blocks false it walks the headers only: each payload is
// length-checked and skipped, and the tensors it returns carry no Block.
func readRecord(l Layout, data []byte, blocks bool) (*RecordData, error) {
	d := &decoder{buf: data}
	if string(d.take(len(recordMagic))) != recordMagic {
		return nil, fmt.Errorf("ckpt: bad record magic")
	}
	if f := d.u32(); f != recordFormat {
		return nil, fmt.Errorf("ckpt: record format %d, want %d", f, recordFormat)
	}
	out := &RecordData{Rank: d.u32(), Step: int(d.u64()), Seed: int64(d.u64())}
	got := Layout{d.u32(), d.u32(), d.u32(), d.u32(), d.u32()}
	if d.err != nil {
		return nil, d.err
	}
	if got != l {
		return nil, fmt.Errorf("ckpt: record layout %+v, want %+v", got, l)
	}
	// The identity checks EncodeRecord makes, so every record that decodes
	// re-encodes to its own bytes.
	if out.Rank >= l.Chips() {
		return nil, fmt.Errorf("ckpt: rank %d outside %dx%d mesh", out.Rank, l.Rows, l.Cols)
	}
	if out.Step < 0 {
		return nil, fmt.Errorf("ckpt: negative step %d", out.Step)
	}
	n := d.u32()
	for k := 0; k < n && d.err == nil; k++ {
		name := string(d.take(d.u32()))
		rows, cols := d.u32(), d.u32()
		if err := l.CheckTensor(name, rows, cols); err != nil {
			return nil, err
		}
		br, bc := rows/l.Rows, cols/l.Cols
		p := d.payload(br, bc)
		var block *tensor.Matrix
		if blocks && p != nil {
			block = tensor.New(br, bc)
			payloadRuns(l, block, func(run []float64) {
				for e := range run {
					run[e] = math.Float64frombits(binary.BigEndian.Uint64(p[8*e:]))
				}
				p = p[8*len(run):]
			})
		}
		out.Tensors = append(out.Tensors, NamedTensor{Name: name, Rows: rows, Cols: cols, Block: block})
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.buf) != d.off {
		return nil, fmt.Errorf("ckpt: %d trailing bytes in record", len(d.buf)-d.off)
	}
	for i := 1; i < len(out.Tensors); i++ {
		if out.Tensors[i-1].Name >= out.Tensors[i].Name {
			return nil, fmt.Errorf("ckpt: record tensors not in canonical name order")
		}
	}
	return out, nil
}

func be32(buf []byte, v int) []byte {
	return binary.BigEndian.AppendUint32(buf, uint32(v))
}

// decoder is a bounds-checked cursor over a record; the first short read
// latches err and turns every later call into a no-op.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) take(n int) []byte {
	if d.err != nil || n < 0 || d.off+n > len(d.buf) {
		if d.err == nil {
			d.err = fmt.Errorf("%w at byte %d", ErrTruncated, d.off)
		}
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// payload takes the bytes of a rows×cols float64 block. The length check
// divides instead of multiplying, so no declared shape can overflow it. A
// short payload latches the truncation error at its first missing element,
// the byte an element-by-element read would have stopped at.
func (d *decoder) payload(rows, cols int) []byte {
	if d.err != nil {
		return nil
	}
	elems := (len(d.buf) - d.off) / 8
	if rows > elems/cols {
		d.off += 8 * elems
		return d.take(8)
	}
	return d.take(8 * rows * cols)
}

func (d *decoder) u32() int {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return int(binary.BigEndian.Uint32(b))
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}
