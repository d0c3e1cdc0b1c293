// Package kernels is a fixture for the hotpath-alloc rule: functions
// annotated lint:hotpath — and everything they transitively call — must
// not allocate, with panic-only blocks exempt and a declaration-level
// lint:allow hotpath-alloc stopping the descent.
package kernels

import "fmt"

// Matrix stands in for tensor.Matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// AxpyRows is a hot-path root; its direct body is clean, but the helpers
// it calls are checked transitively.
// lint:hotpath inner loops must not allocate
func AxpyRows(dst, src *Matrix, alpha float64) {
	if dst.Rows < 0 {
		// Doomed block: every path from here panics, so building the panic
		// message is exempt from the allocation rule.
		panic(fmt.Sprintf("bad rows %d", dst.Rows)) // lint:invariant shape precondition
	}
	for i := range dst.Data {
		dst.Data[i] += alpha * src.Data[i]
	}
	scratch(dst)
	box(dst.Rows)
	metrics(dst)
}

// Concat is a hot-path root with direct violations.
// lint:hotpath
func Concat(prefix, name string, rows []float64) string {
	s := prefix + name                        // want "string concatenation in hot-path function kernels.Concat"
	tmp := &Matrix{Data: rows}                // want "heap allocation"
	closure := func() int { return tmp.Rows } // want "capturing closure"
	_ = closure
	return s
}

// scratch is one hop from a root: its allocations count against the root.
func scratch(m *Matrix) {
	tmp := make([]float64, m.Cols) // want "call to make in hot-path function kernels.scratch"
	tmp = append(tmp, 1)           // want "call to append"
	_ = tmp
	deeper(m)
}

// deeper is two hops from a root: still on the hot path.
func deeper(m *Matrix) {
	_ = []byte(sink) // want "string/\\[\\]byte conversion"
	_ = m
}

var sink = "x"

// box passes a concrete value to an interface parameter.
func box(v int) {
	consume(v) // want "interface boxing of int argument"
}

func consume(x any) { _ = x }

// metrics is deliberately cold (think nil-gated observability): the
// declaration-level allow exempts it and stops the descent into callees.
// lint:allow hotpath-alloc nil-gated off the hot path
func metrics(m *Matrix) {
	labels := make([]string, 0, 2)
	labels = append(labels, "rows")
	_ = labels
}

// Cold is not annotated and not reachable from a root: allocations here
// are fine.
func Cold(n int) []int {
	out := make([]int, n)
	return out
}

func (m *Matrix) CopyFrom(o *Matrix) {}

// Comm mimics the mesh communicator so the fixture can shape a ring
// collective exactly like collective.AllGatherRowsInto.
type Comm struct{ Size, Pos int }

var recvScratch = &Matrix{}

func (cm *Comm) SendOwnedTo(pos int, m *Matrix) {}
func (cm *Comm) RecvFrom(pos int) *Matrix       { return recvScratch }
func (cm *Comm) ReleaseBuf(m *Matrix)           {}

// lint:allow hotpath-alloc pool miss allocates by design, mirroring the real arena
func (cm *Comm) AcquireBuf(rows, cols int) *Matrix { return &Matrix{Rows: rows, Cols: cols} }

// RingGatherInto is an annotated *Into-style ring collective with an
// allocation planted inside the per-step loop — the exact regression the
// rule exists to catch.
// lint:hotpath ring steady state must not allocate
func RingGatherInto(cm *Comm, local *Matrix, out []*Matrix) {
	cur := cm.AcquireBuf(local.Rows, local.Cols)
	cur.CopyFrom(local)
	for t := 0; t < cm.Size-1; t++ {
		cm.SendOwnedTo(cm.Pos+1, cur)
		cur = cm.RecvFrom(cm.Pos - 1)
		tmp := make([]float64, local.Cols) // want "call to make in hot-path function kernels.RingGatherInto"
		copy(tmp, cur.Data)
		out[t].CopyFrom(cur)
	}
	cm.ReleaseBuf(cur)
}
