// Package collective implements the ring communication operations the 2D
// GeMM algorithms are built from (paper §2.3, Fig. 3): AllGather and
// ReduceScatter (used by Collective 2D GeMM and MeshSlice), Broadcast and
// Reduce (used by SUMMA), and AllReduce (used by data-parallel gradient
// synchronisation).
//
// All operations run over a mesh.Comm — one row or one column ring of the
// functional mesh — and move real matrix data, following the actual ring
// schedules: an AllGather performs P-1 neighbour steps each forwarding a
// whole shard (Fig. 3 right); a Broadcast forwards from the root around the
// ring. Timing is out of scope here (see package netsim); these primitives
// exist so correctness of every distributed GeMM can be verified end to end.
//
// Each primitive comes in two forms with identical wire behaviour and
// bit-identical results. The allocating form (AllGatherRows,
// ReduceScatterCols, Broadcast, Reduce, AllReduce, ...) returns freshly
// allocated matrices the caller owns outright — results never alias
// inputs, on any rank. The buffer-reusing form (AllGatherRowsInto,
// BroadcastInto, ... in into.go) writes into caller-provided storage and
// recycles one ring buffer through the mesh pool so its steady state
// allocates nothing. Each ring schedule is one loop: every allocating form
// but Broadcast calls its *Into form (a non-root rank cannot pre-shape a
// Broadcast destination), and the Rows and Cols forms, sync and async
// (Start*, async.go), are entry points to one AllGather loop and one
// ReduceScatter loop.
package collective

import (
	"meshslice/internal/mesh"
	"meshslice/internal/obs/recorder"
	"meshslice/internal/tensor"
)

// AllGatherRows gathers shards and concatenates them vertically in ring
// order (the layout AG_row/AG_col produce when the gathered dimension is
// the row dimension).
func AllGatherRows(cm *mesh.Comm, local *tensor.Matrix) *tensor.Matrix {
	dst := tensor.New(cm.Size*local.Rows, local.Cols)
	AllGatherRowsInto(cm, local, dst)
	return dst
}

// AllGatherCols gathers shards and concatenates them horizontally in ring
// order.
func AllGatherCols(cm *mesh.Comm, local *tensor.Matrix) *tensor.Matrix {
	dst := tensor.New(local.Rows, cm.Size*local.Cols)
	AllGatherColsInto(cm, local, dst)
	return dst
}

// ReduceScatterRows reduces a matrix whose rows are split evenly across the
// ring: every chip contributes the full matrix m, and receives the reduced
// horizontal strip for its ring position. m.Rows must divide by the ring
// size; otherwise ReduceScatterRowsInto's shape check panics.
func ReduceScatterRows(cm *mesh.Comm, m *tensor.Matrix) *tensor.Matrix {
	dst := tensor.New(m.Rows/cm.Size, m.Cols)
	ReduceScatterRowsInto(cm, m, dst)
	return dst
}

// ReduceScatterCols is ReduceScatterRows for vertical strips: each chip
// receives the reduced column strip for its ring position.
func ReduceScatterCols(cm *mesh.Comm, m *tensor.Matrix) *tensor.Matrix {
	dst := tensor.New(m.Rows, m.Cols/cm.Size)
	ReduceScatterColsInto(cm, m, dst)
	return dst
}

// Broadcast distributes root's matrix to every ring member and returns it.
// Non-root chips pass nil (or any value; it is ignored). The shard is
// forwarded around the ring from the root (the fine-grain packetisation of
// Fig. 3 affects timing only, not the data movement modelled here).
//
// Ownership is symmetric on every rank: the returned matrix is freshly
// allocated, owned by the caller, and never aliases m or any internal ring
// buffer. (Root used to get a clone while non-roots got the received
// buffer; with pooled ring buffers that asymmetry would leak a recycled
// buffer to the caller.)
func Broadcast(cm *mesh.Comm, root int, m *tensor.Matrix) *tensor.Matrix {
	cm.SpanStart(recorder.OpBroadcast, -1)
	defer cm.SpanEnd(recorder.OpBroadcast)
	p := cm.Size
	root = mod(root, p)
	if p == 1 {
		return m.Clone()
	}
	dist := mod(cm.Pos-root, p) // hops from root to this chip
	if dist == 0 {
		cur := cm.AcquireBuf(m.Rows, m.Cols)
		cur.CopyFrom(m)
		cm.SendOwnedTo(cm.Pos+1, cur)
		return m.Clone()
	}
	cur := cm.RecvFrom(cm.Pos - 1)
	out := cur.Clone()
	if dist < p-1 {
		cm.SendOwnedTo(cm.Pos+1, cur)
	} else {
		cm.ReleaseBuf(cur)
	}
	return out
}

// Reduce accumulates every ring member's matrix into the root and returns
// the sum at the root; non-root chips receive nil. The partial sum travels
// the ring from root+1 toward the root. The root's result is freshly
// allocated and never aliases m.
func Reduce(cm *mesh.Comm, root int, m *tensor.Matrix) *tensor.Matrix {
	dst := tensor.New(m.Rows, m.Cols)
	if ReduceInto(cm, root, m, dst) {
		return dst
	}
	return nil
}

// AllReduce returns the element-wise sum of every ring member's matrix on
// all members, implemented as Reduce to position 0 followed by Broadcast —
// the composition property the tests verify against ReduceScatter+AllGather.
func AllReduce(cm *mesh.Comm, m *tensor.Matrix) *tensor.Matrix {
	dst := tensor.New(m.Rows, m.Cols)
	AllReduceInto(cm, m, dst)
	return dst
}

func mod(a, n int) int { return ((a % n) + n) % n }
