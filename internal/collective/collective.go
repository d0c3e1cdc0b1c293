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
// bit-identical results. The allocating form (AllGather, ReduceScatter,
// Broadcast, Reduce, AllReduce) returns freshly allocated matrices the
// caller owns outright — results never alias inputs, on any rank. It is a
// thin wrapper over the buffer-reusing form (AllGatherInto,
// ReduceScatterInto, ... in into.go), which writes into caller-provided
// storage and recycles one ring buffer through the mesh pool so its steady
// state allocates nothing.
package collective

import (
	"fmt"

	"meshslice/internal/mesh"
	"meshslice/internal/obs/recorder"
	"meshslice/internal/tensor"
)

// AllGather gathers each ring member's local shard and returns all P shards
// ordered by ring position. It uses the standard P-1 step ring schedule:
// in step t every chip forwards the shard it received in step t-1 (its own
// shard in step 0) to its downstream neighbour.
func AllGather(cm *mesh.Comm, local *tensor.Matrix) []*tensor.Matrix {
	out := make([]*tensor.Matrix, cm.Size)
	for i := range out {
		out[i] = tensor.New(local.Rows, local.Cols)
	}
	AllGatherInto(cm, local, out)
	return out
}

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

// ReduceScatter reduces element-wise across the ring and scatters: blocks
// must hold one block per ring position (this chip's contribution to each
// destination); the return value is the sum over all chips of their block
// for this chip's position.
//
// It follows the classic ring schedule in which the block destined for
// position d starts at chip d+1 and accumulates contributions as it travels
// the ring, arriving fully reduced at chip d after P-1 steps.
func ReduceScatter(cm *mesh.Comm, blocks []*tensor.Matrix) *tensor.Matrix {
	if err := checkBlocks("reducescatter", blocks, cm.Size); err != nil {
		panic(err) // lint:invariant block-count precondition; ReduceScatterE returns it as a value
	}
	return reduceScatter(cm, blocks)
}

func reduceScatter(cm *mesh.Comm, blocks []*tensor.Matrix) *tensor.Matrix {
	mine := blocks[cm.Pos]
	dst := tensor.New(mine.Rows, mine.Cols)
	reduceScatterInto(cm, blocks, dst)
	return dst
}

// ReduceScatterRows reduces a matrix whose rows are split evenly across the
// ring: every chip contributes the full matrix m, and receives the reduced
// horizontal strip for its ring position. m.Rows must divide by the ring
// size.
func ReduceScatterRows(cm *mesh.Comm, m *tensor.Matrix) *tensor.Matrix {
	if m.Rows%cm.Size != 0 {
		panic(fmt.Sprintf("tensor: SplitRows %dx%d into %d", m.Rows, m.Cols, cm.Size)) // lint:invariant shape precondition
	}
	dst := tensor.New(m.Rows/cm.Size, m.Cols)
	ReduceScatterRowsInto(cm, m, dst)
	return dst
}

// ReduceScatterCols is ReduceScatterRows for vertical strips: each chip
// receives the reduced column strip for its ring position.
func ReduceScatterCols(cm *mesh.Comm, m *tensor.Matrix) *tensor.Matrix {
	if m.Cols%cm.Size != 0 {
		panic(fmt.Sprintf("tensor: SplitCols %dx%d into %d", m.Rows, m.Cols, cm.Size)) // lint:invariant shape precondition
	}
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
	cm.CountCollective("broadcast")
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
