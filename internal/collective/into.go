package collective

import (
	"fmt"

	"meshslice/internal/mesh"
	"meshslice/internal/obs/recorder"
	"meshslice/internal/tensor"
)

// Buffer-reusing collectives. Each *Into variant writes into
// caller-provided storage and circulates one scratch buffer from the mesh
// pool around the ring with ownership-transfer sends, so the steady state
// allocates nothing: the chip that starts a ring stream acquires the
// buffer, every hop forwards the exact matrix it received, and the chip
// holding it after the last step releases it back to the pool. Each ring
// schedule is one loop. The Rows and Cols forms and their Start forms
// (async.go) are entry points to one AllGather loop and one ReduceScatter
// loop; the allocating forms in collective.go call the *Into forms, except
// Broadcast, which keeps its own loop because a non-root rank does not know
// the shape it will receive.
//
// Ownership rules: arguments are never aliased — inputs are only read,
// destinations are fully overwritten, and no internal buffer escapes to the
// caller. Destinations must be pre-shaped; a shape mismatch panics.

// Rows and Cols collectives lay the ring's blocks along one axis of a
// matrix; the axis only decides where ring block i sits, so one loop serves
// both and takes the axis as its mesh.AsyncOp arg.
const (
	alongRows = iota // block i at (i·block.Rows, 0): the …Rows forms
	alongCols        // block i at (0, i·block.Cols): the …Cols forms
)

// stride returns the offset (dr, dc) between consecutive ring blocks of
// block's shape laid along axis, so ring block i sits at (i·dr, i·dc).
func stride(block *tensor.Matrix, axis int) (dr, dc int) {
	if axis == alongRows {
		return block.Rows, 0
	}
	return 0, block.Cols
}

// tiles reports whether whole is exactly p blocks of block's shape laid
// along axis.
func tiles(whole, block *tensor.Matrix, p, axis int) bool {
	dr, dc := stride(block, axis)
	return whole.Rows == block.Rows+(p-1)*dr && whole.Cols == block.Cols+(p-1)*dc
}

// checkGather panics, naming the entry point the caller called, unless dst
// holds the ring's Size shards of local's shape laid along axis.
func checkGather(name string, cm *mesh.Comm, local, dst *tensor.Matrix, axis int) {
	if !tiles(dst, local, cm.Size, axis) {
		panic(fmt.Sprintf("collective: %s dst %dx%d for %d shards of %dx%d", name, dst.Rows, dst.Cols, cm.Size, local.Rows, local.Cols)) // lint:invariant shape precondition
	}
}

// checkScatter panics, naming the entry point the caller called, unless m
// holds the ring's Size strips of dst's shape laid along axis.
func checkScatter(name string, cm *mesh.Comm, m, dst *tensor.Matrix, axis int) {
	if !tiles(m, dst, cm.Size, axis) {
		panic(fmt.Sprintf("collective: %s dst %dx%d for %dx%d over ring of %d", name, dst.Rows, dst.Cols, m.Rows, m.Cols, cm.Size)) // lint:invariant shape precondition
	}
}

// AllGatherRowsInto gathers shards and concatenates them vertically in ring
// order directly into dst, which must be (Size·local.Rows)×local.Cols.
// lint:hotpath steady-state: must not allocate
func AllGatherRowsInto(cm *mesh.Comm, local, dst *tensor.Matrix) {
	checkGather("AllGatherRowsInto", cm, local, dst, alongRows)
	cm.SpanStart(recorder.OpAllGather, -1)
	defer cm.SpanEnd(recorder.OpAllGather)
	allGatherLoop(cm, local, dst, alongRows)
}

// AllGatherColsInto gathers shards and concatenates them horizontally in
// ring order directly into dst, which must be local.Rows×(Size·local.Cols).
// lint:hotpath steady-state: must not allocate
func AllGatherColsInto(cm *mesh.Comm, local, dst *tensor.Matrix) {
	checkGather("AllGatherColsInto", cm, local, dst, alongCols)
	cm.SpanStart(recorder.OpAllGather, -1)
	defer cm.SpanEnd(recorder.OpAllGather)
	allGatherLoop(cm, local, dst, alongCols)
}

// allGatherLoop is the ring schedule of every Rows/Cols AllGather: ring
// block i lands at (i·dr, i·dc) of dst. It opens no span (the sync forms
// open one around it; on a background lane the op's own log brackets it),
// and it has the mesh.AsyncOp signature, so the Start forms pass it to
// StartAsync as it is.
// lint:hotpath steady-state: must not allocate
func allGatherLoop(cm *mesh.Comm, local, dst *tensor.Matrix, axis int) {
	p := cm.Size
	dr, dc := stride(local, axis)
	dst.SetSubMatrix(cm.Pos*dr, cm.Pos*dc, local)
	if p == 1 {
		return
	}
	cur := cm.AcquireBuf(local.Rows, local.Cols)
	cur.CopyFrom(local)
	for t := 0; t < p-1; t++ {
		cm.SendOwnedTo(cm.Pos+1, cur)
		cur = cm.RecvFrom(cm.Pos - 1)
		i := mod(cm.Pos-t-1, p)
		dst.SetSubMatrix(i*dr, i*dc, cur)
	}
	cm.ReleaseBuf(cur)
}

// ReduceScatterRowsInto reduces a matrix whose rows are split evenly across
// the ring into dst: every chip contributes the full matrix m and dst
// receives the reduced horizontal strip for this chip's ring position. The
// strips are read straight out of m — no split copies are made.
// lint:hotpath steady-state: must not allocate
func ReduceScatterRowsInto(cm *mesh.Comm, m, dst *tensor.Matrix) {
	checkScatter("ReduceScatterRowsInto", cm, m, dst, alongRows)
	cm.SpanStart(recorder.OpReduceScatter, -1)
	defer cm.SpanEnd(recorder.OpReduceScatter)
	reduceScatterLoop(cm, m, dst, alongRows)
}

// ReduceScatterColsInto is ReduceScatterRowsInto for vertical strips: dst
// receives the reduced column strip for this chip's ring position.
// lint:hotpath steady-state: must not allocate
func ReduceScatterColsInto(cm *mesh.Comm, m, dst *tensor.Matrix) {
	checkScatter("ReduceScatterColsInto", cm, m, dst, alongCols)
	cm.SpanStart(recorder.OpReduceScatter, -1)
	defer cm.SpanEnd(recorder.OpReduceScatter)
	reduceScatterLoop(cm, m, dst, alongCols)
}

// reduceScatterLoop is the ring schedule of every Rows/Cols ReduceScatter:
// strip i of m is read at (i·dr, i·dc). Like allGatherLoop it opens no
// span and the Start forms pass it to StartAsync as it is.
// lint:hotpath steady-state: must not allocate
func reduceScatterLoop(cm *mesh.Comm, m, dst *tensor.Matrix, axis int) {
	p := cm.Size
	if p == 1 {
		dst.CopyFrom(m)
		return
	}
	dr, dc := stride(dst, axis)
	cur := cm.AcquireBuf(dst.Rows, dst.Cols)
	i := mod(cm.Pos-1, p)
	cur.CopySub(m, i*dr, i*dc)
	for t := 0; t < p-1; t++ {
		cm.SendOwnedTo(cm.Pos+1, cur)
		cur = cm.RecvFrom(cm.Pos - 1)
		i = mod(cm.Pos-t-2, p)
		cur.AddSub(m, i*dr, i*dc)
	}
	dst.CopyFrom(cur)
	cm.ReleaseBuf(cur)
}

// BroadcastInto distributes root's matrix into every ring member's dst —
// root included, so the operation is symmetric: every rank ends up with its
// own caller-owned copy and nothing aliases m. Non-root chips pass nil for
// m; unlike Broadcast they must pre-shape dst to the root's shape.
//
// Steady-state allocation note: the root only sends, so a tight loop of
// same-root broadcasts with no interleaved receive can run ahead of the
// ring, and every in-flight call pins its own buffer (the fabric is an
// unbounded FIFO). The runtime enforces the bound rather than leaving it a
// caveat: each stream start without an intervening receive counts against
// mesh.MaxStreamStarts, and exceeding the cap surfaces as a typed
// *mesh.StreamBacklogError via RunE. With rotating roots — the SUMMA
// pattern — or any interleaved receive, the counter resets, the pool
// recycles fully, and calls stop allocating. The same applies to
// ReduceInto's stream starter (the chip after the root).
// lint:hotpath steady-state: must not allocate
func BroadcastInto(cm *mesh.Comm, root int, m, dst *tensor.Matrix) {
	cm.SpanStart(recorder.OpBroadcast, -1)
	defer cm.SpanEnd(recorder.OpBroadcast)
	p := cm.Size
	root = mod(root, p)
	if p == 1 {
		if dst != m {
			dst.CopyFrom(m)
		}
		return
	}
	dist := mod(cm.Pos-root, p) // hops from root to this chip
	if dist == 0 {
		cm.NoteStreamStart(m.Rows, m.Cols)
		cur := cm.AcquireBuf(m.Rows, m.Cols)
		cur.CopyFrom(m)
		cm.SendOwnedTo(cm.Pos+1, cur)
		if dst != m {
			dst.CopyFrom(m)
		}
		return
	}
	cur := cm.RecvFrom(cm.Pos - 1)
	dst.CopyFrom(cur)
	if dist < p-1 {
		cm.SendOwnedTo(cm.Pos+1, cur)
	} else {
		cm.ReleaseBuf(cur)
	}
}

// ReduceInto accumulates every ring member's matrix into the root's dst and
// reports whether this chip is the root: at the root dst receives the sum
// and the call returns true; elsewhere dst is untouched and the call
// returns false. The accumulation order matches Reduce, so results are
// bit-identical.
// lint:hotpath steady-state: must not allocate
func ReduceInto(cm *mesh.Comm, root int, m, dst *tensor.Matrix) bool {
	cm.SpanStart(recorder.OpReduce, -1)
	defer cm.SpanEnd(recorder.OpReduce)
	p := cm.Size
	root = mod(root, p)
	if p == 1 {
		if dst != m {
			dst.CopyFrom(m)
		}
		return true
	}
	switch mod(cm.Pos-root, p) {
	case 1: // journey start
		cm.NoteStreamStart(m.Rows, m.Cols)
		cur := cm.AcquireBuf(m.Rows, m.Cols)
		cur.CopyFrom(m)
		cm.SendOwnedTo(cm.Pos+1, cur)
		return false
	case 0: // root: last to accumulate
		cur := cm.RecvFrom(cm.Pos - 1)
		cur.Add(m)
		dst.CopyFrom(cur)
		cm.ReleaseBuf(cur)
		return true
	default:
		cur := cm.RecvFrom(cm.Pos - 1)
		cur.Add(m)
		cm.SendOwnedTo(cm.Pos+1, cur)
		return false
	}
}

// AllReduceInto writes the element-wise sum of every ring member's matrix
// into every member's dst, composed exactly like AllReduce (Reduce to
// position 0, then Broadcast). dst must have m's shape.
// lint:hotpath steady-state: must not allocate
func AllReduceInto(cm *mesh.Comm, m, dst *tensor.Matrix) {
	cm.SpanStart(recorder.OpAllReduce, -1)
	defer cm.SpanEnd(recorder.OpAllReduce)
	if ReduceInto(cm, 0, m, dst) {
		BroadcastInto(cm, 0, dst, dst)
	} else {
		BroadcastInto(cm, 0, nil, dst)
	}
}
