package collective

import (
	"fmt"

	"meshslice/internal/mesh"
	"meshslice/internal/obs/recorder"
	"meshslice/internal/tensor"
)

// Asynchronous collectives: Start* variants hand the ring loop of the
// corresponding *Into collective (allGatherLoop, reduceScatterLoop: both
// have the mesh.AsyncOp signature) straight to the chip's background comm
// lane for that ring direction and return immediately with a Handle; Wait
// blocks until the op has fully completed. Results are bit-identical to
// the synchronous forms — the worker runs the same loop over the same
// arena buffers — which is what lets the pipelined GeMM schedules (package
// gemm) prefetch one slice's AllGather and drain another's ReduceScatter
// underneath the current slice's MatMul without perturbing numerics.
//
// Contract: the caller must not touch dst (or, for reductions, read a
// result derived from m) until Wait returns; m must stay unmodified while
// the op is in flight. Ops on the same communicator direction execute
// serially in issue order, so two in-flight ops on one ring never
// interleave their messages. Shape preconditions panic at issue time, on
// the calling chip's goroutine, and so does a dst that is the op's input
// (mesh.Comm.StartAsync checks that for every Start form). Every handle
// must be balanced by exactly one Wait — meshlint's buf-ownership rule
// flags a leaked handle, and the runtime drains (and re-raises the panics
// of) any that slip through.

// Each Start form declares its op's sends to StartAsync: Size−1 ring hops
// for a gather or a scatter, one message for a shift that moves.

// Handle is an in-flight asynchronous collective (see mesh.Handle).
type Handle = mesh.Handle

// StartAllGatherRowsInto starts AllGatherRowsInto(cm, local, dst) on cm's
// background comm lane. dst must be (Size·local.Rows)×local.Cols.
// lint:hotpath steady-state issue: must not allocate
func StartAllGatherRowsInto(cm *mesh.Comm, local, dst *tensor.Matrix) *Handle {
	checkGather("StartAllGatherRowsInto", cm, local, dst, alongRows)
	return cm.StartAsync(recorder.OpAllGather, allGatherLoop, local, dst, alongRows, cm.Size-1)
}

// StartAllGatherColsInto starts AllGatherColsInto(cm, local, dst) on cm's
// background comm lane. dst must be local.Rows×(Size·local.Cols).
// lint:hotpath steady-state issue: must not allocate
func StartAllGatherColsInto(cm *mesh.Comm, local, dst *tensor.Matrix) *Handle {
	checkGather("StartAllGatherColsInto", cm, local, dst, alongCols)
	return cm.StartAsync(recorder.OpAllGather, allGatherLoop, local, dst, alongCols, cm.Size-1)
}

// StartReduceScatterRowsInto starts ReduceScatterRowsInto(cm, m, dst) on
// cm's background comm lane. m must not change until Wait returns.
// lint:hotpath steady-state issue: must not allocate
func StartReduceScatterRowsInto(cm *mesh.Comm, m, dst *tensor.Matrix) *Handle {
	checkScatter("StartReduceScatterRowsInto", cm, m, dst, alongRows)
	return cm.StartAsync(recorder.OpReduceScatter, reduceScatterLoop, m, dst, alongRows, cm.Size-1)
}

// StartReduceScatterColsInto starts ReduceScatterColsInto(cm, m, dst) on
// cm's background comm lane. m must not change until Wait returns.
// lint:hotpath steady-state issue: must not allocate
func StartReduceScatterColsInto(cm *mesh.Comm, m, dst *tensor.Matrix) *Handle {
	checkScatter("StartReduceScatterColsInto", cm, m, dst, alongCols)
	return cm.StartAsync(recorder.OpReduceScatter, reduceScatterLoop, m, dst, alongCols, cm.Size-1)
}

// StartShiftInto starts a circular SendRecv on cm's background comm lane:
// it sends m to the member steps positions downstream and writes the matrix
// received from steps positions upstream into dst. Unlike Comm.Shift the
// send carries a copy of m, so the caller may keep READING m while the shift
// is in flight — Wang's overlapped direction computes on the current panel
// while the next one is already moving. dst must have m's shape and must not
// be m (that panics at issue).
func StartShiftInto(cm *mesh.Comm, steps int, m, dst *tensor.Matrix) *Handle {
	if dst.Rows != m.Rows || dst.Cols != m.Cols {
		panic(fmt.Sprintf("collective: StartShiftInto dst %dx%d for %dx%d", dst.Rows, dst.Cols, m.Rows, m.Cols)) // lint:invariant shape precondition
	}
	sends := 0
	if mod(steps, cm.Size) != 0 {
		sends = 1
	}
	return cm.StartAsync(recorder.OpShift, execShift, m, dst, steps, sends)
}

// execShift is Wang's overlapped SendRecv: it sends a copy of m drawn from
// the comm lane's scratch arena (so the issuer may keep reading m) with an
// ownership-transfer send, which records the same events as a cloning one,
// and copies the received copy into dst. Like the ring loops it runs on a
// background comm worker, where the op's own log brackets the whole
// execution, so it opens no span.
func execShift(cm *mesh.Comm, m, dst *tensor.Matrix, steps int) {
	steps = mod(steps, cm.Size)
	if steps == 0 {
		dst.CopyFrom(m)
		return
	}
	cp := cm.Scratch(m.Rows, m.Cols)
	cp.CopyFrom(m)
	cm.SendOwnedTo(cm.Pos+steps, cp)
	dst.CopyFrom(cm.RecvFrom(cm.Pos - steps))
}
