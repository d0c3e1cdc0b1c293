package arena

// Handle mimics the mesh runtime's async collective handle: the analyzer
// recognises Start*-named constructors by their *Handle result type and
// Wait() as the discharge, so the fixture needs no module imports.
type Handle struct{ done bool }

func (h *Handle) Wait() {}

// StartAllGatherRowsInto mimics collective.StartAllGatherRowsInto.
func (cm *Comm) StartAllGatherRowsInto(local, dst *Matrix) *Handle { return &Handle{} }

// StartReduceScatterColsInto mimics collective.StartReduceScatterColsInto.
func (cm *Comm) StartReduceScatterColsInto(m, dst *Matrix) *Handle { return &Handle{} }

// PipelinedIdiom is the blessed double-buffered shape (the peeled-epilogue
// form the gemm pipelines use): every Start has an unconditional matching
// Wait, and the rotation h = hN MOVES the obligation. No findings.
func PipelinedIdiom(cm *Comm, local *Matrix, dst [2]*Matrix, iters int) {
	h := cm.StartAllGatherRowsInto(local, dst[0])
	for i := 0; i < iters-1; i++ {
		hN := cm.StartAllGatherRowsInto(local, dst[(i+1)%2])
		h.Wait()
		h = hN
	}
	h.Wait()
}

// AllGatherRowsInto mimics the synchronous collective.AllGatherRowsInto.
func (cm *Comm) AllGatherRowsInto(local, dst *Matrix) {}

// DepthSelectedIdiom is the shape of the merged MeshSlice schedules: one
// function serves both prefetch depths. Depth 0 completes every collective
// inline and returns before any Start; depth 1 is PipelinedIdiom. The
// selection is a top-level branch because a handle that crosses iterations
// cannot also be conditional on the depth (ConditionalPrefetch). No findings.
func DepthSelectedIdiom(cm *Comm, local *Matrix, dst [2]*Matrix, iters int, pipelined bool) {
	if !pipelined {
		for i := 0; i < iters; i++ {
			cm.AllGatherRowsInto(local, dst[0])
		}
		return
	}
	h := cm.StartAllGatherRowsInto(local, dst[0])
	for i := 0; i < iters-1; i++ {
		hN := cm.StartAllGatherRowsInto(local, dst[(i+1)%2])
		h.Wait()
		h = hN
	}
	h.Wait()
}

// DepthSelectedDroppedWait is DepthSelectedIdiom without the epilogue Wait:
// the last rotated-in handle is never discharged.
func DepthSelectedDroppedWait(cm *Comm, local *Matrix, dst [2]*Matrix, iters int, pipelined bool) {
	if !pipelined {
		for i := 0; i < iters; i++ {
			cm.AllGatherRowsInto(local, dst[0])
		}
		return
	}
	h := cm.StartAllGatherRowsInto(local, dst[0]) // want "async handle may leak"
	for i := 0; i < iters-1; i++ {
		hN := cm.StartAllGatherRowsInto(local, dst[(i+1)%2])
		h.Wait()
		h = hN
	}
}

// DepthSelectedStep is the shape of Wang's circulate loop: both depths share
// ONE loop, which works because the handle lives entirely inside the depth-1
// arm of a single iteration. No findings.
func DepthSelectedStep(cm *Comm, local *Matrix, dst [2]*Matrix, iters int, pipelined bool) {
	for i := 0; i < iters-1; i++ {
		if pipelined {
			h := cm.StartAllGatherRowsInto(local, dst[i%2])
			local.Add(local) // the step's compute runs underneath the op
			h.Wait()
		} else {
			local.Add(local)
			cm.AllGatherRowsInto(local, dst[0])
		}
	}
}

// DepthSelectedStepDroppedWait forgets the Wait inside the depth-1 arm.
func DepthSelectedStepDroppedWait(cm *Comm, local *Matrix, dst [2]*Matrix, iters int, pipelined bool) {
	for i := 0; i < iters-1; i++ {
		if pipelined {
			h := cm.StartAllGatherRowsInto(local, dst[i%2]) // want "async handle may leak"
			local.Add(local)
			_ = h
		} else {
			local.Add(local)
			cm.AllGatherRowsInto(local, dst[0])
		}
	}
}

// DrainIdiom is the ReduceScatter stream of the three-stage LS/RS pipelines:
// one named handle, waited at the top of the next iteration (the op drains
// underneath that iteration's compute) and re-issued at its bottom, with the
// final issue drained straight after the loop. No findings.
func DrainIdiom(cm *Comm, wide *Matrix, dst [2]*Matrix, iters int) {
	var h *Handle
	for i := 0; i < iters-1; i++ {
		if i > 0 {
			h.Wait()
		}
		h = cm.StartReduceScatterColsInto(wide, dst[i%2])
	}
	if iters > 1 {
		h.Wait()
	}
	h = cm.StartReduceScatterColsInto(wide, dst[(iters-1)%2])
	h.Wait()
}

// DrainDroppedWait is DrainIdiom without the final Wait.
func DrainDroppedWait(cm *Comm, wide *Matrix, dst [2]*Matrix, iters int) {
	var h *Handle
	for i := 0; i < iters-1; i++ {
		if i > 0 {
			h.Wait()
		}
		h = cm.StartReduceScatterColsInto(wide, dst[i%2])
	}
	if iters > 1 {
		h.Wait()
	}
	h = cm.StartReduceScatterColsInto(wide, dst[(iters-1)%2]) // want "async handle may leak"
}

// ConditionalPrefetch guards the issue and the wait by conditions the
// path-insensitive analyzer cannot correlate, so it reports a maybe-leak
// (the rotation moves the branch-issued handle's obligation into h, which
// is never discharged after the final rotation on the analyzer's exit
// paths) — the reason the real pipelines use the peeled-epilogue shape.
func ConditionalPrefetch(cm *Comm, local *Matrix, dst [2]*Matrix, iters int) {
	h := cm.StartAllGatherRowsInto(local, dst[0]) // want "async handle may leak"
	for i := 0; i < iters; i++ {
		var hN *Handle
		if i+1 < iters {
			hN = cm.StartAllGatherRowsInto(local, dst[(i+1)%2])
		}
		h.Wait()
		h = hN
	}
}

// LeakedHandleOnSomePath forgets to Wait on the early-return branch: the
// collective's completion (and any panic it carries) goes unobserved.
func LeakedHandleOnSomePath(cm *Comm, local, dst *Matrix, n int) {
	h := cm.StartAllGatherRowsInto(local, dst) // want "async handle may leak"
	if n > 4 {
		return
	}
	h.Wait()
}

// DoubleWait discharges the same handle twice.
func DoubleWait(cm *Comm, wide, dst *Matrix) {
	h := cm.StartReduceScatterColsInto(wide, dst)
	h.Wait()
	h.Wait() // want "\"h\" waited twice"
}

// TwoInFlight is the overlap discipline: two ops outstanding on one ring,
// waited in issue order. No findings.
func TwoInFlight(cm *Comm, local, wide, rows, dst *Matrix) {
	h1 := cm.StartAllGatherRowsInto(local, rows)
	h2 := cm.StartReduceScatterColsInto(wide, dst)
	h1.Wait()
	h2.Wait()
}

// ReturnedHandleTransfers hands the obligation to the caller. No findings.
func ReturnedHandleTransfers(cm *Comm, local, dst *Matrix) *Handle {
	return cm.StartAllGatherRowsInto(local, dst)
}
