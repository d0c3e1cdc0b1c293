package mesh

import (
	"math"

	"meshslice/internal/tensor"
)

// Scratch arena: the buffers a schedule uses only within one run — MeshSlice's
// stream and slice buffers, Wang's gathered panels and landing buffers, the
// copy an overlapped shift sends — are drawn from the mesh instead of
// allocated, so a warm mesh runs the same op again without allocating them.
//
// Each chip has one lane per goroutine that works for it: the chip goroutine
// and each of its background comm lanes. A lane is only ever touched by its
// own goroutine, so drawing takes no lock. A lane keeps up to scratchSlots
// matrices, each of one shape, and a draw hands out the first one of the
// asked shape not yet drawn this run (a miss carves one from the mesh's
// slab, see Mesh.Close, and keeps it while slots are free). Every lane of
// the mesh lives in one array that mesh.New allocates, so a fresh mesh pays
// one object for the lanes.
//
// A drawn matrix stays drawn until the run ends, when runAll, with every
// chip goroutine and comm lane joined, reclaims every lane. So a schedule
// may send a drawn matrix to another chip with SendOwned (a ring hop, an
// overlapped shift), and the receiver may read it until the run ends, even
// after the sender's body has returned. Drawing records nothing: a scratch
// buffer is not a message.

// scratchSlots bounds the matrices one lane keeps. The functional GeMM
// schedules draw at most 11 per chip goroutine over gemm_fine's six ops, and
// Wang's overlapped shift Size−1 per comm lane.
const scratchSlots = 16

// scratchLanes is the number of lanes per chip: the chip goroutine (lane 0)
// and one per background comm lane (lane 1 + direction).
const scratchLanes = 1 + len(asyncState{}.workers)

// scratchLane is one goroutine's arena: bufs[:n] are the matrices it keeps,
// and bit i of drawn is set while bufs[i] is drawn this run.
type scratchLane struct {
	bufs  [scratchSlots]*tensor.Matrix
	n     int
	drawn uint16
}

// draw returns a rows×cols matrix no one else holds this run. Its contents
// are whatever its last user left.
// lint:hotpath steady-state draw: a warm lane allocates nothing
func (s *scratchLane) draw(sl *slab, rows, cols int) *tensor.Matrix {
	for i, m := range s.bufs[:s.n] {
		if s.drawn&(1<<i) == 0 && m.Rows == rows && m.Cols == cols {
			s.drawn |= 1 << i
			return m
		}
	}
	return s.miss(sl, rows, cols)
}

// miss carves a matrix for draw from sl, keeping it drawn while a slot is
// free.
// lint:allow hotpath-alloc a lane miss carves by design: the first run of a shape, then the slot is reused
func (s *scratchLane) miss(sl *slab, rows, cols int) *tensor.Matrix {
	m := sl.carve(rows, cols)
	if s.n < scratchSlots {
		s.bufs[s.n] = m
		s.drawn |= 1 << s.n
		s.n++
	}
	return m
}

// Scratch returns a rows×cols matrix from the chip's scratch arena, for use
// within this run only. Its contents are unspecified: the caller must
// overwrite every element it reads. It is the caller's until the run ends,
// and may be handed to another chip with SendOwned, which may read it until
// then; a later run may draw it again. Unlike AcquireBuf it records no event
// and needs no release.
// lint:hotpath steady-state draw: a warm lane allocates nothing
func (c *Chip) Scratch(rows, cols int) *tensor.Matrix {
	return c.scratch.draw(&c.mesh.slab, rows, cols)
}

// Scratch returns a scratch matrix from the arena lane of the goroutine
// this communicator runs on (see Chip.Scratch).
// lint:hotpath steady-state draw: a warm lane allocates nothing
func (cm *Comm) Scratch(rows, cols int) *tensor.Matrix {
	return cm.chip.Scratch(rows, cols)
}

// laneOf returns chip rank's arena lane (0 for the chip goroutine,
// 1 + direction for a comm lane).
func (m *Mesh) laneOf(rank, lane int) *scratchLane {
	return &m.scratch[rank*scratchLanes+lane]
}

// PoisonScratch fills every matrix the mesh's scratch arena keeps with NaN,
// so a run that reads a scratch element before writing it shows NaN in its
// result. It must not be called while a run is in flight.
// lint:allow unused gemm's arena tests call it, and another package's tests cannot see an export_test.go hook
func (m *Mesh) PoisonScratch() {
	for i := range m.scratch {
		l := &m.scratch[i]
		for _, b := range l.bufs[:l.n] {
			for j := range b.Data {
				b.Data[j] = math.NaN()
			}
		}
	}
}
