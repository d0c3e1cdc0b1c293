package mesh

import (
	"math"
	"meshslice/internal/obs/recorder"
	"meshslice/internal/topology"
)

// PoisonHeldSlab fills the slab the process-wide store holds with NaN and
// returns its length (0 when no closed mesh has given one back), so a test
// can show that what a mesh left in the slab cannot reach the next mesh's
// bits.
func PoisonHeldSlab() int {
	buf := slabs.Take(0)
	buf = buf[:cap(buf)]
	for i := range buf {
		buf[i] = math.NaN()
	}
	slabs.Give(buf)
	return len(buf)
}

// Recorder returns the flight recorder attached by SetRecorder, or nil.
func (m *Mesh) Recorder() *recorder.Recorder { return m.rec }

// Direction returns the mesh direction this communicator's traffic uses.
func (cm *Comm) Direction() topology.Direction { return cm.dir }
