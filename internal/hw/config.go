// Package hw defines the hardware parameters of the simulated cluster.
//
// The paper evaluates TPUv4 pods: each chip has two cores with four 128×128
// systolic arrays, 64 MB scratchpad, an HBM stack shared between the cores
// and the NIC, and four ICI links forming a 2D torus (paper Fig. 8). The
// communication cost model is calibrated from measurements as
//
//	cost_op = t_launch + (P-1) × (t_sync + sizeof(shard)/bw)
//
// (paper §3.2.2). We expose those calibration constants here; the defaults
// approximate public TPUv4 numbers and the relative magnitudes the paper's
// breakdowns (Fig. 10) imply.
package hw

import (
	"fmt"
	"math"
)

// Chip describes one accelerator chip and its share of the interconnect.
type Chip struct {
	// PeakFLOPS is the maximum matrix-multiply throughput of the chip in
	// floating point operations per second. The paper reports FLOP
	// utilisation against 272 TFLOPS per TPUv4.
	PeakFLOPS float64

	// EffFLOPS is the effective sustained GeMM throughput used by the
	// compute cost model (measured by profiling GeMMs on one chip,
	// paper §4.5). Large LLM GeMMs come close to peak.
	EffFLOPS float64

	// LinkBandwidth is the bandwidth of a single ICI link in bytes/second,
	// per direction. A TPUv4 ICI link sustains roughly 50 GB/s each way.
	LinkBandwidth float64

	// SyncLatency is the per-step synchronisation latency t_sync between
	// neighbouring chips in a ring collective, in seconds.
	SyncLatency float64

	// LaunchOverhead is the fixed host-side cost t_launch of issuing one
	// communication operation, in seconds.
	LaunchOverhead float64

	// HBMBandwidth is the chip's HBM bandwidth in bytes/second, shared by
	// the compute cores and the NIC (the only interference point in the
	// paper's simulated TPU, §4.1). TPUv4 has 1.2 TB/s.
	HBMBandwidth float64

	// BytesPerElement is the size of one matrix element on the wire.
	// LLM training traffic is bf16, so 2 bytes.
	BytesPerElement float64

	// SliceBlock is the architecture block size B used by the blocked
	// slicing algorithm (8 for TPUs, which access memory in 128×8 chunks).
	SliceBlock int

	// BcastPackets is the packet count D that bcast/reduce stream over a
	// ring (paper Fig. 3 left). SUMMA's fine-grain pipelining divides each
	// shard into this many packets.
	BcastPackets int
}

// TPUv4 returns the default calibration modelled on Google's TPUv4 and the
// paper's measured overheads.
func TPUv4() Chip {
	return Chip{
		PeakFLOPS:       272e12, // the paper's utilisation denominator
		EffFLOPS:        250e12, // sustained large-GeMM throughput
		LinkBandwidth:   50e9,   // per direction per ICI link
		SyncLatency:     1.5e-6,
		LaunchOverhead:  6e-6,
		HBMBandwidth:    1.2e12,
		BytesPerElement: 2, // bf16
		SliceBlock:      8,
		BcastPackets:    16,
	}
}

// UniDirectional returns a copy of c with link bandwidth halved, modelling
// Google Cloud 4×4 TPUv4 slices that only drive the uni-directional
// bandwidth of the bi-directional inter-node ICI links (paper §5.3.1).
func (c Chip) UniDirectional() Chip {
	c.LinkBandwidth /= 2
	return c
}

// Validate reports the first implausible parameter, or nil. Every float
// field must be finite: NaN fails every ordered comparison below, and +Inf
// satisfies them, yet either would reach the simulator's clock.
func (c Chip) Validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"PeakFLOPS", c.PeakFLOPS}, {"EffFLOPS", c.EffFLOPS},
		{"LinkBandwidth", c.LinkBandwidth}, {"SyncLatency", c.SyncLatency},
		{"LaunchOverhead", c.LaunchOverhead}, {"HBMBandwidth", c.HBMBandwidth},
		{"BytesPerElement", c.BytesPerElement},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("hw: %s %v must be finite", f.name, f.v)
		}
	}
	switch {
	case c.PeakFLOPS <= 0:
		return fmt.Errorf("hw: PeakFLOPS %v must be positive", c.PeakFLOPS)
	case c.EffFLOPS <= 0 || c.EffFLOPS > c.PeakFLOPS:
		return fmt.Errorf("hw: EffFLOPS %v must be in (0, PeakFLOPS]", c.EffFLOPS)
	case c.LinkBandwidth <= 0:
		return fmt.Errorf("hw: LinkBandwidth %v must be positive", c.LinkBandwidth)
	case c.SyncLatency < 0:
		return fmt.Errorf("hw: SyncLatency %v must be non-negative", c.SyncLatency)
	case c.LaunchOverhead < 0:
		return fmt.Errorf("hw: LaunchOverhead %v must be non-negative", c.LaunchOverhead)
	case c.HBMBandwidth <= 0:
		return fmt.Errorf("hw: HBMBandwidth %v must be positive", c.HBMBandwidth)
	case c.BytesPerElement <= 0:
		return fmt.Errorf("hw: BytesPerElement %v must be positive", c.BytesPerElement)
	case c.SliceBlock <= 0:
		return fmt.Errorf("hw: SliceBlock %d must be positive", c.SliceBlock)
	case c.BcastPackets <= 0:
		return fmt.Errorf("hw: BcastPackets %d must be positive", c.BcastPackets)
	}
	return nil
}

// GeMMTime returns the compute cost model's execution time for a local
// GeMM with the given FLOP count: FLOPs divided by effective throughput
// (paper §3.2.2).
func (c Chip) GeMMTime(flops float64) float64 {
	if flops <= 0 {
		return 0
	}
	return flops / c.EffFLOPS
}

// RooflineTime returns the execution time of an operation that performs
// the given FLOPs while streaming the given HBM bytes: the maximum of the
// compute-bound and memory-bound estimates. Training GeMMs are almost
// always compute-bound, so this matches GeMMTime there; inference-decode
// GeMMs with tiny batch dimensions become memory-bound (paper §6).
func (c Chip) RooflineTime(flops, hbmBytes float64) float64 {
	t := c.GeMMTime(flops)
	if m := hbmBytes / c.HBMBandwidth; m > t {
		return m
	}
	return t
}
