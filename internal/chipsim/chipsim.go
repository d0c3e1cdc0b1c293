// Package chipsim models a single accelerator core executing a GeMM the
// way the paper's custom SST accelerator does (§4.1): the output matrix is
// broken into tiles; each output tile is computed in a loop whose
// iterations prefetch the next input tiles from HBM into the scratchpad
// while the systolic arrays multiply the current ones (software
// pipelining). The model yields the effect the flat roofline misses: small
// or skinny partial GeMMs — like MeshSlice's fine-grained slices or
// SUMMA's panels — waste systolic-array occupancy and prefetch bandwidth,
// the "less efficient fine-grain partial GeMMs" the paper measures in
// §5.3.1.
package chipsim

import (
	"fmt"

	"meshslice/internal/hw"
)

// Core describes the compute core's microarchitecture.
type Core struct {
	// Tile is the systolic array dimension (128 for TPU's 128×128 MXUs).
	Tile int
	// MACsPerSecond is the array's multiply-accumulate throughput at full
	// occupancy, in MAC/s across all arrays (EffFLOPS/2).
	MACsPerSecond float64
	// ScratchpadBytes is the on-chip buffer (64 MB per TPUv4 core pair).
	ScratchpadBytes float64
	// HBMBandwidth feeds the prefetches.
	HBMBandwidth float64
	// BytesPerElement is the operand width.
	BytesPerElement float64
}

// FromChip derives the core model from a cluster-level chip calibration.
func FromChip(c hw.Chip) Core {
	return Core{
		Tile:            128,
		MACsPerSecond:   c.EffFLOPS / 2,
		ScratchpadBytes: 64 << 20,
		HBMBandwidth:    c.HBMBandwidth,
		BytesPerElement: c.BytesPerElement,
	}
}

// Validate reports the first implausible parameter.
func (c Core) Validate() error {
	switch {
	case c.Tile <= 0:
		return fmt.Errorf("chipsim: tile %d", c.Tile)
	case c.MACsPerSecond <= 0:
		return fmt.Errorf("chipsim: MAC rate %v", c.MACsPerSecond)
	case c.ScratchpadBytes <= 0:
		return fmt.Errorf("chipsim: scratchpad %v", c.ScratchpadBytes)
	case c.HBMBandwidth <= 0:
		return fmt.Errorf("chipsim: HBM bandwidth %v", c.HBMBandwidth)
	case c.BytesPerElement <= 0:
		return fmt.Errorf("chipsim: element size %v", c.BytesPerElement)
	}
	return nil
}

// Result decomposes a tiled GeMM execution.
type Result struct {
	// Time is the modelled execution time.
	Time float64
	// ComputeTime is the systolic-array busy time (tiles × tile latency).
	ComputeTime float64
	// PrefetchTime is the total HBM→scratchpad traffic time.
	PrefetchTime float64
	// Occupancy is useful MACs over issued MACs: 1.0 when every dimension
	// fills whole tiles, lower for ragged edges.
	Occupancy float64
	// Tiles is the number of tile-multiplications issued.
	Tiles int64
}

// BlockSize returns the scratchpad blocking factor: the largest multiple
// of the tile dimension such that an A block, a B block, and a C block
// (triple-buffered for the prefetch pipeline) fit in the scratchpad, capped
// at 2048 — the operand reuse that keeps large GeMMs compute-bound.
func (c Core) BlockSize() int {
	b := c.Tile
	for nb := 2 * c.Tile; nb <= 2048; nb += c.Tile {
		if 3*float64(nb)*float64(nb)*c.BytesPerElement > c.ScratchpadBytes {
			break
		}
		b = nb
	}
	return b
}

// GeMM models C(M×N) += A(M×K)·B(K×N) on the core.
//
// The loop structure follows §4.1: the output is computed block by block;
// for each output block, the loop over K prefetches the next A and B
// blocks from HBM into the scratchpad while the systolic arrays multiply
// the current pair (software pipelining), and writes the output block back
// once. Per-iteration time is max(block MAC latency, block prefetch time);
// within a block the arrays process 128×128 tiles, so ragged dimensions
// waste occupancy. The paper's two cores are folded into the aggregate MAC
// rate.
func (c Core) GeMM(m, n, k int) (Result, error) {
	if err := c.Validate(); err != nil {
		return Result{}, err
	}
	if m <= 0 || n <= 0 || k <= 0 {
		return Result{}, fmt.Errorf("chipsim: GeMM %dx%dx%d", m, n, k)
	}
	t := int64(c.Tile)
	b := int64(c.BlockSize())
	mb, nb, kb := ceilDiv(int64(m), b), ceilDiv(int64(n), b), ceilDiv(int64(k), b)
	blockIters := mb * nb * kb

	// Tile-granular work inside all blocks: every dimension rounds up to
	// whole tiles (the systolic array cannot issue partial waves).
	mt, nt, kt := ceilDiv(int64(m), t), ceilDiv(int64(n), t), ceilDiv(int64(k), t)
	tiles := mt * nt * kt
	tileMACs := float64(t * t * t)
	computeTime := float64(tiles) * tileMACs / c.MACsPerSecond

	// Each block iteration prefetches one A block and one B block; edge
	// blocks fetch only their real extent, so every A element crosses HBM
	// nb times and every B element mb times (the blocked-GeMM reuse).
	aBytes := float64(m) * float64(k) * c.BytesPerElement
	bBytes := float64(k) * float64(n) * c.BytesPerElement
	prefetchBytes := float64(nb)*aBytes + float64(mb)*bBytes
	prefetchTotal := prefetchBytes / c.HBMBandwidth
	perIterPrefetch := prefetchTotal / float64(blockIters)
	perIterCompute := computeTime / float64(blockIters)

	perIter := perIterCompute
	if perIterPrefetch > perIter {
		perIter = perIterPrefetch
	}
	writeback := float64(m) * float64(n) * c.BytesPerElement / c.HBMBandwidth
	time := perIterPrefetch + float64(blockIters)*perIter + writeback

	useful := 2 * float64(m) * float64(n) * float64(k)
	issued := 2 * float64(tiles) * tileMACs
	return Result{
		Time:         time,
		ComputeTime:  computeTime,
		PrefetchTime: prefetchTotal,
		Occupancy:    useful / issued,
		Tiles:        tiles,
	}, nil
}

func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }
