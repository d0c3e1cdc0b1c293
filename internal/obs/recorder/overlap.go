package recorder

// Structural comm/compute overlap metric. The recorder is wall-clock-free,
// so "overlap" cannot mean intersecting timestamps; instead it is a
// causality property visible in each chip's merged event stream: an
// asynchronous collective counts as overlapped iff the chip opened a
// compute span (a GeMM step or a kernel span, lane 0) between the
// op's KindAsyncIssue and its KindAsyncWait. Because Wait merges the op's
// events at a deterministic program point, the metric is itself
// deterministic — a run that issues no async op scores exactly 0 (SUMMA,
// Cannon and Collective 2D always; MeshSlice and Wang at prefetch depth 0,
// where every collective completes inline on the chip goroutine), and
// MeshSlice or Wang at depth 1 with at least two slices (ring steps) scores
// > 0 on every chip.

// ChipOverlap is one chip's async-op tally.
type ChipOverlap struct {
	Chip int `json:"chip"`
	// AsyncOps counts the chip's completed asynchronous collectives.
	AsyncOps int `json:"async_ops"`
	// Overlapped counts those with compute evidence between issue and wait.
	Overlapped int `json:"overlapped"`
}

// OverlapStats is the mesh-wide comm/compute overlap summary.
type OverlapStats struct {
	// AsyncOps and Overlapped are summed over all chips.
	AsyncOps   int `json:"async_ops"`
	Overlapped int `json:"overlapped"`
	// Fraction is Overlapped / AsyncOps (0 when no async ops ran).
	Fraction float64 `json:"fraction"`
	// Chips holds the per-chip tallies in rank order.
	Chips []ChipOverlap `json:"chips"`
}

// isComputeEvidence reports whether a lane-0 span-start event proves the
// chip was computing: a whole-step span (SUMMA, Cannon, Collective 2D) or a
// kernel span (MeshSlice, Wang).
func isComputeEvidence(e Event) bool {
	return e.Kind == KindSpanStart && e.Lane == 0 && (e.Op == OpGemmStep || e.Op == OpCompute)
}

// Overlap scans each chip's surviving event window and tallies which
// asynchronous collectives had compute issued between their issue and wait
// marks. Safe to call only when no chip goroutine is running. Post-run
// analysis, not a hot path.
func (r *Recorder) Overlap() OverlapStats {
	out := OverlapStats{Chips: make([]ChipOverlap, len(r.chips))}
	for chip, l := range r.chips {
		co := ChipOverlap{Chip: chip}
		start, end := l.window()
		// pending maps in-flight async ordinals to "compute seen since
		// issue". Ordinals are per-chip unique, so the map never aliases.
		pending := make(map[int32]bool)
		for seq := start; seq < end; seq++ {
			e := l.at(seq)
			switch {
			case e.Kind == KindAsyncIssue:
				pending[e.Step] = false
			case e.Kind == KindAsyncWait:
				if overlapped, ok := pending[e.Step]; ok {
					co.AsyncOps++
					if overlapped {
						co.Overlapped++
					}
					delete(pending, e.Step)
				}
			case isComputeEvidence(e):
				for ord := range pending {
					pending[ord] = true
				}
			}
		}
		out.Chips[chip] = co
		out.AsyncOps += co.AsyncOps
		out.Overlapped += co.Overlapped
	}
	if out.AsyncOps > 0 {
		out.Fraction = float64(out.Overlapped) / float64(out.AsyncOps)
	}
	return out
}
