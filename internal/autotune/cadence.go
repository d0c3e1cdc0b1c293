package autotune

import (
	"fmt"
	"math"
)

// Checkpoint cadence tuning: given the tuned step time, the per-epoch
// checkpoint stall, and a mean time between
// failures, pick how many steps to run between snapshots. This is the
// classic Young–Daly trade-off — checkpoint too often and the stalls
// dominate, too rarely and every failure rewinds half an interval — with
// the optimum at k·T = sqrt(2·C·MTBF).

// Cadence is a tuned checkpoint interval.
type Cadence struct {
	// Every is the number of training steps between snapshots.
	Every int
	// Overhead is the expected fraction of run time lost at this cadence:
	// checkpoint stalls plus expected rework after failures.
	Overhead float64
}

// cadenceOverhead is the expected per-step overhead fraction at interval k:
// the stall amortised over the interval, C/(k·T), plus the expected rework,
// k·T/(2·MTBF) (on failure, on average half an interval replays).
func cadenceOverhead(k int, stepTime, ckptStall, mtbf float64) float64 {
	return ckptStall/(float64(k)*stepTime) + float64(k)*stepTime/(2*mtbf)
}

// TuneCadence returns the checkpoint interval minimising expected overhead
// for a run with the given step time, per-epoch checkpoint stall, and mean
// time between failures (all in seconds). The continuous optimum
// k* = sqrt(2·C·MTBF)/T is rounded to whichever neighbouring integer
// interval has the lower overhead, and never below one step.
// lint:allow unused kept with its tests; ROADMAP item 15 lists it among the rows still to decide
func TuneCadence(stepTime, ckptStall, mtbf float64) (Cadence, error) {
	switch {
	case stepTime <= 0:
		return Cadence{}, fmt.Errorf("autotune: step time %v must be positive", stepTime)
	case ckptStall < 0:
		return Cadence{}, fmt.Errorf("autotune: checkpoint stall %v must be non-negative", ckptStall)
	case mtbf <= 0:
		return Cadence{}, fmt.Errorf("autotune: MTBF %v must be positive", mtbf)
	}
	if ckptStall == 0 { // lint:float-exact exact zero: the validated no-cost sentinel, not a computed value
		// Free checkpoints: snapshot every step.
		return Cadence{Every: 1, Overhead: cadenceOverhead(1, stepTime, 0, mtbf)}, nil
	}
	kStar := math.Sqrt(2*ckptStall*mtbf) / stepTime
	lo := int(math.Floor(kStar))
	if lo < 1 {
		lo = 1
	}
	best := Cadence{Every: lo, Overhead: cadenceOverhead(lo, stepTime, ckptStall, mtbf)}
	if hi := lo + 1; cadenceOverhead(hi, stepTime, ckptStall, mtbf) < best.Overhead {
		best = Cadence{Every: hi, Overhead: cadenceOverhead(hi, stepTime, ckptStall, mtbf)}
	}
	return best, nil
}
