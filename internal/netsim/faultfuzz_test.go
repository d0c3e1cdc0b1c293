package netsim

import (
	"math"
	"strings"
	"testing"
	"time"

	"meshslice/internal/fault"
	"meshslice/internal/gemm"
	"meshslice/internal/sched"
	"meshslice/internal/topology"
)

// fuzzTorus is the mesh FuzzFaultPlan simulates on; its 4 chips make chip
// numbers -2..5 reach both sides of the valid range.
var fuzzTorus = topology.NewTorus(2, 2)

// fuzzFactor maps a byte to a stretch factor: the invalid values NaN, ±Inf,
// -1, 0 and 0.5, then 1 to 32 in eighths, and 1e300 at 255.
func fuzzFactor(b byte) float64 {
	switch {
	case b < 6:
		return [6]float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 0, 0.5}[b]
	case b == 255:
		return 1e300
	}
	return 1 + float64(b-6)/8
}

// fuzzTime maps a nibble to an event time against the healthy makespan m:
// the invalid values NaN, ±Inf and -m/4, then 0 to 1.25m in eighths of m,
// and 1e300 (far past the end) at 15.
func fuzzTime(c byte, m float64) float64 {
	switch {
	case c < 4:
		return [4]float64{math.NaN(), math.Inf(1), math.Inf(-1), -m / 4}[c]
	case c == 15:
		return 1e300
	}
	return m * float64(c-4) / 8
}

// decodeFaultPlan turns fuzz bytes into simulator options and a fault plan.
// The first byte sets FaultReroute (bit 0), StepLevel (bit 1) and
// CriticalPath (bit 2). Then each 4-byte record adds one event, at most 32:
// byte 0 picks the kind (b%4: degrade, straggler, link-fail, chip-fail) and
// the link direction ((b/4)%4, where 3 is no direction); byte 1 the chip
// (b%8 - 2); for a degrade or straggler byte 2 is the factor and byte 3's
// nibbles the window's start and end, for a failure byte 2's low nibble is
// its time.
func decodeFaultPlan(data []byte, m float64) (Options, *fault.Plan) {
	var opts Options
	plan := &fault.Plan{}
	if len(data) == 0 {
		return opts, plan
	}
	opts.FaultReroute, opts.StepLevel, opts.CriticalPath = data[0]&1 != 0, data[0]&2 != 0, data[0]&4 != 0
	data = data[1:]
	for i := 0; i+4 <= len(data) && i < 4*32; i += 4 {
		r := data[i : i+4]
		link := fault.Link{Chip: int(r[1]%8) - 2, Dir: topology.Direction(r[0] / 4 % 4)}
		switch r[0] % 4 {
		case 0:
			plan.Degrades = append(plan.Degrades, fault.LinkDegrade{Link: link, Factor: fuzzFactor(r[2]),
				Start: fuzzTime(r[3]&15, m), End: fuzzTime(r[3]>>4, m)})
		case 1:
			plan.Stragglers = append(plan.Stragglers, fault.Straggler{Chip: link.Chip, Slowdown: fuzzFactor(r[2]),
				Start: fuzzTime(r[3]&15, m), End: fuzzTime(r[3]>>4, m)})
		case 2:
			plan.LinkFails = append(plan.LinkFails, fault.LinkFail{Link: link, At: fuzzTime(r[2]&15, m)})
		default:
			plan.ChipFails = append(plan.ChipFails, fault.ChipFail{Chip: link.Chip, At: fuzzTime(r[2]&15, m)})
		}
	}
	return opts, plan
}

// FuzzFaultPlan drives generated fault plans — degrades, stragglers, link
// and chip failures, with NaN, ±Inf, negative and out-of-range fields —
// through Plan.Validate, Plan.Index and Simulate on a 2×2 MeshSlice
// program. Validate and Index must agree: an invalid plan is a "fault:"
// error from both, a valid one simulates within a deadline to a finished
// result or a typed Failure, never a panic or a hang.
func FuzzFaultPlan(f *testing.F) {
	prog := sched.MeshSliceProgram(gemm.Problem{M: 1024, N: 1024, K: 1024, Dataflow: gemm.OS}, fuzzTorus, testHW, 2)
	m := Simulate(prog, testHW, Options{}).Makespan
	// One seed per invalid-field class, then valid plans.
	for _, seed := range [][]byte{
		{0, 0, 2, 0, 0x94},   // degrade factor NaN
		{0, 0, 2, 2, 0x94},   // degrade factor -Inf
		{0, 0, 2, 5, 0x94},   // degrade factor 0.5, below 1
		{0, 1, 2, 4, 0x94},   // straggler slowdown 0
		{0, 1, 1, 10, 0x94},  // straggler on chip -1
		{0, 0, 7, 10, 0x94},  // degrade on chip 5, out of range
		{0, 12, 2, 10, 0x94}, // degrade with no direction
		{0, 0, 2, 10, 0x90},  // degrade starting at NaN
		{0, 1, 2, 10, 0x93},  // straggler starting at -m/4
		{0, 1, 2, 10, 0x14},  // straggler ending at +Inf
		{0, 1, 2, 10, 0x66},  // straggler with an empty window
		{0, 2, 2, 0, 0},      // link-fail at NaN
		{0, 2, 2, 2, 0},      // link-fail at -Inf
		{0, 2, 2, 3, 0},      // link-fail at -m/4
		{0, 14, 2, 6, 0},     // link-fail with no direction
		{0, 3, 2, 1, 0},      // chip-fail at +Inf
		{0, 3, 7, 4, 0},      // chip-fail on chip 5
		// Valid: a 1e300 degrade, one starting at 1e300, a straggler and a
		// dead link, rerouted, with the critical path.
		{5, 0, 2, 255, 0x44, 4, 3, 10, 0x4f, 1, 3, 30, 0x94, 2, 2, 8, 0},
		// Valid: step-level row and column degrades and a chip failure.
		{2, 0, 2, 20, 0x84, 4, 3, 20, 0x84, 3, 4, 6, 0},
		// Valid: two dead links with rerouting on.
		{1, 2, 2, 6, 0, 6, 3, 7, 0},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		opts, plan := decodeFaultPlan(data, m)
		verr := plan.Validate(fuzzTorus.Size())
		if _, ierr := plan.Index(fuzzTorus.Size()); (verr == nil) != (ierr == nil) || verr != nil && verr.Error() != ierr.Error() {
			t.Fatalf("Validate says %v, Index says %v", verr, ierr)
		}
		if verr != nil {
			if !strings.HasPrefix(verr.Error(), "fault: ") {
				t.Fatalf("untyped rejection %q", verr)
			}
			return
		}
		opts.Faults = plan
		done := make(chan Result, 1)
		go func() { done <- Simulate(prog, testHW, opts) }()
		select {
		case res := <-done:
			if math.IsNaN(res.Makespan) || res.Makespan < 0 {
				t.Fatalf("makespan %v", res.Makespan)
			}
			if res.Failed != nil && res.Failed.Kind != FailChip && res.Failed.Kind != FailLink {
				t.Fatalf("failure of unknown kind %v", res.Failed.Kind)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("Simulate did not finish within 10 s on %+v", plan)
		}
	})
}
