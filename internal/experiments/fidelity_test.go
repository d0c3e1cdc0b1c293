package experiments

import (
	"fmt"
	"math"
	"testing"
)

// checkClaim fails a claim with no measured value, one further from the
// paper than its tolerance, and one whose tolerance is looser than today's
// gap rounded up to the printed precision, so that a fidelity gain must
// tighten it. A +Inf tolerance (not comparable) gates only the first.
func checkClaim(c Claim) error {
	gap := math.Abs(c.Ours - c.Paper)
	step := math.Pow(10, -float64(c.digits()))
	switch {
	case math.IsNaN(c.Ours):
		return fmt.Errorf("%q has no measured value", c.What)
	case math.IsInf(c.Tolerance, 1):
		return nil
	case gap > c.Tolerance:
		return fmt.Errorf("%q: ours %s is %s from the paper's %s, past its tolerance %s",
			c.What, c.format("%.*f", c.Ours), c.format("%.*f", gap), c.format("%.*f", c.Paper), c.format("%.*f", c.Tolerance))
	case c.Tolerance-gap >= step:
		return fmt.Errorf("%q: the gap shrank to %s; tighten the tolerance %s",
			c.What, c.format("%.*f", gap), c.format("%.*f", c.Tolerance))
	}
	return nil
}

func TestCheckClaim(t *testing.T) {
	for _, tc := range []struct {
		c    Claim
		fail bool
	}{
		{Claim{"within", 10, 12.34, "%", 2.4}, false},
		{Claim{"below the paper", 10, 7.66, "%", 2.4}, false},
		{Claim{"past the tolerance", 10, 12.46, "%", 2.4}, true},
		{Claim{"tolerance left loose", 10, 12.04, "%", 2.4}, true},
		{Claim{"exact count", 16, 16, "", 0}, false},
		{Claim{"count one short", 16, 15, "", 0}, true},
		{Claim{"no measured value", 10, math.NaN(), "%", 2.4}, true},
		{Claim{"not comparable", 5.1, 0.6, "%", math.Inf(1)}, false},
		{Claim{"not comparable, no measured value", 5.1, math.NaN(), "%", math.Inf(1)}, true},
	} {
		if err := checkClaim(tc.c); (err != nil) != tc.fail {
			t.Errorf("%s: checkClaim = %v, want failure %v", tc.c.What, err, tc.fail)
		}
	}
}

// paperClaims lists every experiment whose numbers the paper reports and
// how many of them it states as claims; the claims themselves live beside
// the rows they compare with.
var paperClaims = []struct {
	id string
	n  int
}{
	{"fig9", 4},     // over Wang at 256 chips; efficiency lost 16→256, both LLMs
	{"fig11", 3},    // mean speedups over Collective and Wang; GeMMs won
	{"table2", 6},   // utilisation before and after, speedup, both LLMs
	{"fig13", 1},    // what the mesh shape is worth on GPT-3
	{"table3", 9},   // four columns, both LLMs; no-overlap slowdown
	{"fig15", 1},    // average error, not comparable
	{"sec7", 2},     // per-chip traffic of both 3D schemes
	{"endtoend", 2}, // the abstract's end-to-end speedups
}

// TestFidelity holds every claim of the full-size run to its tolerance.
func TestFidelity(t *testing.T) {
	byID := fullRun(t)
	want := map[string]int{}
	total := 0
	for _, pc := range paperClaims {
		want[pc.id] = pc.n
		total += pc.n
	}
	if total < 25 {
		t.Errorf("the paper's evaluation states at least 25 numbers; %d are claimed", total)
	}
	for _, id := range IDs() {
		n := 0
		for _, tbl := range byID[id] {
			for _, c := range tbl.Claims {
				n++
				if err := checkClaim(c); err != nil {
					t.Errorf("%s: %v", id, err)
				}
			}
		}
		if n != want[id] {
			t.Errorf("%s states %d claims, want %d", id, n, want[id])
		}
	}
}
