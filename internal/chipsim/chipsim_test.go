package chipsim

import (
	"testing"

	"meshslice/internal/hw"
)

func core() Core { return FromChip(hw.TPUv4()) }

func TestValidate(t *testing.T) {
	if err := core().Validate(); err != nil {
		t.Fatalf("derived core invalid: %v", err)
	}
	mutations := []func(*Core){
		func(c *Core) { c.Tile = 0 },
		func(c *Core) { c.MACsPerSecond = 0 },
		func(c *Core) { c.ScratchpadBytes = 0 },
		func(c *Core) { c.HBMBandwidth = 0 },
		func(c *Core) { c.BytesPerElement = 0 },
	}
	for i, m := range mutations {
		c := core()
		m(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestGeMMRejectsDegenerateShapes(t *testing.T) {
	if _, err := core().GeMM(0, 8, 8); err == nil {
		t.Errorf("M=0 accepted")
	}
	if _, err := (Core{}).GeMM(8, 8, 8); err == nil {
		t.Errorf("invalid core accepted")
	}
}

func TestTileCountAndOccupancy(t *testing.T) {
	c := core()
	// Exact multiple of the tile: full occupancy.
	r, err := c.GeMM(256, 256, 256)
	if err != nil {
		t.Fatal(err)
	}
	if r.Tiles != 8 {
		t.Errorf("tiles = %d, want 2·2·2", r.Tiles)
	}
	if r.Occupancy != 1 {
		t.Errorf("aligned GeMM occupancy = %v, want 1", r.Occupancy)
	}
	// One row of real data in each tile: occupancy collapses.
	r2, err := c.GeMM(1, 256, 256)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Occupancy >= 0.01 {
		t.Errorf("1-row GeMM occupancy = %v, want ≈1/128", r2.Occupancy)
	}
}

func TestLargeGeMMApproachesCalibratedRate(t *testing.T) {
	c := core()
	eff, err := c.EffectiveFLOPS(8192, 8192, 8192)
	if err != nil {
		t.Fatal(err)
	}
	calibrated := 2 * c.MACsPerSecond
	if eff < 0.85*calibrated || eff > calibrated {
		t.Errorf("large GeMM achieves %v of %v", eff, calibrated)
	}
}

func TestThinSlicesLoseEfficiency(t *testing.T) {
	// The §5.3.1 effect: MeshSlice's fine-grained partial GeMMs (the K
	// dimension divided by S) run less efficiently than the monolithic
	// multiplication.
	c := core()
	whole, err := c.EffectiveFLOPS(8192, 768, 12288)
	if err != nil {
		t.Fatal(err)
	}
	slice, err := c.EffectiveFLOPS(8192, 768, 12288/32) // S=32 slice
	if err != nil {
		t.Fatal(err)
	}
	if slice >= whole {
		t.Errorf("sliced GeMM (%v) should be less efficient than whole (%v)", slice, whole)
	}
	// But the loss must be modest for the S values the autotuner picks —
	// the paper measures only a few percent of overhead.
	s16, err := c.EffectiveFLOPS(8192, 768, 12288/16)
	if err != nil {
		t.Fatal(err)
	}
	if s16 < 0.5*whole {
		t.Errorf("S=16 slice collapses to %v of %v", s16, whole)
	}
}

func TestTimeDecomposition(t *testing.T) {
	r, err := core().GeMM(1024, 1024, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if r.Time < r.ComputeTime {
		t.Errorf("time %v below pure compute %v", r.Time, r.ComputeTime)
	}
	if r.ComputeTime <= 0 || r.PrefetchTime <= 0 {
		t.Errorf("degenerate decomposition %+v", r)
	}
}

func TestMemoryBoundTinyGeMM(t *testing.T) {
	// A tall-skinny decode-like GeMM: prefetch dominates the MACs.
	r, err := core().GeMM(128, 12288, 12288)
	if err != nil {
		t.Fatal(err)
	}
	if r.PrefetchTime <= r.ComputeTime {
		t.Errorf("decode GeMM should be prefetch-bound: %+v", r)
	}
}

func TestCeilDiv(t *testing.T) {
	cases := [][3]int64{{7, 2, 4}, {8, 2, 4}, {1, 128, 1}, {129, 128, 2}}
	for _, c := range cases {
		if got := ceilDiv(c[0], c[1]); got != c[2] {
			t.Errorf("ceilDiv(%d,%d) = %d, want %d", c[0], c[1], got, c[2])
		}
	}
}

// EffectiveFLOPS returns the achieved throughput of the tiled model for a
// GeMM shape: useful FLOPs over modelled time. Large square GeMMs approach
// the calibrated MAC rate; thin slices fall well below it.
func (c Core) EffectiveFLOPS(m, n, k int) (float64, error) {
	r, err := c.GeMM(m, n, k)
	if err != nil {
		return 0, err
	}
	return 2 * float64(m) * float64(n) * float64(k) / r.Time, nil
}
