package hw

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestTPUv4Valid(t *testing.T) {
	if err := TPUv4().Validate(); err != nil {
		t.Fatalf("default TPUv4 config invalid: %v", err)
	}
}

func TestValidateCatchesEachField(t *testing.T) {
	mutations := []func(*Chip){
		func(c *Chip) { c.PeakFLOPS = 0 },
		func(c *Chip) { c.EffFLOPS = 0 },
		func(c *Chip) { c.EffFLOPS = c.PeakFLOPS * 2 },
		func(c *Chip) { c.LinkBandwidth = -1 },
		func(c *Chip) { c.SyncLatency = -1 },
		func(c *Chip) { c.LaunchOverhead = -1 },
		func(c *Chip) { c.HBMBandwidth = 0 },
		func(c *Chip) { c.BytesPerElement = 0 },
		func(c *Chip) { c.SliceBlock = 0 },
		func(c *Chip) { c.BcastPackets = 0 },
	}
	for i, mutate := range mutations {
		c := TPUv4()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d should fail validation", i)
		}
	}
}

// TestValidateRejectsNonFiniteFloats: NaN passes every ordered comparison
// check and +Inf passes the positivity ones, so each float field is set to
// NaN, +Inf and -Inf in turn and must be rejected with an error naming it.
func TestValidateRejectsNonFiniteFloats(t *testing.T) {
	typ := reflect.TypeOf(Chip{})
	fields := 0
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type.Kind() != reflect.Float64 {
			continue
		}
		fields++
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			c := TPUv4()
			reflect.ValueOf(&c).Elem().Field(i).SetFloat(v)
			err := c.Validate()
			if err == nil {
				t.Errorf("%s = %v accepted", f.Name, v)
			} else if !strings.HasPrefix(err.Error(), "hw: "+f.Name+" ") {
				t.Errorf("%s = %v: error %q does not name the field", f.Name, v, err)
			}
		}
	}
	if fields != 7 {
		t.Errorf("Chip has %d float fields, the table expects 7", fields)
	}
}

func TestUniDirectionalHalvesLinkBandwidth(t *testing.T) {
	c := TPUv4()
	u := c.UniDirectional()
	if u.LinkBandwidth != c.LinkBandwidth/2 {
		t.Errorf("UniDirectional bw = %v, want %v", u.LinkBandwidth, c.LinkBandwidth/2)
	}
	if c.LinkBandwidth != TPUv4().LinkBandwidth {
		t.Errorf("UniDirectional must not mutate the receiver")
	}
}

func TestGeMMTime(t *testing.T) {
	c := TPUv4()
	c.EffFLOPS = 1e12
	if got := c.GeMMTime(2e12); got != 2 {
		t.Errorf("GeMMTime = %v, want 2", got)
	}
	if got := c.GeMMTime(0); got != 0 {
		t.Errorf("GeMMTime(0) = %v, want 0", got)
	}
	if got := c.GeMMTime(-5); got != 0 {
		t.Errorf("GeMMTime(neg) = %v, want 0", got)
	}
}

// TestShardBytes: a shard's wire size is its element count times the
// chip's element width, bf16 on TPUv4.
func TestShardBytes(t *testing.T) {
	c := TPUv4()
	if got := 1024 * c.BytesPerElement; got != 2048 {
		t.Errorf("a 1024-element shard is %v bytes, want 2048 (bf16)", got)
	}
}

func TestRooflineTime(t *testing.T) {
	c := TPUv4()
	// Compute-bound: large FLOPs, tiny bytes.
	if got := c.RooflineTime(c.EffFLOPS, 1); got != 1 {
		t.Errorf("compute-bound roofline = %v, want 1s", got)
	}
	// Memory-bound: tiny FLOPs, HBM-bandwidth bytes.
	if got := c.RooflineTime(1, 2*c.HBMBandwidth); got != 2 {
		t.Errorf("memory-bound roofline = %v, want 2s", got)
	}
}
