package obs

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("events")
	c.Inc()
	c.Add(2)
	c.AddInt(3)
	if got := c.Value(); got != 6 {
		t.Errorf("counter = %v, want 6", got)
	}
	if r.Counter("events") != c {
		t.Errorf("same name returned a different counter")
	}
	if r.Counter("events", L("algo", "summa")) == c {
		t.Errorf("labeled counter aliased the unlabeled one")
	}
}

func TestCounterNegativeAddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("negative add did not panic")
		}
	}()
	NewRegistry().Counter("x").Add(-1)
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth")
	g.Set(3)
	if got := g.Value(); got != 3 {
		t.Errorf("gauge = %v, want 3", got)
	}
	g.SetMax(10)
	g.SetMax(5)
	if got := g.Value(); got != 10 {
		t.Errorf("high-water = %v, want 10", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 2, 50, 1000} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	if len(snap.Histograms) != 1 {
		t.Fatalf("histograms = %d, want 1", len(snap.Histograms))
	}
	hp := snap.Histograms[0]
	// 0.5 and 1 land in <=1; 2 in <=10; 50 in <=100; 1000 overflows.
	want := []int64{2, 1, 1, 1}
	for i, c := range hp.Counts {
		if c != want[i] {
			t.Errorf("bucket %d = %d, want %d (%v)", i, c, want[i], hp.Counts)
		}
	}
	if hp.Count != 5 {
		t.Errorf("count = %d, want 5", hp.Count)
	}
	if hp.Sum != 1053.5 {
		t.Errorf("sum = %v, want 1053.5", hp.Sum)
	}
}

// TestObserveNMatchesRepeatedObserve holds ObserveN(v, n) to n Observe(v)
// calls bit for bit: values whose repeated sum differs from n·v (0.1; 1 and
// 1e-17 on top of 1e16), a subnormal, values on bucket bounds, and the
// overflow bucket.
func TestObserveNMatchesRepeatedObserve(t *testing.T) {
	bounds := []float64{0.1, 1, 10}
	for _, c := range []struct{ base, v float64 }{
		{0, 0.1}, {1e16, 1}, {1e16, 1e-17}, {0, 5e-324}, {0, 1}, {0, 10}, {0, 0.3}, {0, 11},
	} {
		for _, n := range []int{1, 2, 1000} {
			r := NewRegistry()
			bulk, single := r.Histogram("bulk", bounds), r.Histogram("single", bounds)
			if c.base != 0 {
				bulk.Observe(c.base)
				single.Observe(c.base)
			}
			bulk.ObserveN(c.v, n)
			for i := 0; i < n; i++ {
				single.Observe(c.v)
			}
			if math.Float64bits(bulk.Sum()) != math.Float64bits(single.Sum()) {
				t.Errorf("%g+%g×%d: sum %v, want %v", c.base, c.v, n, bulk.Sum(), single.Sum())
			}
			if bulk.Count() != single.Count() || !slices.Equal(bulk.counts, single.counts) {
				t.Errorf("%g+%g×%d: counts %v (n=%d), want %v (n=%d)", c.base, c.v, n, bulk.counts, bulk.Count(), single.counts, single.Count())
			}
		}
	}
	h := NewRegistry().Histogram("h", bounds)
	h.ObserveN(1, 0)
	h.ObserveN(1, -3)
	if h.Count() != 0 || h.Sum() != 0 || slices.ContainsFunc(h.counts, func(c int64) bool { return c != 0 }) {
		t.Errorf("n <= 0 recorded something: count %d, sum %v, buckets %v", h.Count(), h.Sum(), h.counts)
	}
}

// TestTallyMatchesObserveN holds a tally flushed into a histogram to the
// same ObserveN calls made on the histogram directly, bit for bit, with the
// histogram already holding observations and with two tallies in a row.
func TestTallyMatchesObserveN(t *testing.T) {
	bounds := []float64{0.1, 1, 10}
	obs := []struct {
		v float64
		n int
	}{{1e16, 1}, {0.1, 3}, {1e-17, 1000}, {5e-324, 2}, {10, 1}, {11, 4}, {0.3, 0}, {0.3, -2}, {0.3, 7}}
	r := NewRegistry()
	direct, tallied := r.Histogram("direct", bounds), r.Histogram("tallied", bounds)
	direct.Observe(2.5)
	tallied.Observe(2.5)
	for half := 0; half < 2; half++ {
		tally := tallied.Tally()
		for _, o := range obs[half*len(obs)/2 : (half+1)*len(obs)/2] {
			direct.ObserveN(o.v, o.n)
			tally.ObserveN(o.v, o.n)
		}
		tally.Observe(0.7)
		direct.Observe(0.7)
		tally.Flush()
	}
	if math.Float64bits(direct.Sum()) != math.Float64bits(tallied.Sum()) {
		t.Errorf("sum %v, want %v", tallied.Sum(), direct.Sum())
	}
	if direct.Count() != tallied.Count() || !slices.Equal(direct.counts, tallied.counts) {
		t.Errorf("counts %v (n=%d), want %v (n=%d)", tallied.counts, tallied.Count(), direct.counts, direct.Count())
	}
}

// TestTallyFlushAfterDirectObserve: observations that reach the histogram
// between Tally and Flush are kept, and the tally adds only its own share.
func TestTallyFlushAfterDirectObserve(t *testing.T) {
	h := NewRegistry().Histogram("h", []float64{1, 2})
	h.Observe(0.5)
	tally := h.Tally()
	tally.ObserveN(1.5, 2)
	h.Observe(4)
	tally.Flush()
	if h.Count() != 4 || h.Sum() != 7.5 || !slices.Equal(h.counts, []int64{1, 2, 1}) {
		t.Errorf("count %d, sum %v, buckets %v; want 4, 7.5, [1 2 1]", h.Count(), h.Sum(), h.counts)
	}
}

// TestTallyAllocatesNothing: a tally keeps its buckets in itself.
func TestTallyAllocatesNothing(t *testing.T) {
	h := NewRegistry().Histogram("h", []float64{0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5})
	if got := testing.AllocsPerRun(100, func() {
		tally := h.Tally()
		tally.ObserveN(0.03, 5)
		tally.Observe(0.3)
		tally.Flush()
	}); got != 0 {
		t.Errorf("Tally, ObserveN, Flush allocate %v objects, want 0", got)
	}
}

func TestTallyTooManyBucketsPanics(t *testing.T) {
	bounds := make([]float64, tallyBuckets)
	for i := range bounds {
		bounds[i] = float64(i)
	}
	h := NewRegistry().Histogram("wide", bounds)
	defer func() {
		if recover() == nil {
			t.Errorf("a tally of %d buckets did not panic", len(bounds)+1)
		}
	}()
	h.Tally()
}

func TestHistogramBadBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("non-increasing bounds did not panic")
		}
	}()
	NewRegistry().Histogram("bad", []float64{1, 1})
}

func TestHistogramReboundsPanics(t *testing.T) {
	r := NewRegistry()
	r.Histogram("h", []float64{1, 2})
	defer func() {
		if recover() == nil {
			t.Errorf("re-registration with different bounds did not panic")
		}
	}()
	r.Histogram("h", []float64{1, 3})
}

func TestSeries(t *testing.T) {
	r := NewRegistry()
	s := r.Series("best", L("phase", "2"))
	s.Append(0, 5)
	s.Append(1, 3)
	if pt := r.Snapshot().Series[0]; !slices.Equal(pt.X, []float64{0, 1}) || !slices.Equal(pt.Y, []float64{5, 3}) {
		t.Errorf("series = %v, %v; want [0 1], [5 3]", pt.X, pt.Y)
	}
	if s.Len() != 2 {
		t.Errorf("len = %d, want 2", s.Len())
	}
}

func TestCanonicalLabelOrder(t *testing.T) {
	canonical := func(name string, labels []Label) string {
		key, _ := canonical(nil, nil, name, labels)
		return string(key)
	}
	a := canonical("m", []Label{L("b", "2"), L("a", "1")})
	b := canonical("m", []Label{L("a", "1"), L("b", "2")})
	if a != b {
		t.Errorf("label order changed identity: %q vs %q", a, b)
	}
	if want := "m{a=1,b=2}"; a != want {
		t.Errorf("canonical = %q, want %q", a, want)
	}
	if got := canonical("m", nil); got != "m" {
		t.Errorf("unlabeled canonical = %q, want m", got)
	}
}

// fill populates a registry the same way regardless of call order effects.
func fill(r *Registry, order []int) {
	names := []string{"zebra", "alpha", "mid"}
	for _, i := range order {
		r.Counter(names[i], L("idx", names[i])).AddInt(int64(i + 1))
		r.Gauge("g_" + names[i]).Set(float64(i))
	}
	r.Histogram("h", []float64{1, 2, 3}).Observe(1.5)
	r.Series("s").Append(1, 2)
}

func TestSnapshotDeterministicBytes(t *testing.T) {
	// Same contents registered in different orders must serialise to
	// byte-identical JSON.
	r1, r2 := NewRegistry(), NewRegistry()
	fill(r1, []int{0, 1, 2})
	fill(r2, []int{2, 0, 1})
	var b1, b2 bytes.Buffer
	if err := r1.WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r2.WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Errorf("snapshots differ:\n%s\nvs\n%s", b1.String(), b2.String())
	}
	if !strings.Contains(b1.String(), `"alpha"`) {
		t.Errorf("snapshot missing expected content:\n%s", b1.String())
	}
	// Sorted: alpha before mid before zebra.
	s := b1.String()
	if !(strings.Index(s, "alpha") < strings.Index(s, "mid") && strings.Index(s, "mid") < strings.Index(s, "zebra")) {
		t.Errorf("counters not sorted by canonical key:\n%s", s)
	}
}

func TestConcurrentIntegerAddsDeterministic(t *testing.T) {
	// The mesh publishes from one goroutine per chip; integer-valued adds
	// must land on an exact, order-independent total.
	r := NewRegistry()
	c := r.Counter("msgs")
	h := r.Histogram("sizes", []float64{10, 100})
	g := r.Gauge("hw")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.AddInt(3)
				h.Observe(float64(i))
				g.SetMax(float64(i))
			}
		}(i)
	}
	wg.Wait()
	if got := c.Value(); got != 48000 {
		t.Errorf("counter = %v, want 48000", got)
	}
	if got := h.Count(); got != 16000 {
		t.Errorf("histogram count = %v, want 16000", got)
	}
	if got := g.Value(); got != 15 {
		t.Errorf("high-water = %v, want 15", got)
	}
}

func TestSnapshotIsACopy(t *testing.T) {
	r := NewRegistry()
	s := r.Series("traj")
	s.Append(0, 1)
	snap := r.Snapshot()
	s.Append(1, 2)
	if len(snap.Series[0].X) != 1 {
		t.Errorf("snapshot aliased live series data")
	}
	h := r.Histogram("h", []float64{1})
	h.Observe(0.5)
	snap2 := r.Snapshot()
	h.Observe(0.5)
	if snap2.Histograms[0].Counts[0] != 1 {
		t.Errorf("snapshot aliased live histogram data")
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}
