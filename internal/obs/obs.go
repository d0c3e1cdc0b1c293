// Package obs is the repository's observability layer: a deterministic
// in-process metrics registry the simulator stack (des, netsim, autotune)
// and the functional runtime (mesh) publish into.
//
// Determinism is the design constraint everything else follows. Simulated
// results are bit-for-bit reproducible, so their telemetry must be too:
//
//   - Metrics carry no wall-clock timestamps; any time-valued metric is
//     simulated time (seconds on the des clock). meshlint's no-wallclock
//     analyzer enforces this mechanically for the whole package.
//   - Snapshots serialise with fully sorted keys — metrics by canonical key,
//     label sets by key, both sorted here, not by encoding/json — so two runs
//     of the same workload produce byte-identical JSON.
//   - Concurrent publishers (the mesh's chip goroutines) must only make
//     integer-valued Add calls. Integer-valued float64 addition is exact
//     (below 2^53), hence order-independent, hence deterministic even when
//     goroutine interleaving is not. Fractional values are reserved for the
//     single-threaded simulator, where program order fixes the float
//     rounding sequence.
//
// The registry is intentionally tiny and stdlib-only: four metric kinds
// (Counter, Gauge, Histogram, Series) cover the repo's needs — monotone
// event counts, level/high-water readings, duration distributions, and
// ordered trajectories such as the autotuner's best-so-far curve.
package obs

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Label is one key=value dimension of a metric.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// PadInt renders v zero-padded to the digit width of ceil-1, so label
// values for indices in [0, ceil) sort lexicographically in numeric order
// ("07" < "12"). Snapshots sort by label strings; without padding chip 10
// would sort before chip 2.
func PadInt(v, ceil int) string {
	width := len(strconv.Itoa(ceil - 1))
	s := strconv.Itoa(v)
	for len(s) < width {
		s = "0" + s
	}
	return s
}

// canonical sorts labels by key into ls and appends name{k1=v1,k2=v2} to
// key: the registry map key and the order snapshots serialise in, which
// makes them deterministic. slices.SortFunc runs sort.Slice's pdqsort
// without reflection, so duplicate keys keep their order.
func canonical(key []byte, ls []Label, name string, labels []Label) ([]byte, []Label) {
	ls = append(ls, labels...)
	slices.SortFunc(ls, func(a, b Label) int { return strings.Compare(a.Key, b.Key) })
	key = append(key, name...)
	for i, l := range ls {
		key = append(append(append(append(key, "{,"[min(i, 1)]), l.Key...), '='), l.Value...)
	}
	if len(ls) > 0 {
		key = append(key, '}')
	}
	return key, ls
}

// Registry holds the metric instruments. The zero value is not usable; call
// NewRegistry. All methods are safe for concurrent use.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	series     map[string]*Series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		series:     make(map[string]*Series),
	}
}

// Counter returns the counter with the given name and labels, creating it
// on first use. Counters are monotone: Add panics on negative increments.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	return lookup(r, r.counters, name, labels, func() *Counter { return new(Counter) })
}

// Gauge returns the gauge with the given name and labels, creating it on
// first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	return lookup(r, r.gauges, name, labels, func() *Gauge { return new(Gauge) })
}

// Histogram returns the histogram with the given name, labels and upper
// bucket bounds, creating it on first use. Bounds must be strictly
// increasing; observations above the last bound land in the implicit
// overflow bucket. Re-registering an existing histogram with different
// bounds panics: silently returning either shape would corrupt one caller's
// view.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not strictly increasing: %v", name, bounds)) // lint:invariant registration precondition
		}
	}
	h := lookup(r, r.histograms, name, labels, func() *Histogram {
		return &Histogram{bounds: append([]float64(nil), bounds...), counts: make([]int64, len(bounds)+1)}
	})
	if len(h.bounds) != len(bounds) {
		panic(fmt.Sprintf("obs: histogram %q re-registered with %d bounds, have %d", name, len(bounds), len(h.bounds))) // lint:invariant registration precondition
	}
	for i := range bounds {
		if h.bounds[i] != bounds[i] { // lint:float-exact registration must match exactly; approximate bucket bounds would silently merge histograms
			panic(fmt.Sprintf("obs: histogram %q re-registered with different bounds", name)) // lint:invariant registration precondition
		}
	}
	return h
}

// Series returns the ordered-point series with the given name and labels,
// creating it on first use.
func (r *Registry) Series(name string, labels ...Label) *Series {
	return lookup(r, r.series, name, labels, func() *Series { return new(Series) })
}

// metricMeta is the identity shared by every instrument kind.
type metricMeta struct {
	name   string
	key    string // canonical name{labels} string
	labels []Label
	mu     sync.Mutex
}

func (m *metricMeta) meta() *metricMeta { return m }

// lookup returns m's instrument with this name and labels, registering the
// one fresh makes on first use; one it finds costs no allocation.
func lookup[T instrument](r *Registry, m map[string]T, name string, labels []Label, fresh func() T) T {
	var kb [256]byte
	var lb [8]Label
	key, ls := canonical(kb[:0], lb[:0], name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := m[string(key)]
	if !ok {
		k := name // an unlabeled metric's key is its name
		if len(ls) > 0 {
			k = string(key)
		}
		v = fresh()
		*v.meta() = metricMeta{name: name, key: k, labels: append([]Label(nil), ls...)}
		m[k] = v
	}
	return v
}

// Counter is a monotonically increasing value.
type Counter struct {
	metricMeta
	value float64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increments the counter. Negative deltas panic — a counter that can
// decrease is a gauge. Concurrent callers must pass integer-valued deltas
// (see the package comment's determinism rules).
func (c *Counter) Add(delta float64) {
	if delta < 0 {
		panic(fmt.Sprintf("obs: counter %s: negative add %v", c.key, delta)) // lint:invariant monotonicity precondition
	}
	c.mu.Lock()
	c.value += delta
	c.mu.Unlock()
}

// AddInt increments the counter by an integer delta (negative deltas panic).
func (c *Counter) AddInt(delta int64) { c.Add(float64(delta)) }

// Value returns the current count.
func (c *Counter) Value() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.value
}

// Gauge is a value that can move both ways: a level, a high-water mark, a
// fraction.
type Gauge struct {
	metricMeta
	value float64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	g.mu.Lock()
	g.value = v
	g.mu.Unlock()
}

// SetMax raises the gauge to v if v exceeds the current value — the
// high-water-mark update (e.g. the des queue depth).
func (g *Gauge) SetMax(v float64) {
	g.mu.Lock()
	if v > g.value {
		g.value = v
	}
	g.mu.Unlock()
}

// Value returns the current reading.
func (g *Gauge) Value() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.value
}

// Histogram counts observations into fixed buckets. Bucket i counts
// observations v with v <= bounds[i] (and > bounds[i-1]); one extra
// overflow bucket counts v > bounds[len-1].
type Histogram struct {
	metricMeta
	bounds []float64
	counts []int64
	sum    float64
	n      int64
}

// ObserveN records the value v n times under one lock; n <= 0 records
// nothing. The sum adds v once per observation rather than n·v, so the
// result is bit-identical to n Observe(v) calls.
func (h *Histogram) ObserveN(v float64, n int) {
	if n <= 0 {
		return
	}
	// Binary search for the first bound >= v.
	idx := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	h.counts[idx] += int64(n)
	for i := 0; i < n; i++ {
		h.sum += v
	}
	h.n += int64(n)
	h.mu.Unlock()
}

// tallyBuckets bounds the bucket count (bounds plus overflow) of a
// histogram a Tally can batch; its counts live in the Tally itself.
const tallyBuckets = 16

// Tally batches one single-threaded writer's observations of a histogram
// without the histogram's lock or an allocation: ObserveN updates the
// tally, and Flush folds it into the histogram once. Its sum starts from
// the histogram's and adds v once per observation in the caller's order,
// so a histogram nobody else touches between Tally and Flush ends
// bit-identical to the same ObserveN calls made on it directly.
type Tally struct {
	h             *Histogram
	counts        [tallyBuckets]int64
	n, startN     int64
	sum, startSum float64
}

// Tally starts a batch of observations of h. The histogram must have at
// most 15 bounds.
func (h *Histogram) Tally() Tally {
	if len(h.counts) > tallyBuckets {
		panic(fmt.Sprintf("obs: histogram %s has %d buckets, a tally holds %d", h.key, len(h.counts), tallyBuckets)) // lint:invariant tally capacity precondition
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return Tally{h: h, startN: h.n, sum: h.sum, startSum: h.sum}
}

// Observe records one value in the tally.
//
// lint:hotpath once per serving completion
func (t *Tally) Observe(v float64) { t.ObserveN(v, 1) }

// ObserveN records the value v n times in the tally; n <= 0 records
// nothing. Like Histogram.ObserveN, the sum adds v once per observation.
//
// lint:hotpath once per serving step; takes no lock
func (t *Tally) ObserveN(v float64, n int) {
	if n <= 0 {
		return
	}
	t.counts[sort.SearchFloat64s(t.h.bounds, v)] += int64(n)
	sum := t.sum
	for i := 0; i < n; i++ {
		sum += v
	}
	t.sum = sum
	t.n += int64(n)
}

// Flush folds the tally into its histogram and empties it. When the
// histogram has taken no observation since Tally, its sum becomes the
// tally's; otherwise (concurrent writers) it adds the tally's share.
func (t *Tally) Flush() {
	h := t.h
	h.mu.Lock()
	for i := range h.counts {
		h.counts[i] += t.counts[i]
	}
	if h.n == t.startN {
		h.sum = t.sum
	} else {
		h.sum += t.sum - t.startSum
	}
	h.n += t.n
	*t = Tally{h: h, startN: h.n, sum: h.sum, startSum: h.sum}
	h.mu.Unlock()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Series is an append-only ordered list of (x, y) points: a trajectory over
// some deterministic progress coordinate (candidate index, simulated time).
type Series struct {
	metricMeta
	xs, ys []float64
}

// Append adds one point. Callers append in a deterministic order; the
// series preserves it.
func (s *Series) Append(x, y float64) {
	s.mu.Lock()
	s.xs = append(s.xs, x)
	s.ys = append(s.ys, y)
	s.mu.Unlock()
}

// Len returns the number of points.
func (s *Series) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.xs)
}
