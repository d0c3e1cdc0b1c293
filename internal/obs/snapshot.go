package obs

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Snapshot is a point-in-time, fully ordered copy of a registry's metrics.
// Serialising it (WriteJSON) is deterministic: every slice is sorted by the
// metric's canonical key, label maps render with their keys sorted, and
// values come from deterministic simulations.
type Snapshot struct {
	Counters   []CounterPoint   `json:"counters,omitempty"`
	Gauges     []GaugePoint     `json:"gauges,omitempty"`
	Histograms []HistogramPoint `json:"histograms,omitempty"`
	Series     []SeriesPoint    `json:"series,omitempty"`
}

// CounterPoint is one counter's state.
type CounterPoint struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
}

// GaugePoint is one gauge's state.
type GaugePoint struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
}

// HistogramPoint is one histogram's state: Counts[i] pairs with Bounds[i],
// with the final element of Counts holding the overflow bucket.
type HistogramPoint struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Bounds []float64         `json:"bounds"`
	Counts []int64           `json:"counts"`
	Sum    float64           `json:"sum"`
	Count  int64             `json:"count"`
}

// SeriesPoint is one series' state as parallel X/Y arrays.
type SeriesPoint struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	X      []float64         `json:"x"`
	Y      []float64         `json:"y"`
}

func labelMap(labels []Label) map[string]string {
	if len(labels) == 0 {
		return nil
	}
	m := make(map[string]string, len(labels))
	for _, l := range labels {
		m[l.Key] = l.Value
	}
	return m
}

// instruments returns the registry's instruments, each kind sorted by key.
func (r *Registry) instruments() ([]*Counter, []*Gauge, []*Histogram, []*Series) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return sortedByKey(r.counters), sortedByKey(r.gauges), sortedByKey(r.histograms), sortedByKey(r.series)
}

func sortedByKey[T instrument](m map[string]T) []T {
	s := make([]T, 0, len(m))
	for _, v := range m {
		s = append(s, v)
	}
	slices.SortFunc(s, func(a, b T) int { return strings.Compare(a.meta().key, b.meta().key) })
	return s
}

// Snapshot copies the registry's current state into a sorted Snapshot.
func (r *Registry) Snapshot() Snapshot {
	counters, gauges, hists, series := r.instruments()
	return Snapshot{
		Counters: points(counters, func(c *Counter) CounterPoint {
			return CounterPoint{Name: c.name, Labels: labelMap(c.labels), Value: c.value}
		}),
		Gauges: points(gauges, func(g *Gauge) GaugePoint {
			return GaugePoint{Name: g.name, Labels: labelMap(g.labels), Value: g.value}
		}),
		Histograms: points(hists, func(h *Histogram) HistogramPoint {
			return HistogramPoint{Name: h.name, Labels: labelMap(h.labels), Bounds: append([]float64(nil), h.bounds...),
				Counts: append([]int64(nil), h.counts...), Sum: h.sum, Count: h.n}
		}),
		Series: points(series, func(s *Series) SeriesPoint {
			return SeriesPoint{Name: s.name, Labels: labelMap(s.labels), X: append([]float64(nil), s.xs...), Y: append([]float64(nil), s.ys...)}
		}),
	}
}

// points copies out each instrument of ms under its lock; nil for none.
func points[T instrument, P any](ms []T, point func(T) P) []P {
	var ps []P
	for _, m := range ms {
		locked(func(m T) { ps = append(ps, point(m)) })(m)
	}
	return ps
}

type instrument interface{ meta() *metricMeta } // any of the four kinds

// locked wraps f to run under its instrument's lock.
func locked[T instrument](f func(T)) func(T) {
	return func(m T) { m.meta().mu.Lock(); defer m.meta().mu.Unlock(); f(m) }
}

// WriteJSON serialises the snapshot as indented JSON in one Write call: the
// bytes a json.Encoder with SetIndent("", "  ") prints for it, label keys
// sorted, HTML escaped, a nil slice as null, then a newline. A NaN or
// infinite value makes it return an error and write nothing.
// lint:allow unused minitrain's and recorder's golden tests pin snapshot bytes through it
func (s Snapshot) WriteJSON(w io.Writer) error {
	var lb [8]Label
	labels := func(m map[string]string) []Label {
		ls := lb[:0]
		for k, v := range m {
			ls = append(ls, Label{k, v})
		}
		slices.SortFunc(ls, func(a, b Label) int { return strings.Compare(a.Key, b.Key) })
		return ls
	}
	var j snapshotJSON
	j.start(sizeOf(s.Counters, func(p CounterPoint) int { return size(p.Name, labels(p.Labels), 1) }) +
		sizeOf(s.Gauges, func(p GaugePoint) int { return size(p.Name, labels(p.Labels), 1) }) +
		sizeOf(s.Histograms, func(p HistogramPoint) int { return size(p.Name, labels(p.Labels), len(p.Bounds)+len(p.Counts)+2) }) +
		sizeOf(s.Series, func(p SeriesPoint) int { return size(p.Name, labels(p.Labels), len(p.X)+len(p.Y)) }))
	array(&j, "counters", s.Counters, func(p CounterPoint) { j.value(p.Name, labels(p.Labels), p.Value) }, true)
	array(&j, "gauges", s.Gauges, func(p GaugePoint) { j.value(p.Name, labels(p.Labels), p.Value) }, true)
	array(&j, "histograms", s.Histograms, func(p HistogramPoint) { j.histogram(p.Name, labels(p.Labels), p.Bounds, p.Counts, p.Sum, p.Count) }, true)
	array(&j, "series", s.Series, func(p SeriesPoint) { j.series(p.Name, labels(p.Labels), p.X, p.Y) }, true)
	return j.flush(w)
}

// WriteJSON writes r.Snapshot().WriteJSON's bytes straight from the sorted
// instruments, building no label maps (their empty slices are nil too).
func (r *Registry) WriteJSON(w io.Writer) error {
	counters, gauges, hists, series := r.instruments()
	var j snapshotJSON
	j.start(sizeOf(counters, func(c *Counter) int { return size(c.name, c.labels, 1) }) +
		sizeOf(gauges, func(g *Gauge) int { return size(g.name, g.labels, 1) }) +
		sizeOf(hists, func(h *Histogram) int { return size(h.name, h.labels, 2*len(h.bounds)+3) }) +
		sizeOf(series, func(s *Series) int { s.mu.Lock(); defer s.mu.Unlock(); return size(s.name, s.labels, 2*len(s.xs)) }))
	array(&j, "counters", counters, locked(func(c *Counter) { j.value(c.name, c.labels, c.value) }), true)
	array(&j, "gauges", gauges, locked(func(g *Gauge) { j.value(g.name, g.labels, g.value) }), true)
	array(&j, "histograms", hists, locked(func(h *Histogram) { j.histogram(h.name, h.labels, h.bounds, h.counts, h.sum, h.n) }), true)
	array(&j, "series", series, locked(func(s *Series) { j.series(s.name, s.labels, s.xs, s.ys) }), true)
	return j.flush(w)
}

// snapshotJSON appends a Snapshot's indented JSON. Opening a container
// writes no newline, so an empty one stays {} or [] as json.Indent leaves
// it; each element starts a line, after a comma unless it is the first.
type snapshotJSON struct {
	b     []byte
	depth int
	first bool // nothing written yet in the innermost open container
	err   error
}

// start takes the package's held buffer, or presizes a new one, so a write
// allocates a fixed number of objects.
func (j *snapshotJSON) start(size int) {
	j.b = heldBuf.Take(size + 16)[:0]
	j.open('{')
}

// size bounds a metric's indented bytes when its strings need no escaping:
// name and label text, then at most 16 per label, 34 per number, 128 else.
func size(name string, labels []Label, numbers int) int {
	n := 128 + len(name) + 34*numbers
	for _, l := range labels {
		n += 16 + len(l.Key) + len(l.Value)
	}
	return n
}

func sizeOf[T any](ms []T, size func(T) int) (n int) {
	for _, m := range ms {
		n += size(m)
	}
	return n
}

const indent = "                " // eight levels of two spaces

func (j *snapshotJSON) elem() {
	if !j.first {
		j.b = append(j.b, ',')
	}
	j.first = false
	j.b = append(append(j.b, '\n'), indent[:2*j.depth]...)
}

func (j *snapshotJSON) key(k string) *snapshotJSON {
	j.elem()
	j.b = append(appendJSONString(j.b, k), ": "...)
	return j
}

func (j *snapshotJSON) str(s string) { j.b = appendJSONString(j.b, s) }

func (j *snapshotJSON) open(c byte) {
	j.b = append(j.b, c)
	j.depth++
	j.first = true
}

func (j *snapshotJSON) end(c byte) {
	j.depth--
	if !j.first {
		j.b = append(append(j.b, '\n'), indent[:2*j.depth]...)
	}
	j.b = append(j.b, c)
	j.first = false
}

// array writes key and the array of xs, null when xs is nil; a section of
// metrics has omitempty, so none at all when it is empty.
func array[T any](j *snapshotJSON, key string, xs []T, write func(T), section bool) {
	if section && len(xs) == 0 {
		return
	}
	j.key(key)
	if xs == nil {
		j.b = append(j.b, "null"...)
		return
	}
	j.open('[')
	for _, x := range xs {
		j.elem()
		write(x)
	}
	j.end(']')
}

// metric opens a metric's object with its name and any labels; of sorted
// labels sharing a key the last wins, as in a map built from them.
func (j *snapshotJSON) metric(name string, labels []Label) {
	j.open('{')
	j.key("name").str(name)
	if len(labels) > 0 {
		j.key("labels")
		j.open('{')
		for i, l := range labels {
			if i+1 == len(labels) || labels[i+1].Key != l.Key {
				j.key(l.Key).str(l.Value)
			}
		}
		j.end('}')
	}
}

func (j *snapshotJSON) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		j.err = fmt.Errorf("obs: snapshot has unsupported value %v", f)
	}
	j.b = appendJSONFloat(j.b, f)
}

func (j *snapshotJSON) int(n int64) { j.b = strconv.AppendInt(j.b, n, 10) }

func (j *snapshotJSON) value(name string, labels []Label, v float64) {
	j.metric(name, labels)
	j.key("value").float(v)
	j.end('}')
}

func (j *snapshotJSON) histogram(name string, labels []Label, bounds []float64, counts []int64, sum float64, n int64) {
	j.metric(name, labels)
	array(j, "bounds", bounds, j.float, false)
	array(j, "counts", counts, j.int, false)
	j.key("sum").float(sum)
	j.key("count").int(n)
	j.end('}')
}

func (j *snapshotJSON) series(name string, labels []Label, x, y []float64) {
	j.metric(name, labels)
	array(j, "x", x, j.float, false)
	array(j, "y", y, j.float, false)
	j.end('}')
}

// flush closes the snapshot and writes it, or nothing after a NaN or ±Inf,
// then gives the buffer back to the package.
func (j *snapshotJSON) flush(w io.Writer) error {
	err := j.err
	if err == nil {
		j.end('}')
		j.b = append(j.b, '\n')
		_, err = w.Write(j.b)
	}
	heldBuf.Give(j.b)
	return err
}
