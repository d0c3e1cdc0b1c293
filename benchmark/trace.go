package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer.
// Spans of one op share Round and Op; Parent is the span that was open on
// the driver goroutine when this one began (0 = none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Round  int    `json:"round"`
	Op     int    `json:"op"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. The harness has one
// driver goroutine, so the open-span stack gives parentage without ids
// being threaded through the calls.
type tracer struct {
	t0     time.Time
	spans  []span
	stack  []int
	round  int
	op     int
	rounds int
	// blackMs is the median raw wall time of the untraced black-box
	// rounds of the same run, for metrics defined against the whole op.
	blackMs float64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), round: -1} }

func (t *tracer) nextRound() { t.round = t.rounds; t.rounds++; t.op = 0 }

// endRounds marks what follows (probes) as outside any traced round.
func (t *tracer) endRounds() { t.round = -1 }

func (t *tracer) nextOp() {
	if t != nil {
		t.op++
	}
}

// do runs fn inside a span; a nil tracer just runs fn, which is how the
// black-box rounds and the probes share code with the traced rounds.
func (t *tracer) do(layer, name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Round: t.round, Op: t.op, Layer: layer, Name: name})
	t.stack = append(t.stack, id)
	start := time.Since(t.t0)
	fn()
	end := time.Since(t.t0)
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id-1].Start = start.Nanoseconds()
	t.spans[id-1].End = end.Nanoseconds()
}

// perRound returns, for every traced round, the summed duration in ms of
// the spans that match.
func (t *tracer) perRound(match func(span) bool) []float64 {
	out := make([]float64, t.rounds)
	for _, s := range t.spans {
		if s.Round >= 0 && match(s) {
			out[s.Round] += float64(s.End-s.Start) / 1e6
		}
	}
	return out
}

func named(names ...string) func(span) bool {
	return func(s span) bool {
		for _, n := range names {
			if s.Name == n {
				return true
			}
		}
		return false
	}
}

// ms returns the per-round median of the matching spans' summed time.
func (t *tracer) ms(names ...string) float64 { return median(t.perRound(named(names...))) }

// calls returns how many matching spans one round holds.
func (t *tracer) calls(names ...string) float64 {
	if t.rounds == 0 {
		return 0
	}
	n := 0
	match := named(names...)
	for _, s := range t.spans {
		if s.Round >= 0 && match(s) {
			n++
		}
	}
	return float64(n) / float64(t.rounds)
}

// selfMs returns each layer's self time per round: its spans' durations
// minus the part their child spans cover.
func (t *tracer) selfMs() map[string]float64 {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += s.End - s.Start
	}
	self := map[string]float64{}
	for _, s := range t.spans {
		if s.Round >= 0 {
			self[s.Layer] += float64(s.End-s.Start-child[s.ID]) / 1e6
		}
	}
	for layer := range self {
		self[layer] /= float64(max(t.rounds, 1))
	}
	return self
}

type layerSelf struct {
	Layer string  `json:"layer"`
	Ms    float64 `json:"self_ms_per_round"`
}

// write stores the spans and the per-layer self times as
// dir/<workload>.trace.json.
func (t *tracer) write(dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	self := t.selfMs()
	layers := make([]layerSelf, 0, len(self))
	for layer, v := range self {
		layers = append(layers, layerSelf{layer, v})
	}
	sort.Slice(layers, func(i, j int) bool { return layers[i].Layer < layers[j].Layer })
	data, err := json.MarshalIndent(struct {
		Workload string      `json:"workload"`
		Seed     int64       `json:"seed"`
		Rounds   int         `json:"rounds"`
		Layers   []layerSelf `json:"layers"`
		Spans    []span      `json:"spans"`
	}{workload, seed, t.rounds, layers, t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".trace.json"), append(data, '\n'), 0o644)
}
