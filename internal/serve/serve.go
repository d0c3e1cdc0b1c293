package serve

import (
	"fmt"
	"math"
	"slices"

	"meshslice/internal/fault"
	"meshslice/internal/hw"
	"meshslice/internal/memory"
	"meshslice/internal/model"
	"meshslice/internal/obs"
	"meshslice/internal/topology"
)

// Policy is the continuous-batching knob set the serving autotuner sweeps
// alongside mesh shape.
type Policy struct {
	// MaxBatch caps the number of concurrently running requests (default 32).
	MaxBatch int `json:"max_batch"`
	// ChunkTokens is the prefill chunk processed per scheduler step
	// (chunked prefill: one request prefills per step, interleaved with
	// the decode batch; default 512).
	ChunkTokens int `json:"chunk_tokens"`
	// SliceCount is MeshSlice's S for the FC GeMMs (default 4).
	SliceCount int `json:"slice_count"`
}

func (p Policy) withDefaults() Policy {
	if p.MaxBatch <= 0 {
		p.MaxBatch = 32
	}
	if p.ChunkTokens <= 0 {
		p.ChunkTokens = 512
	}
	if p.SliceCount <= 0 {
		p.SliceCount = 4
	}
	return p
}

// SLO is the latency objective a request must meet to count toward
// goodput: time-to-first-token and mean per-output-token latency, both in
// simulated seconds.
type SLO struct {
	TTFT     float64 `json:"ttft_s"`
	PerToken float64 `json:"per_token_s"`
}

func (s SLO) withDefaults() SLO {
	if s.TTFT <= 0 {
		s.TTFT = 0.5
	}
	if s.PerToken <= 0 {
		s.PerToken = 0.05
	}
	return s
}

// Config describes one serving deployment: a model on a mesh shape with a
// batching policy, an SLO, and an optional fault plan degrading the fabric.
type Config struct {
	Model  model.Config
	Chip   hw.Chip
	Mesh   topology.Torus
	Policy Policy
	SLO    SLO
	// HBMBytes is the per-chip HBM capacity the KV cache competes for
	// (default 32 GiB, TPUv4).
	HBMBytes float64
	// ClusterChips is the physical cluster size the fault plan's chip IDs
	// refer to; the mesh may be smaller (a post-failure retune maps onto
	// the survivors). Zero means the mesh size.
	ClusterChips int
	// Faults optionally degrades the fabric (per-direction link
	// degradation, stragglers, failures — chip IDs in cluster
	// coordinates). Link factors apply direction-wide, the conservative
	// worst case: a retuned mesh cannot dodge a sick column by placement,
	// only by shape. Nil means healthy.
	Faults *fault.Plan
	// Registry optionally receives the run's metrics; a private registry
	// is created when nil.
	Registry *obs.Registry
	// Prices optionally shares step prices with the other Runs of a sweep
	// (see NewPrices); nil prices the run privately. A cache built for
	// another model, chip, cluster size or fault plan is an error.
	Prices *Prices
}

// Validate reports the first invalid configuration field.
func (c Config) Validate() error {
	if err := c.Model.Validate(); err != nil {
		return err
	}
	if err := c.Chip.Validate(); err != nil {
		return err
	}
	if c.Mesh.Rows <= 0 || c.Mesh.Cols <= 0 {
		return fmt.Errorf("serve: mesh %dx%d", c.Mesh.Rows, c.Mesh.Cols)
	}
	if math.IsNaN(c.HBMBytes) || math.IsInf(c.HBMBytes, 0) {
		return fmt.Errorf("serve: HBM capacity %v bytes", c.HBMBytes)
	}
	if c.ClusterChips != 0 && c.ClusterChips < c.Mesh.Size() {
		return fmt.Errorf("serve: mesh %dx%d needs %d chips, cluster has %d",
			c.Mesh.Rows, c.Mesh.Cols, c.Mesh.Size(), c.ClusterChips)
	}
	if c.Faults != nil {
		chips := c.ClusterChips
		if chips == 0 {
			chips = c.Mesh.Size()
		}
		if err := c.Faults.Validate(chips); err != nil {
			return err
		}
	}
	return nil
}

// reqState is one request's in-flight scheduler state.
type reqState struct {
	req Request
	// prefillLen is the token count this admission must prefill before
	// decoding: the prompt, plus — after a recompute-mode preemption —
	// the tokens already generated.
	prefillLen int
	prefilled  int
	// generated counts emitted output tokens; it survives preemption
	// (recompute preemption re-builds the KV cache, not the tokens).
	generated int
	// kv is the request's resident KV-cache token count.
	kv         int
	ttft       float64
	hasTTFT    bool
	finishTime float64
	admitSeq   int
}

// reqDeque is the scheduler's FIFO queue of indices into the run's request
// states: a ring over one slab sized to the workload. It cannot overflow,
// since every request sits in at most one of the queue and the running
// batch, or has left the scheduler. Arrivals push back, preempted requests
// push front, admission pops the front.
type reqDeque struct {
	buf     []int
	head, n int
}

// lint:hotpath once per arrival
func (d *reqDeque) pushBack(r int) {
	d.buf[(d.head+d.n)%len(d.buf)] = r
	d.n++
}

// lint:hotpath once per preemption
func (d *reqDeque) pushFront(r int) {
	d.head = (d.head + len(d.buf) - 1) % len(d.buf)
	d.buf[d.head] = r
	d.n++
}

// lint:hotpath once per admission attempt; the deque must be non-empty
func (d *reqDeque) front() int { return d.buf[d.head] }

// lint:hotpath once per admission or rejection
func (d *reqDeque) popFront() int {
	r := d.buf[d.head]
	d.head = (d.head + 1) % len(d.buf)
	d.n--
	return r
}

// Run simulates serving the workload under the configuration and returns
// the canonical report. The scheduler is single-threaded and reads only
// simulated time, so the same (config, workload) pair produces a
// byte-identical report on every run and every GOMAXPROCS setting.
//
// Per-step loop shape (continuous batching):
//
//  1. arrivals with Arrival ≤ now join the FIFO queue;
//  2. admission pops the queue head while the decode batch has a slot and
//     the head's prefill fits the KV budget (a request whose prompt+output
//     can never fit alone is rejected outright);
//  3. one step runs: every decoding request advances one token, plus at
//     most one prefill chunk (chunked prefill); its duration comes from
//     the costModel's FC-stack + attention pricing on the degraded fabric;
//  4. decode growth that overflows the KV budget preempts the
//     youngest-admitted requests (recompute mode: KV freed, re-queued at
//     the queue front, prompt+generated re-prefilled on re-admission).
//
// The admission guarantee (prompt+output ≤ budget or rejected) plus
// oldest-never-preempted means the oldest running request always finishes,
// so the loop terminates.
//
// The loop allocates nothing per step or preemption (TestRunAllocationGate)
// and stores no pointer: the queue and the running batch hold indices into
// one slab of request states, decode attention and the FC stack are read
// from price tables (Prices), histograms fill lock-free tallies, and
// counters are published once after the loop. Run itself allocates its
// per-run slabs, so it is not a lint:hotpath root; the pricing kernels and
// deque methods carry that contract.
func Run(cfg Config, workload []Request) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := ValidateTrace(workload); err != nil {
		return nil, err
	}
	cfg.Policy = cfg.Policy.withDefaults()
	cfg.SLO = cfg.SLO.withDefaults()
	if cfg.HBMBytes <= 0 {
		cfg.HBMBytes = 32 * 1 << 30
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}

	rep := &Report{
		Model:       cfg.Model.Name,
		Rows:        cfg.Mesh.Rows,
		Cols:        cfg.Mesh.Cols,
		SliceCount:  cfg.Policy.SliceCount,
		MaxBatch:    cfg.Policy.MaxBatch,
		ChunkTokens: cfg.Policy.ChunkTokens,
		HBMBytes:    cfg.HBMBytes,
		SLO:         cfg.SLO,
		Requests:    len(workload),
		Feasible:    true,
	}

	if cfg.ClusterChips <= 0 {
		cfg.ClusterChips = cfg.Mesh.Size()
	}
	fab := newFabric(cfg.Chip, cfg.ClusterChips, cfg.Faults)
	basis := newPriceBasis(cfg.Model, fab)
	if cfg.Prices != nil && cfg.Prices.basis != basis {
		return nil, fmt.Errorf("serve: price cache was built for another model, chip, cluster size or fault plan")
	}
	if cfg.Mesh.Size() > fab.survivors {
		rep.Feasible = false
		rep.Reason = fmt.Sprintf("mesh needs %d chips, only %d survive the fault plan", cfg.Mesh.Size(), fab.survivors)
		rep.Rejected = len(workload)
		rep.finish(reg, nil)
		return rep, nil
	}

	// KV budget: per-chip HBM left after weights, live activations and
	// staging buffers, divided by the per-token sharded KV footprint.
	bpe := cfg.Chip.BytesPerElement
	base, err := memory.Estimate(cfg.Model, memory.Params{
		TPDegree:         cfg.Mesh.Size(),
		PPDegree:         1,
		TokensPerReplica: cfg.Policy.MaxBatch + cfg.Policy.ChunkTokens,
		BytesPerParam:    bpe,
		SliceCount:       cfg.Policy.SliceCount,
		Inference:        true,
	})
	if err != nil {
		return nil, err
	}
	kvPerTok := cfg.Model.KVCacheBytesPerToken(bpe) / float64(cfg.Mesh.Size())
	maxKV := int(min((cfg.HBMBytes-base.Total())/kvPerTok, maxTokens))
	rep.KVBudgetTokens = maxKV
	if maxKV <= 0 {
		rep.Feasible = false
		rep.Reason = fmt.Sprintf("model base footprint %.1f GiB leaves no KV budget in %.1f GiB HBM", base.Total()/(1<<30), cfg.HBMBytes/(1<<30))
		rep.Rejected = len(workload)
		rep.finish(reg, nil)
		return rep, nil
	}

	cm := newCostModel(basis, cfg.Mesh, cfg.Policy.SliceCount)

	ttftH := reg.Histogram("serve_ttft_seconds", []float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1, 2, 5, 10}).Tally()
	perTokH := reg.Histogram("serve_per_token_seconds", []float64{0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5}).Tally()
	e2eH := reg.Histogram("serve_e2e_seconds", []float64{0.1, 0.2, 0.5, 1, 2, 5, 10, 20, 50, 100}).Tally()

	states := make([]reqState, len(workload))
	longest := 0
	for i, r := range workload {
		states[i] = reqState{req: r, prefillLen: r.PromptTokens}
		longest = max(longest, r.PromptTokens+r.OutputTokens)
	}
	slots := min(cfg.Policy.MaxBatch, len(workload))
	// The FC table covers every batched token count a step can carry: at
	// most `slots` decodes plus one prefill chunk, which never exceeds the
	// chunk size or a request's prompt+output. The decode table covers the
	// KV lengths a decoding request can reach, up to maxDecodeKV.
	decTab, fcTab := cfg.Prices.tables(&cm, min(longest, maxKV, maxDecodeKV)+1, slots+min(cfg.Policy.ChunkTokens, longest)+1)
	queue := reqDeque{buf: make([]int, len(workload))}
	running := make([]int, 0, slots)

	var (
		now      float64
		resident int
		next     int // index of the next un-arrived request
		admitSeq int
	)

	for rep.Completed+rep.Rejected < len(workload) {
		// 1. Arrivals up to the current instant join the queue.
		for next < len(workload) && states[next].req.Arrival <= now {
			queue.pushBack(next)
			next++
		}

		// 2. Admission control against the KV-token budget.
		for queue.n > 0 && len(running) < cfg.Policy.MaxBatch {
			hi := queue.front()
			h := &states[hi]
			if h.prefillLen+(h.req.OutputTokens-h.generated) > maxKV {
				// Can never fit even alone: reject.
				queue.popFront()
				rep.Rejected++
				continue
			}
			if resident+h.prefillLen > maxKV {
				break // wait for running requests to retire
			}
			queue.popFront()
			h.admitSeq = admitSeq
			admitSeq++
			h.prefilled = 0
			h.kv = 0
			running = append(running, hi)
			rep.Admissions++
		}

		if len(running) == 0 {
			if queue.n == 0 {
				if next >= len(workload) {
					break // everything accounted for
				}
				// Idle: jump to the next arrival.
				if a := states[next].req.Arrival; a > now {
					now = a
				}
				continue
			}
			// A queued head with an empty mesh is always admitted or
			// rejected above (resident == 0), so reaching here means the
			// admission loop made progress; re-run it.
			continue
		}

		// 3. Assemble and price one step: the whole decode batch plus at
		// most one prefill chunk.
		var (
			stepTime     float64
			decodeCount  int
			prefillIdx   = -1
			prefillChunk int
		)
		for _, i := range running {
			r := &states[i]
			if r.prefilled < r.prefillLen {
				if prefillIdx < 0 {
					prefillIdx = i
				}
			} else {
				decodeCount++
				p, ok := cached(decTab, r.kv)
				if !ok {
					p = remember(decTab, r.kv, cm.attn(1, float64(r.kv)))
				}
				stepTime += p
			}
		}
		if prefillIdx >= 0 {
			pr := &states[prefillIdx]
			prefillChunk = cfg.Policy.ChunkTokens
			if rem := pr.prefillLen - pr.prefilled; rem < prefillChunk {
				prefillChunk = rem
			}
			stepTime += cm.attn(float64(prefillChunk), float64(pr.kv+prefillChunk))
		}
		tokens := decodeCount + prefillChunk
		fc, ok := cached(fcTab, tokens)
		if !ok {
			fc = remember(fcTab, tokens, cm.fcStack(float64(tokens)))
		}
		stepTime += fc
		if !(stepTime > 0) {
			return nil, fmt.Errorf("serve: step with %d decode + %d prefill tokens priced at %v — scheduler would not advance", decodeCount, prefillChunk, stepTime)
		}
		now += stepTime
		rep.Steps++
		perTokH.ObserveN(stepTime, decodeCount)

		// 4. Apply progress; collect completions.
		keep := running[:0]
		for _, i := range running {
			r := &states[i]
			finished := false
			if r.prefilled < r.prefillLen {
				if i == prefillIdx {
					r.prefilled += prefillChunk
					r.kv += prefillChunk
					resident += prefillChunk
					if r.prefilled >= r.prefillLen && !r.hasTTFT {
						// Prefill's last forward emits the first token.
						r.ttft = now - r.req.Arrival
						r.hasTTFT = true
						r.generated++
						rep.TokensGenerated++
						ttftH.Observe(r.ttft)
						finished = r.generated >= r.req.OutputTokens
					}
				}
			} else {
				r.generated++
				r.kv++
				resident++
				rep.TokensGenerated++
				finished = r.generated >= r.req.OutputTokens
			}
			if finished {
				resident -= r.kv
				r.kv = 0
				r.finishTime = now
				rep.Completed++
				e2eH.Observe(now - r.req.Arrival)
			} else {
				keep = append(keep, i)
			}
		}
		running = keep

		// 5. KV overflow → preempt the youngest-admitted requests
		// (recompute mode). The oldest is never preempted: its admission
		// guaranteed prompt+output fits alone, so it always finishes.
		for resident > maxKV && len(running) > 1 {
			vi := 0
			for i, r := range running {
				if states[r].admitSeq > states[running[vi]].admitSeq {
					vi = i
				}
			}
			v := &states[running[vi]]
			queue.pushFront(running[vi])
			running = append(running[:vi], running[vi+1:]...)
			resident -= v.kv
			v.kv = 0
			v.prefilled = 0
			v.prefillLen = v.req.PromptTokens + v.generated
			rep.Preemptions++
		}

		rep.PeakKVTokens = max(rep.PeakKVTokens, resident)
		batch := decodeCount
		if prefillIdx >= 0 {
			batch++
		}
		rep.PeakBatch = max(rep.PeakBatch, batch)
	}

	ttftH.Flush()
	perTokH.Flush()
	e2eH.Flush()
	// Publish the run's counts once. Each Report field counts exactly the
	// events the metric names, and integer-valued float sums are exact, so
	// the registry — fresh or not — ends bit-identical to per-event updates.
	reg.Counter("serve_admissions_total").AddInt(int64(rep.Admissions))
	reg.Counter("serve_preemptions_total").AddInt(int64(rep.Preemptions))
	reg.Counter("serve_rejected_total").AddInt(int64(rep.Rejected))
	reg.Counter("serve_completed_total").AddInt(int64(rep.Completed))
	reg.Counter("serve_tokens_generated_total").AddInt(int64(rep.TokensGenerated))
	reg.Counter("serve_steps_total").AddInt(int64(rep.Steps))
	reg.Gauge("serve_kv_tokens_peak").SetMax(float64(rep.PeakKVTokens))
	reg.Gauge("serve_batch_peak").SetMax(float64(rep.PeakBatch))

	rep.MakespanS = now
	rep.finish(reg, states)
	return rep, nil
}

// finish computes the latency quantiles, goodput and metric snapshot from
// the terminal per-request states: every request has completed or been
// rejected by the time it runs.
func (rep *Report) finish(reg *obs.Registry, states []reqState) {
	n := len(states)
	buf := make([]uint64, 3*n)
	ttfts, perToks, e2es := buf[:0:n], buf[n:n:2*n], buf[2*n:2*n]
	for i := range states {
		r := &states[i]
		if r.generated < r.req.OutputTokens {
			continue // rejected
		}
		ttfts = append(ttfts, math.Float64bits(r.ttft))
		perTok := 0.0
		if r.req.OutputTokens > 1 {
			perTok = (r.e2e() - r.ttft) / float64(r.req.OutputTokens-1)
		}
		perToks = append(perToks, math.Float64bits(perTok))
		e2es = append(e2es, math.Float64bits(r.e2e()))
		if r.ttft <= rep.SLO.TTFT && perTok <= rep.SLO.PerToken {
			rep.SLOMet++
		}
	}
	rep.TTFT = quantiles(ttfts)
	rep.PerToken = quantiles(perToks)
	rep.E2E = quantiles(e2es)
	if rep.MakespanS > 0 {
		rep.Goodput = float64(rep.SLOMet) / rep.MakespanS
	}
	if reg != nil {
		rep.Metrics = reg.Snapshot()
	}
}

// e2e returns the request's end-to-end latency; valid once completed.
func (r *reqState) e2e() float64 { return r.finishTime - r.req.Arrival }

// quantiles computes exact nearest-rank quantiles over the sample set:
// the k-th order statistic with k = ⌈p·n⌉. Deterministic (it sorts s in
// place) and exact, unlike the obs.Histogram bucket interpolation that
// feeds the metric snapshot. s holds the samples' Float64bits: latencies
// are +0 or positive and never NaN, and such bit patterns order as their
// values do, so an integer sort sorts the samples and the mean still sums
// them in ascending order.
func quantiles(s []uint64) Quantiles {
	if len(s) == 0 {
		return Quantiles{}
	}
	slices.Sort(s)
	rank := func(p float64) float64 {
		k := int(math.Ceil(p*float64(len(s)))) - 1
		if k < 0 {
			k = 0
		}
		if k >= len(s) {
			k = len(s) - 1
		}
		return math.Float64frombits(s[k])
	}
	sum := 0.0
	for _, x := range s {
		sum += math.Float64frombits(x)
	}
	return Quantiles{
		P50:  rank(0.50),
		P95:  rank(0.95),
		P99:  rank(0.99),
		Mean: sum / float64(len(s)),
		Max:  math.Float64frombits(s[len(s)-1]),
	}
}
