package serve

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"
	"time"

	"meshslice/internal/hw"
	"meshslice/internal/model"
	"meshslice/internal/topology"
)

// runWithin runs Run in a goroutine and fails the test if it has not
// returned within d: a scheduler that stops advancing simulated time spins
// forever instead of failing.
func runWithin(t *testing.T, d time.Duration, cfg Config, wl []Request) (*Report, error) {
	t.Helper()
	type result struct {
		rep *Report
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := Run(cfg, wl)
		done <- result{rep, err}
	}()
	select {
	case r := <-done:
		return r.rep, r.err
	case <-time.After(d):
		t.Fatalf("Run did not return within %v", d)
		return nil, nil
	}
}

// TestRunAllocationGate holds the step loop to "nothing allocated per step
// or per preemption": a KV-pressure run (hundreds of preemptions) allocates
// a small fixed number of objects, the same as an idle-batch run that
// preempts nothing but takes five times the steps, and a policy with absurd
// batch and chunk caps allocates in proportion to the trace, not the caps.
func TestRunAllocationGate(t *testing.T) {
	cfg := Config{
		Model: model.GPT3(), Chip: hw.TPUv4(), Mesh: topology.NewTorus(8, 8),
		Policy: Policy{MaxBatch: 64}, SLO: SLO{TTFT: 1.0, PerToken: 0.05},
	}
	measure := func(spec WorkloadSpec, hbm float64) (float64, *Report) {
		wl := spec.Generate()
		c := cfg
		c.HBMBytes = hbm
		rep, err := Run(c, wl)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() { Run(c, wl) }), rep
	}
	hiAllocs, hi := measure(WorkloadSpec{Seed: 2, Rate: 50, Requests: 768}, 5.8*(1<<30))
	loAllocs, lo := measure(WorkloadSpec{Seed: 1, Rate: 5, Requests: 768}, 64<<30)
	t.Logf("hi_kv: %v allocs (%d steps, %d preemptions); lo: %v allocs (%d steps, %d preemptions)",
		hiAllocs, hi.Steps, hi.Preemptions, loAllocs, lo.Steps, lo.Preemptions)
	if hi.Preemptions <= 500 || lo.Steps <= 5000 || lo.Preemptions != 0 {
		t.Fatalf("test premise broken: hi_kv %d preemptions / %d steps, lo %d preemptions",
			hi.Preemptions, hi.Steps, lo.Preemptions)
	}
	if hiAllocs > 128 {
		t.Errorf("KV-pressure run allocates %v objects, want <= 128", hiAllocs)
	}
	if math.Abs(hiAllocs-loAllocs) > 8 {
		t.Errorf("allocation depends on steps or preemptions: hi_kv %v vs lo %v objects", hiAllocs, loAllocs)
	}

	// Caps far beyond the trace must not size anything.
	huge := cfg
	huge.Mesh = topology.NewTorus(2, 2)
	huge.Policy = Policy{MaxBatch: 1 << 20, ChunkTokens: 1 << 20}
	huge.HBMBytes = 1e18
	wl := WorkloadSpec{Seed: 3, Requests: 32}.Generate()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := Run(huge, wl)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Feasible || rep.Completed != len(wl) {
		t.Fatalf("huge-cap run: feasible %v (%s), completed %d of %d", rep.Feasible, rep.Reason, rep.Completed, len(wl))
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("MaxBatch = ChunkTokens = 2^20 on 32 requests allocated %d bytes, want < 1 MiB", got)
	}
}

// TestRunRejectsInputsThatWouldSpin: a NaN or infinite arrival used to pass
// validation and stall the idle jump forever; a length whose prompt+output
// sum wraps negative slipped past the can-never-fit rejection and then
// either never fit the budget or decoded forever. A non-finite HBM
// capacity is a configuration error.
func TestRunRejectsInputsThatWouldSpin(t *testing.T) {
	cfg := testConfig()
	for _, bad := range []func(*Request){
		func(r *Request) { r.Arrival = math.NaN() },
		func(r *Request) { r.Arrival = math.Inf(1) },
		func(r *Request) { r.Arrival = math.Inf(-1) },
		func(r *Request) { r.PromptTokens = math.MaxInt },
		func(r *Request) { r.OutputTokens = math.MaxInt },
	} {
		wl := testWorkload()
		bad(&wl[5])
		if err := ValidateTrace(wl); err == nil {
			t.Errorf("%+v: trace accepted", wl[5])
		}
		if rep, err := runWithin(t, 10*time.Second, cfg, wl); err == nil {
			t.Errorf("%+v: Run returned a report (%d completed) instead of an error", wl[5], rep.Completed)
		}
	}
	for _, hbm := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		c := cfg
		c.HBMBytes = hbm
		if _, err := runWithin(t, 10*time.Second, c, testWorkload()); err == nil {
			t.Errorf("HBM %v bytes: accepted", hbm)
		}
	}
}

// TestHugeHBMSaturatesKVBudget: an absurd but finite HBM capacity (the
// CLI's -hbm-gb 1e30) used to wrap the KV budget negative and report every
// deployment infeasible; it now saturates.
func TestHugeHBMSaturatesKVBudget(t *testing.T) {
	cfg := testConfig()
	cfg.HBMBytes = 1e30 * (1 << 30)
	rep, err := Run(cfg, testWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Feasible || rep.KVBudgetTokens != maxTokens || rep.Completed != rep.Requests {
		t.Fatalf("feasible %v (%s), KV budget %d tokens (want %d), completed %d of %d",
			rep.Feasible, rep.Reason, rep.KVBudgetTokens, maxTokens, rep.Completed, rep.Requests)
	}
}

// fuzzRequestBytes is one encoded request: the float64 bits of the gap to
// the previous arrival, then int16 prompt and output lengths.
const fuzzRequestBytes = 12

// decodeFuzzInput turns fuzz bytes into a small policy and a trace of at
// most 16 requests. Arrivals are cumulative gaps, so most inputs are
// ordered; NaN, ±Inf, negative gaps and non-positive lengths stay reachable.
func decodeFuzzInput(data []byte) (Policy, []Request) {
	var head [3]byte
	copy(head[:], data)
	pol := Policy{MaxBatch: int(head[0] % 8), ChunkTokens: 8 * int(head[1]), SliceCount: int(head[2] % 5)}
	var trace []Request
	at := 0.0
	for rest := data[min(len(data), 3):]; len(rest) >= fuzzRequestBytes && len(trace) < 16; rest = rest[fuzzRequestBytes:] {
		at += math.Float64frombits(binary.LittleEndian.Uint64(rest))
		trace = append(trace, Request{
			ID:           len(trace),
			Arrival:      at,
			PromptTokens: int(int16(binary.LittleEndian.Uint16(rest[8:]))),
			OutputTokens: int(int16(binary.LittleEndian.Uint16(rest[10:]))),
		})
	}
	return pol, trace
}

func encodeFuzzInput(head [3]byte, reqs ...Request) []byte {
	b := head[:]
	prev := 0.0
	for _, r := range reqs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.Arrival-prev))
		b = binary.LittleEndian.AppendUint16(b, uint16(r.PromptTokens))
		b = binary.LittleEndian.AppendUint16(b, uint16(r.OutputTokens))
		prev = r.Arrival
	}
	return b
}

// FuzzServeRun drives Run with arbitrary traces and small policies on a 2×2
// mesh whose HBM leaves room for ~3000 KV tokens, so admission stalls and
// preemption run. Run must return an error or a report accounting for every
// request, twice with identical bytes — privately priced, then through a
// price cache every input of the target shares — each call within a
// deadline.
func FuzzServeRun(f *testing.F) {
	prices, err := NewPrices(model.Llama3_70B(), hw.TPUv4(), 4, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(encodeFuzzInput([3]byte{2, 0, 1},
		Request{Arrival: 0, PromptTokens: 1400, OutputTokens: 400},
		Request{Arrival: 0, PromptTokens: 1400, OutputTokens: 400},
		Request{Arrival: 0.5, PromptTokens: 300, OutputTokens: 50}))
	f.Add(encodeFuzzInput([3]byte{0, 4, 4},
		Request{Arrival: 0.1, PromptTokens: 100, OutputTokens: 20},
		Request{Arrival: math.NaN(), PromptTokens: 100, OutputTokens: 20}))
	f.Add(encodeFuzzInput([3]byte{7, 255, 3},
		Request{Arrival: 0, PromptTokens: 5000, OutputTokens: 10},
		Request{Arrival: 1e300, PromptTokens: 10, OutputTokens: 1}))
	f.Fuzz(func(t *testing.T, data []byte) {
		pol, trace := decodeFuzzInput(data)
		cfg := testConfig()
		cfg.Model = model.Llama3_70B()
		cfg.Mesh = topology.NewTorus(2, 2)
		cfg.Policy = pol
		cfg.HBMBytes = hbmForKVBudget(t, cfg, 3000)
		var out [2][]byte
		var errs [2]error
		for i := range out {
			c := cfg
			if i == 1 {
				c.Prices = prices
			}
			rep, err := runWithin(t, 10*time.Second, c, trace)
			if errs[i] = err; err != nil {
				continue
			}
			if rep.Completed+rep.Rejected != len(trace) || rep.Requests != len(trace) {
				t.Fatalf("completed %d + rejected %d of %d requests", rep.Completed, rep.Rejected, len(trace))
			}
			var buf bytes.Buffer
			if err := rep.WriteJSON(&buf); err != nil {
				t.Fatalf("WriteJSON: %v", err)
			}
			out[i] = buf.Bytes()
		}
		if (errs[0] == nil) != (errs[1] == nil) || (errs[0] != nil && errs[0].Error() != errs[1].Error()) {
			t.Fatalf("two runs disagree: %v vs %v", errs[0], errs[1])
		}
		if !bytes.Equal(out[0], out[1]) {
			t.Fatal("two runs of one input produced different report bytes")
		}
	})
}
