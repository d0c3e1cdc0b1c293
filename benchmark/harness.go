package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// calRefMs is the reference speed of the calibration spin: the median
// spin time on the box the baseline was taken on. Calibrated metrics are
// (measured ÷ spin) × calRefMs, so they read as "ms at reference speed".
const calRefMs = 28.0

const (
	spinFloats = 1 << 16 // float64s per goroutine: 512 KiB, L2-resident
	spinPasses = 100
	chaseLen   = 1 << 21 // uint32s: 8 MiB, several times a core's L2
	chaseSteps = 60000
	churnObjs  = 250000 // 64-byte objects: 16 MB of garbage per spin
	// warmRounds untimed rounds end every set-up so pools, arenas and
	// lazily-created workers exist before the first timed round.
	warmRounds = 2
	// minRounds keeps a median meaningful when -seconds is tiny.
	minRounds = 5
	// setupReps is how many times an untraced run sets the workload up;
	// setup_s is the median. A traced run sets up once.
	setupReps = 5
)

// instance is one workload after set-up: generated inputs, reference
// results, and whatever state persists across rounds.
type instance interface {
	// round executes every op of the round black-box and keeps the
	// outputs; it is the only thing the untraced run times.
	round()
	// check verifies the outputs of the last round (black-box or traced)
	// and returns (ops attempted, ops failed). Runs outside the timer.
	check() (attempted, failed int)
	// traced executes the round as a composition of exported calls with a
	// span around each; a composition that disagrees with the black-box
	// result is a harness error, not a metric.
	traced(tr *tracer) error
	// probes runs the lower-layer probes and the untimed exact-counter
	// pass and stores every per-layer metric this workload owns.
	probes(tr *tracer, out metricSet) error
	close()
}

type workload struct {
	name  string
	why   string
	setup func(seed int64) (instance, error)
}

// metricSet maps metric name → value; units and direction come from the
// schema tables.
type metricSet map[string]float64

// sample is one timed round.
type sample struct {
	wall, cpu, spin time.Duration
	mallocs, bytes  uint64
	gcCycles        uint32
	gcPause         time.Duration
	rssMB           float64 // resident-set high-water mark of this round
}

// spinner is the fixed calibration work, timed immediately before every
// round to measure how fast this box is *right now*; dividing the round by
// it cancels the slow drift (neighbour load, frequency) that otherwise moves
// identical code by 15-30 % between back-to-back runs. It has three phases
// of ~9 ms because the drift does not hit all code alike: arithmetic on
// every core, dependent loads that miss the cache, and allocation with the
// garbage collection it causes. A spin of one kind tracked the workloads of
// that kind and made the others noisier than no calibration at all.
type spinner struct {
	floats [][]float64
	// perm is one random cycle through chaseLen slots. It is mapped
	// outside the Go heap: 8 MiB of live heap would raise the collector's
	// target and spare the workload under test most of its collections.
	perm []byte
	at   uint32
	ring []*[8]int64
}

func newSpinner(p int) (*spinner, error) {
	perm, err := syscall.Mmap(-1, 0, 4*chaseLen, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	s := &spinner{floats: make([][]float64, p), perm: perm, ring: make([]*[8]int64, 1024)}
	for i := range s.floats {
		s.floats[i] = make([]float64, spinFloats)
	}
	// Sattolo's shuffle: a single cycle, so a walk never settles into a
	// short cached loop.
	slot := func(i int) []byte { return perm[4*i : 4*i+4] }
	for i := 0; i < chaseLen; i++ {
		binary.LittleEndian.PutUint32(slot(i), uint32(i))
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := chaseLen - 1; i > 0; i-- {
		x = x*6364136223846793005 + 1442695040888963407
		j := int(x>>33) % i
		vi, vj := binary.LittleEndian.Uint32(slot(i)), binary.LittleEndian.Uint32(slot(j))
		binary.LittleEndian.PutUint32(slot(i), vj)
		binary.LittleEndian.PutUint32(slot(j), vi)
	}
	return s, nil
}

func (s *spinner) close() { syscall.Munmap(s.perm) }

func (s *spinner) spin() time.Duration {
	t0 := time.Now()
	var wg sync.WaitGroup
	for _, buf := range s.floats {
		wg.Add(1)
		go func(x []float64) {
			defer wg.Done()
			for pass := 0; pass < spinPasses; pass++ {
				for i := range x {
					x[i] = x[i]*0.5 + float64(i)
				}
			}
		}(buf)
	}
	wg.Wait()
	j := s.at
	for i := 0; i < chaseSteps; i++ {
		j = binary.LittleEndian.Uint32(s.perm[4*j:])
	}
	s.at = j
	for i := 0; i < churnObjs; i++ {
		s.ring[i&1023] = new([8]int64)
	}
	return time.Since(t0)
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's resident-set high-water mark at the
// current resident set, so the next peakRSSMB reads the peak since now.
// Where the kernel refuses, the mark keeps covering the whole process.
func resetPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// timedRound runs fn between the calibration spin + a forced GC and the
// closing counter reads. The GC makes every round start from the same heap
// state, so in-round collections are caused by the round's own garbage.
func timedRound(sp *spinner, fn func()) sample {
	var s sample
	s.spin = sp.spin()
	runtime.GC()
	var m0, m1 runtime.MemStats
	resetPeakRSS()
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	t0 := time.Now()
	fn()
	s.wall = time.Since(t0)
	s.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	s.rssMB = peakRSSMB()
	s.mallocs = m1.Mallocs - m0.Mallocs
	s.bytes = m1.TotalAlloc - m0.TotalAlloc
	s.gcCycles = m1.NumGC - m0.NumGC
	s.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	return s
}

// roundBudget decides when a measuring loop stops: after a fixed number of
// rounds when one is given, otherwise once the time budget is spent.
type roundBudget struct {
	rounds  int
	seconds float64
	start   time.Time
}

func (b roundBudget) done(r int) bool {
	if b.rounds > 0 {
		return r >= b.rounds
	}
	return r >= minRounds && time.Since(b.start).Seconds() >= b.seconds
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the linear-interpolated q-quantile of v (v is not modified).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// calibrated returns (x_i ÷ spin_i) × calRefMs for every sample.
func calibrated(samples []sample, pick func(sample) time.Duration) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(pick(s)) / float64(s.spin) * calRefMs
	}
	return out
}

func wallOf(s sample) time.Duration { return s.wall }
func cpuOf(s sample) time.Duration  { return s.cpu }

// endToEnd folds the timed rounds into the end-to-end metrics.
func endToEnd(samples []sample, setups []float64) metricSet {
	n := float64(len(samples))
	var mallocs, bytes uint64
	rss := make([]float64, len(samples))
	for i, s := range samples {
		mallocs += s.mallocs
		bytes += s.bytes
		rss[i] = s.rssMB
	}
	return metricSet{
		"setup_s":            median(setups),
		"round_ms_cal":       median(calibrated(samples, wallOf)),
		"cpu_ms_cal":         median(calibrated(samples, cpuOf)),
		"allocs_per_round":   float64(mallocs) / n,
		"alloc_mb_per_round": float64(bytes) / n / 1e6,
		// A low quantile, not the median: how far the heap overshoots
		// before a concurrent collection ends is a lottery per round
		// (sim_observed: 35 or 45 MB), and a run's median lands on either
		// side of it - 2 of 10 runs with ten seeds did, 3 would have put the
		// spread at 14 %. The rounds in which the collector kept up repeat
		// to 1-2 %, and memory the workload really needs raises them too.
		"peak_rss_mb": quantile(rss, 0.10),
	}
}

// benchDiagnostics are the ungated "bench.*" per-layer metrics: the raw
// view of the same rounds, so a reader can tell harness noise from change.
func benchDiagnostics(samples []sample, ops int, out metricSet) {
	raw := make([]float64, len(samples))
	spins := make([]float64, len(samples))
	var cycles uint32
	var pause time.Duration
	for i, s := range samples {
		raw[i] = ms(s.wall)
		spins[i] = ms(s.spin)
		cycles += s.gcCycles
		pause += s.gcPause
	}
	n := float64(len(samples))
	out["bench.round_p50_ms"] = median(raw)
	out["bench.round_p75_ms_cal"] = quantile(calibrated(samples, wallOf), 0.75)
	out["bench.cal_spin_ms"] = median(spins)
	out["bench.ops_per_s"] = float64(ops) / (median(raw) / 1e3)
	out["bench.gc_cycles_per_round"] = float64(cycles) / n
	out["bench.gc_pause_ms_per_round"] = ms(pause) / n
}

// mallocsDuring returns the heap objects and bytes allocated while fn ran.
// Only meaningful when nothing else allocates concurrently.
func mallocsDuring(fn func()) (objects, bytes float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs - m0.Mallocs), float64(m1.TotalAlloc - m0.TotalAlloc)
}

// timeIt returns the median wall time of reps calls of fn, in ms.
func timeIt(reps int, fn func()) float64 {
	times := make([]float64, reps)
	for i := range times {
		t0 := time.Now()
		fn()
		times[i] = ms(time.Since(t0))
	}
	return median(times)
}

func bitsEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func finitePositive(v float64) bool { return v > 0 && !math.IsInf(v, 0) && !math.IsNaN(v) }

func errorf(format string, args ...any) error { return fmt.Errorf("benchmark: "+format, args...) }
