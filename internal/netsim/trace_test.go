package netsim

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"meshslice/internal/gemm"
	"meshslice/internal/sched"
	"meshslice/internal/topology"
)

func traceOf(t *testing.T, prog *sched.Program) Trace {
	t.Helper()
	r := Simulate(prog, testHW, Options{CollectTrace: true, NoHBMContention: true})
	if len(r.Trace) == 0 {
		t.Fatalf("no trace collected for %s", prog.Label)
	}
	return r.Trace
}

func TestTraceCoversEveryOp(t *testing.T) {
	prob := gemm.Problem{M: 1 << 14, N: 8192, K: 8192, Dataflow: gemm.OS}
	prog := sched.MeshSliceProgram(prob, topology.NewTorus(4, 4), testHW, 4)
	tr := traceOf(t, prog)
	if len(tr) != len(prog.Ops) {
		t.Errorf("trace has %d events for %d ops", len(tr), len(prog.Ops))
	}
	seen := map[int]bool{}
	for _, e := range tr {
		if e.End < e.Start {
			t.Errorf("event %q ends before it starts", e.Name)
		}
		if seen[e.Op] {
			t.Errorf("op %d traced twice", e.Op)
		}
		seen[e.Op] = true
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	prob := gemm.Problem{M: 1 << 12, N: 4096, K: 4096, Dataflow: gemm.OS}
	prog := sched.CollectiveProgram(prob, topology.NewTorus(2, 2), testHW)
	r := Simulate(prog, testHW, Options{})
	if r.Trace != nil {
		t.Errorf("trace collected without CollectTrace")
	}
}

func TestTraceSortedByStart(t *testing.T) {
	prob := gemm.Problem{M: 1 << 14, N: 8192, K: 8192, Dataflow: gemm.LS}
	prog := sched.MeshSliceProgram(prob, topology.NewTorus(4, 4), testHW, 4)
	tr := traceOf(t, prog)
	for i := 1; i < len(tr); i++ {
		if tr[i].Start < tr[i-1].Start {
			t.Errorf("trace not sorted at %d", i)
		}
	}
}

func TestTraceBusyTimeMatchesResult(t *testing.T) {
	prob := gemm.Problem{M: 1 << 14, N: 8192, K: 8192, Dataflow: gemm.OS}
	prog := sched.MeshSliceProgram(prob, topology.NewTorus(4, 4), testHW, 2)
	r := Simulate(prog, testHW, Options{CollectTrace: true, NoHBMContention: true})
	// Compute lane busy time equals the reported compute busy time
	// (compute ops never overlap each other on one engine).
	if diff := math.Abs(r.Trace.BusyTime(0) - r.ComputeBusy); diff > 1e-12 {
		t.Errorf("compute lane busy %v != ComputeBusy %v", r.Trace.BusyTime(0), r.ComputeBusy)
	}
	// Link lanes' combined busy time equals CommBusy (lanes are disjoint
	// resources, each serial).
	lanes := r.Trace.BusyTime(1) + r.Trace.BusyTime(2)
	if diff := math.Abs(lanes - r.CommBusy); diff > 1e-12 {
		t.Errorf("link lanes busy %v != CommBusy %v", lanes, r.CommBusy)
	}
}

func TestTimelineRendering(t *testing.T) {
	prob := gemm.Problem{M: 1 << 14, N: 8192, K: 8192, Dataflow: gemm.OS}
	prog := sched.MeshSliceProgram(prob, topology.NewTorus(4, 4), testHW, 4)
	tr := traceOf(t, prog)
	out := tr.Timeline(72)
	for _, want := range []string{"compute", "inter-row", "inter-col", "#", "G"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
	if lines := strings.Count(out, "\n"); lines != 5 {
		t.Errorf("timeline has %d lines, want 5:\n%s", lines, out)
	}
}

func TestTimelineDegenerateInputs(t *testing.T) {
	if out := Trace(nil).Timeline(80); !strings.Contains(out, "empty") {
		t.Errorf("nil trace rendered %q", out)
	}
	tr := Trace{{Name: "x", Kind: sched.Compute, Start: 0, End: 1}}
	if out := tr.Timeline(3); !strings.Contains(out, "empty") {
		t.Errorf("narrow width rendered %q", out)
	}
	zero := Trace{{Name: "x", Kind: sched.Compute}}
	if out := zero.Timeline(40); !strings.Contains(out, "empty") {
		t.Errorf("zero-length trace rendered %q", out)
	}
}

func TestTimelineShowsOverlap(t *testing.T) {
	// MeshSlice's signature: compute and communication lanes busy at the
	// same instant somewhere in the steady state.
	prob := gemm.Problem{M: 1 << 16, N: 12288, K: 12288, Dataflow: gemm.OS}
	prog := sched.MeshSliceProgram(prob, topology.NewTorus(8, 8), testHW, 8)
	tr := traceOf(t, prog)
	overlap := false
	for _, a := range tr {
		if a.Kind != sched.Compute {
			continue
		}
		for _, b := range tr {
			if b.Kind.IsComm() && b.Start < a.End && a.Start < b.End {
				overlap = true
			}
		}
	}
	if !overlap {
		t.Errorf("MeshSlice trace shows no comm/compute overlap")
	}
}

func TestWriteChromeTrace(t *testing.T) {
	prob := gemm.Problem{M: 1 << 14, N: 8192, K: 8192, Dataflow: gemm.OS}
	prog := sched.MeshSliceProgram(prob, topology.NewTorus(4, 4), testHW, 2)
	r := Simulate(prog, testHW, Options{CollectTrace: true})
	var buf bytes.Buffer
	if err := WriteClusterChromeTrace(&buf, []Trace{r.Trace}, prog.Label); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("not valid trace-event JSON: %v", err)
	}
	var complete, meta int
	for _, e := range events {
		switch e["ph"] {
		case "X":
			complete++
			if e["dur"].(float64) < 0 {
				t.Errorf("negative duration event %v", e)
			}
		case "M":
			meta++
		}
	}
	if complete != len(prog.Ops) {
		t.Errorf("complete events = %d, want %d", complete, len(prog.Ops))
	}
	if meta < 3 { // process name + at least compute/row/col tracks
		t.Errorf("metadata events = %d", meta)
	}
}

func TestChromeTrackMapping(t *testing.T) {
	cases := []struct {
		ev   TraceEvent
		want int
	}{
		{TraceEvent{Kind: sched.Compute}, 0},
		{TraceEvent{Kind: sched.Slice}, 0},
		{TraceEvent{Kind: sched.AllGather, Dir: topology.InterRow}, 1},
		{TraceEvent{Kind: sched.ReduceScatter, Dir: topology.InterCol}, 2},
		{TraceEvent{Kind: sched.Shift, Dir: topology.InterDepth}, 3},
	}
	for i, c := range cases {
		if got := chromeTrack(c.ev); got != c.want {
			t.Errorf("case %d: track %d, want %d", i, got, c.want)
		}
	}
}

func TestDepthTrafficGetsOwnLane(t *testing.T) {
	// Regression: depth-direction comm used to fold into the inter-col
	// lane, corrupting 3D timelines and BusyTime(2).
	tr := Trace{
		{Name: "c", Kind: sched.Compute, Start: 0, End: 1},
		{Name: "col", Kind: sched.AllGather, Dir: topology.InterCol, Start: 0, End: 2},
		{Name: "dep", Kind: sched.Broadcast, Dir: topology.InterDepth, Start: 1, End: 4},
	}
	if got := tr[2].lane(); got != 3 {
		t.Fatalf("depth event lane = %d, want 3", got)
	}
	if got := tr.BusyTime(2); got != 2 {
		t.Errorf("inter-col busy = %v, want 2 (depth traffic leaked in)", got)
	}
	if got := tr.BusyTime(3); got != 3 {
		t.Errorf("inter-depth busy = %v, want 3", got)
	}
}

func TestTimelineRendersDepthLaneFor3DPrograms(t *testing.T) {
	prog := sched.TwoPointFiveDProgram(1<<14, 8192, 8192, gemm.Grid3D{P: 4, C: 2}, testHW)
	tr := traceOf(t, prog)
	if tr.BusyTime(3) <= 0 {
		t.Fatalf("2.5D chip-0 trace has no depth-lane traffic")
	}
	out := tr.Timeline(72)
	if !strings.Contains(out, "inter-dep") {
		t.Errorf("3D timeline missing depth lane:\n%s", out)
	}
	if lines := strings.Count(out, "\n"); lines != 6 {
		t.Errorf("3D timeline has %d lines, want 6:\n%s", lines, out)
	}
}

// decodeTraceEvents unmarshals a Chrome trace and partitions it into
// complete events and (pid, tid) → thread-name metadata.
func decodeTraceEvents(t *testing.T, data []byte) (complete []map[string]any, threads map[[2]int]string, processes map[int]string) {
	t.Helper()
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("not valid trace-event JSON: %v", err)
	}
	threads = map[[2]int]string{}
	processes = map[int]string{}
	for _, e := range events {
		pid := int(e["pid"].(float64))
		switch e["ph"] {
		case "X":
			complete = append(complete, e)
		case "M":
			args := e["args"].(map[string]any)
			name := args["name"].(string)
			switch e["name"] {
			case "thread_name":
				threads[[2]int{pid, int(e["tid"].(float64))}] = name
			case "process_name":
				processes[pid] = name
			}
		}
	}
	return complete, threads, processes
}

func TestWriteChromeTraceValidity(t *testing.T) {
	prog := sched.TwoPointFiveDProgram(1<<14, 8192, 8192, gemm.Grid3D{P: 4, C: 2}, testHW)
	r := Simulate(prog, testHW, Options{CollectTrace: true})
	var buf bytes.Buffer
	if err := WriteClusterChromeTrace(&buf, []Trace{r.Trace}, prog.Label); err != nil {
		t.Fatal(err)
	}
	complete, threads, processes := decodeTraceEvents(t, buf.Bytes())
	if len(processes) != 1 {
		t.Errorf("single-chip trace has %d processes", len(processes))
	}
	wantTrack := map[string]int{
		"compute engine": 0, "inter-row links": 1,
		"inter-col links": 2, "inter-depth links": 3,
	}
	for _, e := range complete {
		if e["dur"].(float64) < 0 {
			t.Errorf("negative duration event %v", e)
		}
		key := [2]int{int(e["pid"].(float64)), int(e["tid"].(float64))}
		name, ok := threads[key]
		if !ok {
			t.Errorf("event %v on unnamed track %v", e["name"], key)
			continue
		}
		if wantTrack[name] != key[1] {
			t.Errorf("track %q has tid %d, want %d", name, key[1], wantTrack[name])
		}
	}
	if _, ok := threads[[2]int{0, 3}]; !ok {
		t.Errorf("2.5D trace missing inter-depth track metadata")
	}
}

func TestWriteChromeTraceDeterministic(t *testing.T) {
	prob := gemm.Problem{M: 1 << 14, N: 8192, K: 8192, Dataflow: gemm.OS}
	prog := sched.MeshSliceProgram(prob, topology.NewTorus(4, 4), testHW, 2)
	r := Simulate(prog, testHW, Options{CollectTrace: true})
	write := func() []byte {
		var buf bytes.Buffer
		if err := WriteClusterChromeTrace(&buf, []Trace{r.Trace}, prog.Label); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if a, b := write(), write(); !bytes.Equal(a, b) {
		t.Errorf("chrome trace serialisation is nondeterministic")
	}
}

func TestWriteClusterChromeTrace(t *testing.T) {
	prob := gemm.Problem{M: 1 << 14, N: 8192, K: 8192, Dataflow: gemm.OS}
	prog := sched.MeshSliceProgram(prob, topology.NewTorus(4, 4), testHW, 2)
	r := Simulate(prog, testHW, Options{TraceAllChips: true})
	write := func() []byte {
		var buf bytes.Buffer
		if err := WriteClusterChromeTrace(&buf, r.Traces, prog.Label); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	data := write()
	complete, threads, processes := decodeTraceEvents(t, data)
	if len(processes) != prog.Torus.Size() {
		t.Fatalf("cluster trace has %d processes, want one per chip (%d)",
			len(processes), prog.Torus.Size())
	}
	for chip := 0; chip < prog.Torus.Size(); chip++ {
		if _, ok := processes[chip]; !ok {
			t.Errorf("no process metadata for chip %d", chip)
		}
	}
	if want := prog.Torus.Size() * len(prog.Ops); len(complete) != want {
		t.Errorf("cluster trace has %d complete events, want %d", len(complete), want)
	}
	for _, e := range complete {
		if e["dur"].(float64) < 0 {
			t.Errorf("negative duration event %v", e)
		}
		key := [2]int{int(e["pid"].(float64)), int(e["tid"].(float64))}
		if _, ok := threads[key]; !ok {
			t.Errorf("event %v on unnamed track %v", e["name"], key)
		}
	}
	if b := write(); !bytes.Equal(data, b) {
		t.Errorf("cluster trace serialisation is nondeterministic")
	}
}

// BusyTime returns the total busy time of one lane (0 compute, 1 inter-row,
// 2 inter-col, 3 inter-depth), counting overlapping events once.
func (t Trace) BusyTime(lane int) float64 {
	var ivs []interval
	for _, e := range t {
		if e.lane() == lane {
			ivs = append(ivs, interval{e.Start, e.End})
		}
	}
	total := 0.0
	for _, iv := range merge(ivs) {
		total += iv.end - iv.start
	}
	return total
}
