package netsim

import (
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strings"
	"testing"

	"meshslice/internal/obs"
	"meshslice/internal/sched"
	"meshslice/internal/topology"
)

// snapshotDigests pins the bytes of Registry.WriteJSON for every golden
// row run with a metrics registry: FNV-64a of the snapshot, captured while
// the snapshot still went through encoding/json. The registries carry
// per-chip chip/dir labels, prog labels holding '=' and spaces,
// critical-path gauges and fault telemetry; the append-based writer must
// reproduce each one. The 12 observed rows were re-captured when the
// critical path moved onto the one-class map: only their des_ metrics
// moved, which TestSnapshotMatchesIdentity checks.
var snapshotDigests = map[string]uint64{
	"2.5d/4x4x2 bidir":                   0x75c9b32cff547423,
	"2.5d/4x4x2 deadLink":                0x9153838436f02c14,
	"2.5d/4x4x2 deadLinkReroute":         0xab2b6539205ddd6,
	"2.5d/4x4x2 default":                 0x75c9b32cff547423,
	"2.5d/4x4x2 fabric1.5":               0xd4897b96504c131b,
	"2.5d/4x4x2 noOverlap":               0xce4d48863d3a093b,
	"2.5d/4x4x2 observed":                0x36cc451ef129cd24,
	"2.5d/4x4x2 stepLevel":               0x30707dcff2917ea0,
	"2.5d/4x4x2 stretch":                 0x92c8213f9825850,
	"2.5d/4x4x2 stretchStepLevel":        0x3b394d58c054f468,
	"cannon/4x4 bidir":                   0x60f02406139ee48f,
	"cannon/4x4 deadLink":                0x43b7070ca09b3742,
	"cannon/4x4 deadLinkReroute":         0xfaa0d61c44ebb55d,
	"cannon/4x4 default":                 0x60f02406139ee48f,
	"cannon/4x4 fabric1.5":               0xe91405d8f9c619d1,
	"cannon/4x4 noOverlap":               0x1a655712548abb56,
	"cannon/4x4 observed":                0xa964543664adabde,
	"cannon/4x4 stepLevel":               0x184ea540ed1544a1,
	"cannon/4x4 stretch":                 0xb8af9eb4f7b439fb,
	"cannon/4x4 stretchStepLevel":        0x391c4403e4949d44,
	"collective/4x4 bidir":               0x1dcca379818a38ee,
	"collective/4x4 deadLink":            0x7626fe384af090cf,
	"collective/4x4 deadLinkReroute":     0x7626fe384af090cf,
	"collective/4x4 default":             0xe04ee6aba6a97c77,
	"collective/4x4 fabric1.5":           0x474ed9b3fab1abb7,
	"collective/4x4 noOverlap":           0xc049333a39bb4013,
	"collective/4x4 observed":            0x89924bf3f0e4e56d,
	"collective/4x4 stepLevel":           0xab3c45212a2d603b,
	"collective/4x4 stretch":             0xe9564a5d6e30bab7,
	"collective/4x4 stretchStepLevel":    0xb6043b6d8e7395a0,
	"collective/8x4 bidir":               0xf26737b551a29c3,
	"collective/8x4 deadLink":            0xb4f6c1db69777346,
	"collective/8x4 deadLinkReroute":     0xb4f6c1db69777346,
	"collective/8x4 default":             0x1d9ce44544b3e24a,
	"collective/8x4 fabric1.5":           0x27481e5c7fdf8485,
	"collective/8x4 noOverlap":           0x7856a3e202077138,
	"collective/8x4 observed":            0x1bbffd7538f22f67,
	"collective/8x4 stepLevel":           0x837b37e1fa23e8ab,
	"collective/8x4 stretch":             0xd1c19e31faadde7,
	"collective/8x4 stretchStepLevel":    0x54896abf523281db,
	"meshslice/4x4 bidir":                0xdefb039932467176,
	"meshslice/4x4 deadLink":             0x1e60e101b44d154e,
	"meshslice/4x4 deadLinkReroute":      0xa7db48ca111757fa,
	"meshslice/4x4 default":              0x8887a9c309f3f687,
	"meshslice/4x4 fabric1.5":            0x2dd4a351c1a62a75,
	"meshslice/4x4 noOverlap":            0xe9775660a46bd5c3,
	"meshslice/4x4 observed":             0xe78e5bbc6b0d27ab,
	"meshslice/4x4 stepLevel":            0x489ac4e56e94bca2,
	"meshslice/4x4 stretch":              0xab003250ee924700,
	"meshslice/4x4 stretchStepLevel":     0xa756a8eafa6cb846,
	"meshslice/8x4 bidir":                0x605a81b9cf27cf88,
	"meshslice/8x4 deadLink":             0x7faaa20afb9b326e,
	"meshslice/8x4 deadLinkReroute":      0x94e795fbe542bd42,
	"meshslice/8x4 default":              0x3b8c720810702bbd,
	"meshslice/8x4 fabric1.5":            0xfee7e2d130483c01,
	"meshslice/8x4 noOverlap":            0x34ebdc292da5ae35,
	"meshslice/8x4 observed":             0xf5d47fdf8e33d1ef,
	"meshslice/8x4 stepLevel":            0x4618aaf05cf8aef7,
	"meshslice/8x4 stretch":              0xe7d13e72841e6d7e,
	"meshslice/8x4 stretchStepLevel":     0x73b41d8828e49a7b,
	"meshsliceDP/4x4x2 bidir":            0x81bf2176e5c9dec1,
	"meshsliceDP/4x4x2 deadLink":         0x2b194bd355afdc21,
	"meshsliceDP/4x4x2 deadLinkReroute":  0x5fb02007ae9a5ea9,
	"meshsliceDP/4x4x2 default":          0x4354c7999e6599de,
	"meshsliceDP/4x4x2 fabric1.5":        0x47be10f808922b31,
	"meshsliceDP/4x4x2 noOverlap":        0xe2dcdbe856713bb2,
	"meshsliceDP/4x4x2 observed":         0x4ac0c0702d50dc60,
	"meshsliceDP/4x4x2 stepLevel":        0x333a29715301d131,
	"meshsliceDP/4x4x2 stretch":          0xa4a0d10315f1d98d,
	"meshsliceDP/4x4x2 stretchStepLevel": 0x6d7616dda47a7d17,
	"meshsliceLS/8x4 bidir":              0x19ee43029c8e6271,
	"meshsliceLS/8x4 deadLink":           0x815e9312ff9c6836,
	"meshsliceLS/8x4 deadLinkReroute":    0x50b9ddced1f43c30,
	"meshsliceLS/8x4 default":            0xc8a75891bc695113,
	"meshsliceLS/8x4 fabric1.5":          0x5c3d0443a187fda2,
	"meshsliceLS/8x4 noOverlap":          0xdb5ebfe37686c9b4,
	"meshsliceLS/8x4 observed":           0x64d02c87e51d0be3,
	"meshsliceLS/8x4 stepLevel":          0x5aa6bf1f7e72676a,
	"meshsliceLS/8x4 stretch":            0x9d9898a6c7267a61,
	"meshsliceLS/8x4 stretchStepLevel":   0x26cd5d2677938895,
	"summa/4x4 bidir":                    0x5b6b73b9f62ad983,
	"summa/4x4 deadLink":                 0xccf4ce0f7765193d,
	"summa/4x4 deadLinkReroute":          0x818e3289a9c11377,
	"summa/4x4 default":                  0x5b6b73b9f62ad983,
	"summa/4x4 fabric1.5":                0x362ead3e24582a9d,
	"summa/4x4 noOverlap":                0x1940197875212c96,
	"summa/4x4 observed":                 0xf2aa82552b652e45,
	"summa/4x4 stepLevel":                0x5b6b73b9f62ad983,
	"summa/4x4 stretch":                  0xc0235f817ebd05d5,
	"summa/4x4 stretchStepLevel":         0xc0235f817ebd05d5,
	"summa/8x4 bidir":                    0x61a2dcc817ac5c6e,
	"summa/8x4 deadLink":                 0x8b6dddfde80eac50,
	"summa/8x4 deadLinkReroute":          0xc62290190bfa69c7,
	"summa/8x4 default":                  0x61a2dcc817ac5c6e,
	"summa/8x4 fabric1.5":                0x9bf8d314003b472c,
	"summa/8x4 noOverlap":                0xa49c3f04926d4efc,
	"summa/8x4 observed":                 0x72fbc4eb16c7cd80,
	"summa/8x4 stepLevel":                0x61a2dcc817ac5c6e,
	"summa/8x4 stretch":                  0x96f75413060c383d,
	"summa/8x4 stretchStepLevel":         0x96f75413060c383d,
	"wang/4x4 bidir":                     0xdeed946bd708f65c,
	"wang/4x4 deadLink":                  0x67d6c9f4891d82a1,
	"wang/4x4 deadLinkReroute":           0x87894da4ad2c13dc,
	"wang/4x4 default":                   0x17c19bada546ca0e,
	"wang/4x4 fabric1.5":                 0xf5f8647a76de657a,
	"wang/4x4 noOverlap":                 0xd7d86681fca1b7cd,
	"wang/4x4 observed":                  0x5686f1d8a3436e6,
	"wang/4x4 stepLevel":                 0x22a56ba1d5da18e2,
	"wang/4x4 stretch":                   0x2aee3a50f6d705ec,
	"wang/4x4 stretchStepLevel":          0x32a08fdd1bb4aff6,
	"wang/8x4 bidir":                     0x3d7750967bba5a08,
	"wang/8x4 deadLink":                  0xdb36872e48163ccd,
	"wang/8x4 deadLinkReroute":           0xdb36872e48163ccd,
	"wang/8x4 default":                   0x5f492629afba9d71,
	"wang/8x4 fabric1.5":                 0x94ee5da6bde37acb,
	"wang/8x4 noOverlap":                 0xc21598a9357d5cff,
	"wang/8x4 observed":                  0x363f9d5fbe899dd2,
	"wang/8x4 stepLevel":                 0x1a527f7cc1d328c9,
	"wang/8x4 stretch":                   0x7b15a03d985d7b3e,
	"wang/8x4 stretchStepLevel":          0x8fb2ea4f97272508,
}

func TestSnapshotGoldenBytes(t *testing.T) {
	var missing []string
	for _, c := range goldenPrograms() {
		for _, v := range goldenVariants() {
			key := c.name + " " + v.name
			opts := v.opts
			opts.Metrics = obs.NewRegistry()
			Simulate(c.prog, testHW, opts)
			h := fnv.New64a()
			if err := opts.Metrics.WriteJSON(h); err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			got := h.Sum64()
			want, ok := snapshotDigests[key]
			if !ok {
				missing = append(missing, fmt.Sprintf("%q: %#x,", key, got))
				continue
			}
			if got != want {
				t.Errorf("%s: snapshot bytes drifted: got %#x, want %#x", key, got, want)
			}
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		t.Errorf("no golden digests; add\n%s", strings.Join(missing, "\n"))
	}
	if want := len(goldenPrograms()) * len(goldenVariants()); len(snapshotDigests) != want {
		t.Errorf("digest table has %d rows, the cross product has %d", len(snapshotDigests), want)
	}
}

// TestSnapshotMatchesIdentity requires every golden row's registry to equal
// the identity map's but for the kernel's des_ metrics, which count the
// events the class map saves: those are the only bytes of a snapshot digest
// that running on one class, the critical path included, may move.
func TestSnapshotMatchesIdentity(t *testing.T) {
	for _, c := range goldenPrograms() {
		for _, v := range goldenVariants() {
			opts, ident := v.opts, v.opts
			opts.Metrics, ident.Metrics = obs.NewRegistry(), obs.NewRegistry()
			Simulate(c.prog, testHW, opts)
			identityRun(t, c.prog, testHW, ident)
			if modelSnapshot(t, opts.Metrics) != modelSnapshot(t, ident.Metrics) {
				t.Errorf("%s %s: the snapshot differs from the identity map's beyond des_ metrics", c.name, v.name)
			}
		}
	}
}

// TestSnapshotWriteAllocationGate holds the metrics export to a fixed
// number of objects: writing the snapshot of an observed 8x8 run (four
// times the per-chip gauges of 4x4) allocates what 4x4 does, and so does
// writing the registry. Registering a labeled gauge allocates its key, its
// labels and itself, an unlabeled one only itself, and looking one up again
// allocates nothing.
func TestSnapshotWriteAllocationGate(t *testing.T) {
	measure := func(rows, cols int) (snap, reg float64) {
		prog := sched.MeshSliceProgram(critProb, topology.NewTorus(rows, cols), testHW, 4)
		r := obs.NewRegistry()
		Simulate(prog, testHW, Options{CriticalPath: true, TraceAllChips: true, Metrics: r})
		s := r.Snapshot()
		var err error
		snap = testing.AllocsPerRun(5, func() { err = s.WriteJSON(io.Discard) })
		if err != nil {
			t.Fatal(err)
		}
		reg = testing.AllocsPerRun(5, func() { err = r.WriteJSON(io.Discard) })
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%dx%d: %d gauges, Snapshot.WriteJSON %.0f allocs, Registry.WriteJSON %.0f allocs", rows, cols, len(s.Gauges), snap, reg)
		return snap, reg
	}
	snap4, reg4 := measure(4, 4)
	snap8, reg8 := measure(8, 8)
	if snap4 > 1 || snap8 != snap4 {
		t.Errorf("Snapshot.WriteJSON allocates %.0f objects on 4x4 and %.0f on 8x8, want the same, at most 1", snap4, snap8)
	}
	if reg4 > 4 || reg8 != reg4 {
		t.Errorf("Registry.WriteJSON allocates %.0f objects on 4x4 and %.0f on 8x8, want the same, at most 4", reg4, reg8)
	}

	r := obs.NewRegistry()
	values := make([]string, 102) // AllocsPerRun runs once more than asked
	for i := range values {
		values[i] = obs.PadInt(i, len(values))
	}
	i := 0
	first := testing.AllocsPerRun(100, func() {
		i++
		r.Gauge("netsim_link_busy_seconds", obs.L("prog", "MeshSlice-OS S=4"), obs.L("dir", "row"), obs.L("chip", values[i])).Set(1)
	})
	i = 0
	unlabeled := testing.AllocsPerRun(100, func() {
		i++
		r.Gauge(values[i]).Set(1)
	})
	again := testing.AllocsPerRun(100, func() {
		r.Gauge("netsim_link_busy_seconds", obs.L("chip", values[7]), obs.L("prog", "MeshSlice-OS S=4"), obs.L("dir", "row")).Set(2)
	})
	t.Logf("first registration %.0f allocs (%.0f unlabeled), repeat lookup %.0f", first, unlabeled, again)
	if first > 3 {
		t.Errorf("registering a gauge with 3 labels allocates %.0f objects, want <= 3", first)
	}
	if unlabeled > 1 {
		t.Errorf("registering an unlabeled gauge allocates %.0f objects, want <= 1 (its key is its name)", unlabeled)
	}
	if again > 1 {
		t.Errorf("looking up a registered gauge allocates %.0f objects, want <= 1", again)
	}
}
