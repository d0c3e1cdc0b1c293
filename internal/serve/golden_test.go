package serve_test

import (
	"fmt"
	"hash/fnv"
	"sync"
	"testing"

	"meshslice/internal/autotune"
	"meshslice/internal/fault"
	"meshslice/internal/hw"
	"meshslice/internal/model"
	"meshslice/internal/obs"
	"meshslice/internal/serve"
	"meshslice/internal/topology"
)

// The digests below are FNV-64a over Report.WriteJSON bytes, captured before
// the step loop lost its per-token metric updates, its per-preemption queue
// copies and its per-step pricing. Any change to the scheduler that moves a
// single byte of any report — a latency, a counter, a histogram sum — fails
// here. A missing row prints the literal to paste.

// goldenGrid pins every deployment of TuneServing's default grid (GPT-3 on
// 64 chips) on the benchmark's two traces.
var goldenGrid = map[string]uint64{
	"lo 2x32 mb16 c256 s1":    0xf93f023aa3a29d03,
	"lo 2x32 mb16 c256 s4":    0xfa2129ae588f28f8,
	"lo 2x32 mb16 c512 s1":    0xe327e5b70f74ef9c,
	"lo 2x32 mb16 c512 s4":    0x1646c10bbe061556,
	"lo 2x32 mb32 c256 s1":    0xd06ffd9a6e9593d2,
	"lo 2x32 mb32 c256 s4":    0x159bed66511c55,
	"lo 2x32 mb32 c512 s1":    0xdce8b5f170b40fa8,
	"lo 2x32 mb32 c512 s4":    0xc0f726ef184748a2,
	"lo 2x32 mb64 c256 s1":    0x6fbf7d34af62c936,
	"lo 2x32 mb64 c256 s4":    0x4f8ebd9501c144fc,
	"lo 2x32 mb64 c512 s1":    0x34f6d37939f96477,
	"lo 2x32 mb64 c512 s4":    0x4e08391c858cc770,
	"lo 4x16 mb16 c256 s1":    0xa9071f68b8c1bcef,
	"lo 4x16 mb16 c256 s4":    0xef47bee6ba353d5e,
	"lo 4x16 mb16 c512 s1":    0xddd10871d5e9e984,
	"lo 4x16 mb16 c512 s4":    0xb7a6cb97e9fac8be,
	"lo 4x16 mb32 c256 s1":    0x517f3599fc059cf7,
	"lo 4x16 mb32 c256 s4":    0xfc4146f623a45e7a,
	"lo 4x16 mb32 c512 s1":    0x2041e24eb262c13c,
	"lo 4x16 mb32 c512 s4":    0xe2055e463a35b297,
	"lo 4x16 mb64 c256 s1":    0xf8fc79d3bbdaedcf,
	"lo 4x16 mb64 c256 s4":    0xe050fb72623b51f9,
	"lo 4x16 mb64 c512 s1":    0x7e4e6ea3ca835457,
	"lo 4x16 mb64 c512 s4":    0xeafb924878694941,
	"lo 8x8 mb16 c256 s1":     0x2f0c86a48abc29b2,
	"lo 8x8 mb16 c256 s4":     0x726df9bd3a7511df,
	"lo 8x8 mb16 c512 s1":     0x8563b0eeafdd5fcd,
	"lo 8x8 mb16 c512 s4":     0xe000766b789f95f,
	"lo 8x8 mb32 c256 s1":     0xb6bb4d2295cac62a,
	"lo 8x8 mb32 c256 s4":     0x73a2b319650f629b,
	"lo 8x8 mb32 c512 s1":     0x3ac107c8e3f96981,
	"lo 8x8 mb32 c512 s4":     0xbb88307ea6a056f8,
	"lo 8x8 mb64 c256 s1":     0xf80b21d47b675b02,
	"lo 8x8 mb64 c256 s4":     0xda0d0bbfb3f2004c,
	"lo 8x8 mb64 c512 s1":     0xd48030a15980bb40,
	"lo 8x8 mb64 c512 s4":     0xca233542a66cd56a,
	"lo 16x4 mb16 c256 s1":    0x8cd3dc0ac6010b27,
	"lo 16x4 mb16 c256 s4":    0xfeb983f9feb6c7e4,
	"lo 16x4 mb16 c512 s1":    0x47f1d914d5038aa7,
	"lo 16x4 mb16 c512 s4":    0xf45788cb89115dd1,
	"lo 16x4 mb32 c256 s1":    0x3aad8366d9bd8ff,
	"lo 16x4 mb32 c256 s4":    0xc95b03fa41e1fc48,
	"lo 16x4 mb32 c512 s1":    0x5359690345bba683,
	"lo 16x4 mb32 c512 s4":    0xa2c63c339adff20c,
	"lo 16x4 mb64 c256 s1":    0xdbcb212ee3f2c4f,
	"lo 16x4 mb64 c256 s4":    0x647d9556e9928e71,
	"lo 16x4 mb64 c512 s1":    0xed0cde59730a2e70,
	"lo 16x4 mb64 c512 s4":    0xf85afab9e2720a,
	"lo 32x2 mb16 c256 s1":    0xc675dde2a3c39ff1,
	"lo 32x2 mb16 c256 s4":    0xd138ff27ab021628,
	"lo 32x2 mb16 c512 s1":    0x45b5c0ae38fa33e3,
	"lo 32x2 mb16 c512 s4":    0x5895845e499296f1,
	"lo 32x2 mb32 c256 s1":    0x67873020846f0db0,
	"lo 32x2 mb32 c256 s4":    0xad7e947161d03651,
	"lo 32x2 mb32 c512 s1":    0xe50757db3e20c214,
	"lo 32x2 mb32 c512 s4":    0x2703ecedc7e9c861,
	"lo 32x2 mb64 c256 s1":    0x19d6655eca2fa784,
	"lo 32x2 mb64 c256 s4":    0xcd40b58f921f6496,
	"lo 32x2 mb64 c512 s1":    0x4846d1f467e84f11,
	"lo 32x2 mb64 c512 s4":    0x24d6e8bfd942d1bf,
	"hi_kv 2x32 mb16 c256 s1": 0xfbdb538056f9dbb,
	"hi_kv 2x32 mb16 c256 s4": 0x10ffd1441f1603f6,
	"hi_kv 2x32 mb16 c512 s1": 0x822ebbcf2909fb1,
	"hi_kv 2x32 mb16 c512 s4": 0xe25943a50a38b42b,
	"hi_kv 2x32 mb32 c256 s1": 0x732e690fe0dc739,
	"hi_kv 2x32 mb32 c256 s4": 0x966297b9920ed6f,
	"hi_kv 2x32 mb32 c512 s1": 0x970e5eb04085673c,
	"hi_kv 2x32 mb32 c512 s4": 0xe79d4c5d2052b26f,
	"hi_kv 2x32 mb64 c256 s1": 0x9ea80fbe19618404,
	"hi_kv 2x32 mb64 c256 s4": 0xf9ead51aae66987,
	"hi_kv 2x32 mb64 c512 s1": 0xc61a27262480cbb7,
	"hi_kv 2x32 mb64 c512 s4": 0x928c6b890b422248,
	"hi_kv 4x16 mb16 c256 s1": 0x2fc1a41178bcb9ec,
	"hi_kv 4x16 mb16 c256 s4": 0xa2fc2adb6c2a803f,
	"hi_kv 4x16 mb16 c512 s1": 0xf4bba1ed90823d48,
	"hi_kv 4x16 mb16 c512 s4": 0x9d4e5b5c06e1b904,
	"hi_kv 4x16 mb32 c256 s1": 0xb67426af13aadad7,
	"hi_kv 4x16 mb32 c256 s4": 0xf4a21ec74b3f33ee,
	"hi_kv 4x16 mb32 c512 s1": 0x5ef9b35e5b298b54,
	"hi_kv 4x16 mb32 c512 s4": 0x87165641cb9cc3cf,
	"hi_kv 4x16 mb64 c256 s1": 0x2f46a27bba7dee2,
	"hi_kv 4x16 mb64 c256 s4": 0x896fac92ccd9f983,
	"hi_kv 4x16 mb64 c512 s1": 0x8d8609f1c149e6ac,
	"hi_kv 4x16 mb64 c512 s4": 0xb64e068bc3b609d3,
	"hi_kv 8x8 mb16 c256 s1":  0x293bbb7e515feaf1,
	"hi_kv 8x8 mb16 c256 s4":  0xa82e3e3b93fed24e,
	"hi_kv 8x8 mb16 c512 s1":  0x684c90b436f3f7da,
	"hi_kv 8x8 mb16 c512 s4":  0x71b32ec52e114efe,
	"hi_kv 8x8 mb32 c256 s1":  0x9cf7bb2745bf2b62,
	"hi_kv 8x8 mb32 c256 s4":  0x44f328d8247df983,
	"hi_kv 8x8 mb32 c512 s1":  0xaf09e223e67d8828,
	"hi_kv 8x8 mb32 c512 s4":  0x658caf429b57032a,
	"hi_kv 8x8 mb64 c256 s1":  0xe735cc243fea84ab,
	"hi_kv 8x8 mb64 c256 s4":  0xb09d5f9eb6d918bc,
	"hi_kv 8x8 mb64 c512 s1":  0xb77b75c26475661e,
	"hi_kv 8x8 mb64 c512 s4":  0xefed2b0d30c61b5a,
	"hi_kv 16x4 mb16 c256 s1": 0xd99472f9de888fe5,
	"hi_kv 16x4 mb16 c256 s4": 0xae9c654dacb59116,
	"hi_kv 16x4 mb16 c512 s1": 0x382bdae459a23c6,
	"hi_kv 16x4 mb16 c512 s4": 0x725a94f1281b9f5e,
	"hi_kv 16x4 mb32 c256 s1": 0x68f8a4ce8e5bf796,
	"hi_kv 16x4 mb32 c256 s4": 0x5df519bb83ae631d,
	"hi_kv 16x4 mb32 c512 s1": 0xadff4fd679f818be,
	"hi_kv 16x4 mb32 c512 s4": 0xe6c71dbeef92d036,
	"hi_kv 16x4 mb64 c256 s1": 0x2c5db1569327321b,
	"hi_kv 16x4 mb64 c256 s4": 0xd790e3c7a5b96b9d,
	"hi_kv 16x4 mb64 c512 s1": 0x32d951cac281fe1,
	"hi_kv 16x4 mb64 c512 s4": 0xe41010cef57f0a07,
	"hi_kv 32x2 mb16 c256 s1": 0xf69efa4e0b325acc,
	"hi_kv 32x2 mb16 c256 s4": 0x57f53ae356c17159,
	"hi_kv 32x2 mb16 c512 s1": 0x9c235372be18ee1c,
	"hi_kv 32x2 mb16 c512 s4": 0x658f8580f8c179c2,
	"hi_kv 32x2 mb32 c256 s1": 0x50936d511efc2883,
	"hi_kv 32x2 mb32 c256 s4": 0x4cf799d4e9a37233,
	"hi_kv 32x2 mb32 c512 s1": 0x9b8b1d13c5437a38,
	"hi_kv 32x2 mb32 c512 s4": 0xdb3ea4051c45228,
	"hi_kv 32x2 mb64 c256 s1": 0x9d5e6a0967de4f1e,
	"hi_kv 32x2 mb64 c256 s4": 0x9bc060e23578ccff,
	"hi_kv 32x2 mb64 c512 s1": 0x52b66fadae015ee9,
	"hi_kv 32x2 mb64 c512 s4": 0x6522ad60fc563c88,
}

// goldenFaults pins TuneServingUnderFaults on the CLI's default 16-chip
// serving scenario: {stale, stale under the plan, retuned} report digests.
var goldenFaults = map[string][3]uint64{
	"col-degrade": {0xff096000fca2264, 0xaf3a7c6a9ff4837a, 0xce8a211a9102ae3d},
	"chip-fail":   {0xff096000fca2264, 0x658872c01f89948d, 0x9a96427d17a4aac6},
}

// goldenFabrics pins fixed 32-chip deployments on 4×8 and 8×4 at S = 3 and
// S = 8 under four fabrics, captured while serve still carried its own copy
// of the three-dataflow formula. A swapped row/col link assignment or a
// reordered summation (fS·x/fS is not exact for S = 3) moves at least one
// of these reports.
var goldenFabrics = map[string]uint64{
	"healthy 4x8 s3":     0x951d557c0601266c,
	"healthy 4x8 s8":     0x6259e16cd34ed97a,
	"healthy 8x4 s3":     0x987983c0a389d0c0,
	"healthy 8x4 s8":     0xd834cf82c8ae7ccb,
	"col-degrade 4x8 s3": 0xf20e6f382cce24d8,
	"col-degrade 4x8 s8": 0x691ddeb23f0b1145,
	"col-degrade 8x4 s3": 0x77bf724404b59b83,
	"col-degrade 8x4 s8": 0x39852d6b8f9113c3,
	"stragglers 4x8 s3":  0xf75b24c240e024bd,
	"stragglers 4x8 s8":  0x404b5d4ce172bdb,
	"stragglers 8x4 s3":  0x5de4935f00489a77,
	"stragglers 8x4 s8":  0xe6068194b40551dc,
	"link-fail 4x8 s3":   0x66a8a3c37ffc1b07,
	"link-fail 4x8 s8":   0x4d558afc3161f015,
	"link-fail 8x4 s3":   0xf37db4d65f55e8c7,
	"link-fail 8x4 s8":   0x7465d608843ae28,
}

// goldenSharedRegistry pins two consecutive Runs publishing into one
// caller-supplied registry: the second report's snapshot carries both runs.
var goldenSharedRegistry = [2]uint64{0xca233542a66cd56a, 0x502ff6c57e1e5ea0}

type goldenTrace struct {
	name string
	hbm  float64
	reqs []serve.Request
}

// goldenTraces are the serve_tune benchmark's traces: lo (requests trickle
// in, batches stay small) and hi_kv (the KV budget binds and preemption
// runs).
func goldenTraces() []goldenTrace {
	return []goldenTrace{
		{"lo", 64 << 30, serve.WorkloadSpec{Seed: 1, Rate: 5, Requests: 768}.Generate()},
		{"hi_kv", 5.8 * (1 << 30), serve.WorkloadSpec{Seed: 2, Rate: 50, Requests: 768}.Generate()},
	}
}

var goldenSLO = serve.SLO{TTFT: 1.0, PerToken: 0.05}

func reportDigest(t *testing.T, rep *serve.Report) uint64 {
	t.Helper()
	h := fnv.New64a()
	if err := rep.WriteJSON(h); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return h.Sum64()
}

// gridRows lists TuneServing's default grid (GPT-3 on 64 chips) on one
// trace in grid order: each row's goldenGrid key and its configuration.
func gridRows(tr goldenTrace, prices *serve.Prices) ([]string, []serve.Config) {
	const chips = 64
	var keys []string
	var cfgs []serve.Config
	for _, shape := range topology.MeshShapes2D(chips) {
		for _, mb := range []int{16, 32, 64} {
			for _, chunk := range []int{256, 512} {
				for _, s := range []int{1, 4} {
					keys = append(keys, fmt.Sprintf("%s %dx%d mb%d c%d s%d", tr.name, shape.Rows, shape.Cols, mb, chunk, s))
					cfgs = append(cfgs, serve.Config{
						Model: model.GPT3(), Chip: hw.TPUv4(), Mesh: shape,
						Policy: serve.Policy{MaxBatch: mb, ChunkTokens: chunk, SliceCount: s},
						SLO:    goldenSLO, HBMBytes: tr.hbm, ClusterChips: chips, Prices: prices,
					})
				}
			}
		}
	}
	return keys, cfgs
}

func TestGoldenServingGrid(t *testing.T) {
	rows := 0
	for _, tr := range goldenTraces() {
		keys, cfgs := gridRows(tr, nil)
		type deployment struct {
			shape topology.Torus
			pol   serve.Policy
		}
		byDeployment := map[deployment]string{}
		for i, cfg := range cfgs {
			byDeployment[deployment{cfg.Mesh, cfg.Policy}] = keys[i]
			rows++
			rep, err := serve.Run(cfg, tr.reqs)
			if err != nil {
				t.Fatalf("%s: %v", keys[i], err)
			}
			checkGolden(t, keys[i], reportDigest(t, rep), goldenGrid)
		}
		// The tuner must pick a grid row and return exactly its bytes.
		c, err := autotune.TuneServing(model.GPT3(), 64, hw.TPUv4(), goldenSLO, tr.reqs, autotune.ServingOptions{HBMBytes: tr.hbm})
		if err != nil {
			t.Fatalf("%s: TuneServing: %v", tr.name, err)
		}
		key := byDeployment[deployment{c.Shape, c.Policy}]
		if want, ok := goldenGrid[key]; !ok || reportDigest(t, c.Report) != want {
			t.Errorf("%s: TuneServing picked %q, whose report does not match its grid row", tr.name, key)
		}
	}
	if len(goldenGrid) != rows {
		t.Errorf("grid table has %d rows, the sweep has %d", len(goldenGrid), rows)
	}
}

// TestGoldenGridSharedPrices runs every grid row of each trace through one
// price cache, last row first on two goroutines, so rows read entries other
// rows priced and tables grow while in use; each report must still match
// its goldenGrid literal.
func TestGoldenGridSharedPrices(t *testing.T) {
	for _, tr := range goldenTraces() {
		prices, err := serve.NewPrices(model.GPT3(), hw.TPUv4(), 64, nil)
		if err != nil {
			t.Fatal(err)
		}
		keys, cfgs := gridRows(tr, prices)
		reps := make([]*serve.Report, len(cfgs))
		errs := make([]error, len(cfgs))
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int, reqs []serve.Request) {
				defer wg.Done()
				for i := len(cfgs) - 1 - w; i >= 0; i -= 2 {
					reps[i], errs[i] = serve.Run(cfgs[i], reqs)
				}
			}(w, tr.reqs)
		}
		wg.Wait()
		for i, key := range keys {
			if errs[i] != nil {
				t.Fatalf("%s: %v", key, errs[i])
			}
			checkGolden(t, key, reportDigest(t, reps[i]), goldenGrid)
		}
	}
}

func checkGolden(t *testing.T, key string, got uint64, table map[string]uint64) {
	t.Helper()
	want, ok := table[key]
	if !ok {
		t.Errorf("no golden digest; add\n%q: %#x,", key, got)
		return
	}
	if got != want {
		t.Errorf("%s: report bytes drifted: got %#x, want %#x", key, got, want)
	}
}

// goldenPlans are the CLI's col-degrade and chip-fail scenarios on 16 chips
// (factor 6): every horizontal link 6× slower, or chips 9–15 failed so only
// a 3×3 survives.
func goldenPlans() map[string]*fault.Plan {
	deg := &fault.Plan{}
	for c := 0; c < 16; c++ {
		deg.Degrades = append(deg.Degrades, fault.LinkDegrade{
			Link: fault.Link{Chip: c, Dir: topology.InterCol}, Factor: 6,
		})
	}
	fail := &fault.Plan{}
	for c := 9; c < 16; c++ {
		fail.ChipFails = append(fail.ChipFails, fault.ChipFail{Chip: c})
	}
	return map[string]*fault.Plan{"col-degrade": deg, "chip-fail": fail}
}

func TestGoldenServingUnderFaults(t *testing.T) {
	wl := serve.WorkloadSpec{Seed: 42, Rate: 10, Requests: 32}.Generate()
	for name, plan := range goldenPlans() {
		res, err := autotune.TuneServingUnderFaults(model.GPT3(), 16, hw.TPUv4(), goldenSLO, wl, plan,
			autotune.ServingOptions{HBMBytes: 64 << 30})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := [3]uint64{reportDigest(t, res.Stale.Report), reportDigest(t, res.StaleUnderFaults), reportDigest(t, res.Retuned.Report)}
		want, ok := goldenFaults[name]
		switch {
		case !ok:
			t.Errorf("no golden digests; add\n%q: {%#x, %#x, %#x},", name, got[0], got[1], got[2])
		case got != want:
			t.Errorf("%s: report bytes drifted: got {%#x, %#x, %#x}, want {%#x, %#x, %#x}",
				name, got[0], got[1], got[2], want[0], want[1], want[2])
		}
	}
}

// fabricPlans are the 32-chip fabrics of goldenFabrics: every horizontal link
// 6× slower; two stragglers; and a vertical link failure beside a milder
// vertical degrade, so directionFactor lifts the InterRow factor to 2.
func fabricPlans() map[string]*fault.Plan {
	const chips = 32
	deg := &fault.Plan{}
	for c := 0; c < chips; c++ {
		deg.Degrades = append(deg.Degrades, fault.LinkDegrade{
			Link: fault.Link{Chip: c, Dir: topology.InterCol}, Factor: 6,
		})
	}
	return map[string]*fault.Plan{
		"healthy":     nil,
		"col-degrade": deg,
		"stragglers": {Stragglers: []fault.Straggler{
			{Chip: 3, Slowdown: 1.7}, {Chip: 20, Slowdown: 2.3, Start: 0.5, End: 4},
		}},
		"link-fail": {
			Degrades:  []fault.LinkDegrade{{Link: fault.Link{Chip: 5, Dir: topology.InterRow}, Factor: 1.5}},
			LinkFails: []fault.LinkFail{{Link: fault.Link{Chip: 11, Dir: topology.InterRow}, At: 0.25}},
		},
	}
}

func TestGoldenServingFabrics(t *testing.T) {
	wl := serve.WorkloadSpec{Seed: 7, Rate: 20, Requests: 64}.Generate()
	rows := 0
	for name, plan := range fabricPlans() {
		for _, shape := range []topology.Torus{topology.NewTorus(4, 8), topology.NewTorus(8, 4)} {
			for _, s := range []int{3, 8} {
				key := fmt.Sprintf("%s %dx%d s%d", name, shape.Rows, shape.Cols, s)
				rows++
				rep, err := serve.Run(serve.Config{
					Model: model.GPT3(), Chip: hw.TPUv4(), Mesh: shape, Policy: serve.Policy{SliceCount: s},
					SLO: goldenSLO, HBMBytes: 16 << 30, ClusterChips: 32, Faults: plan,
				}, wl)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				checkGolden(t, key, reportDigest(t, rep), goldenFabrics)
			}
		}
	}
	if len(goldenFabrics) != rows {
		t.Errorf("fabric table has %d rows, the sweep has %d", len(goldenFabrics), rows)
	}
}

// TestGoldenSharedRegistry runs lo then hi_kv on 8×8 into one registry: the
// metrics Run publishes must land on a registry that already holds a run's
// counts exactly as if every event had been published as it happened.
func TestGoldenSharedRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	var got [2]uint64
	for i, tr := range goldenTraces() {
		rep, err := serve.Run(serve.Config{
			Model: model.GPT3(), Chip: hw.TPUv4(), Mesh: topology.NewTorus(8, 8),
			Policy: serve.Policy{MaxBatch: 64}, SLO: goldenSLO, HBMBytes: tr.hbm, Registry: reg,
		}, tr.reqs)
		if err != nil {
			t.Fatalf("%s: %v", tr.name, err)
		}
		got[i] = reportDigest(t, rep)
	}
	if got != goldenSharedRegistry {
		t.Errorf("shared-registry reports drifted: got {%#x, %#x}, want {%#x, %#x}",
			got[0], got[1], goldenSharedRegistry[0], goldenSharedRegistry[1])
	}
}
