package netsim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"meshslice/internal/fault"
	"meshslice/internal/sched"
	"meshslice/internal/topology"
)

// chromeDigests pins the bytes of every Chrome export: FNV-64a of the
// single-chip, whole-cluster and faulty-cluster writers' output for each
// golden row, captured while the writers still went through encoding/json.
// The append-based writer must reproduce each one, escaping, float format
// and key order included.
var chromeDigests = map[string][3]uint64{
	"meshslice/4x4 default":              {0x86948b6ce76bcd85, 0x88997444ef92eee9, 0x88997444ef92eee9},
	"meshslice/4x4 noOverlap":            {0xe30c454330e15b6b, 0xb1b4b81f8bff661d, 0xb1b4b81f8bff661d},
	"meshslice/4x4 stepLevel":            {0xbb4130b01efa56b4, 0x5414cede18d4fc8d, 0x5414cede18d4fc8d},
	"meshslice/4x4 fabric1.5":            {0xce0685ca7d98a07d, 0x2524425d5d832cb, 0x2524425d5d832cb},
	"meshslice/4x4 bidir":                {0x4a648e39eb3afee, 0xe20ae3c39f9b0389, 0xe20ae3c39f9b0389},
	"meshslice/4x4 observed":             {0x9303b003c1a1660e, 0x1cfe3e78dfe81991, 0x1cfe3e78dfe81991},
	"meshslice/4x4 stretch":              {0x8b01a30af2b09c30, 0x53501df0855274aa, 0x7ccec26f5a04d9ad},
	"meshslice/4x4 stretchStepLevel":     {0xd569caa926a982cd, 0x9a24a476859b71a8, 0xcde89f0489f900a2},
	"meshslice/4x4 deadLink":             {0x7b50048ecb195b23, 0xfef37766c90e800, 0x173fb41bc7ca287d},
	"meshslice/4x4 deadLinkReroute":      {0x87a1d1db824aad22, 0x7ef9ee9e515e6ca, 0xd46052ca395016fd},
	"meshslice/8x4 default":              {0x9c1f9ff3909e1b30, 0xcf164b49d43a72b, 0xcf164b49d43a72b},
	"meshslice/8x4 noOverlap":            {0xd25f225f2db29a10, 0xc345e50cbe4d1b67, 0xc345e50cbe4d1b67},
	"meshslice/8x4 stepLevel":            {0x2bdad66775b8a73e, 0x4910bde0adb89013, 0x4910bde0adb89013},
	"meshslice/8x4 fabric1.5":            {0x8dc9bc644f99e6b2, 0xab21d68e96c3d5ff, 0xab21d68e96c3d5ff},
	"meshslice/8x4 bidir":                {0xf2c433f889621cbb, 0x1b98fbd788c59685, 0x1b98fbd788c59685},
	"meshslice/8x4 observed":             {0x6cbb87abcdea063b, 0x23c69181abbcd0ad, 0x23c69181abbcd0ad},
	"meshslice/8x4 stretch":              {0xfc7e0dc3627a85a5, 0xd2e8a2c97bc03fd5, 0xf3c6cfc8c3a29615},
	"meshslice/8x4 stretchStepLevel":     {0x30c5452bdf438b4c, 0x9e263c35f099323e, 0xa8f6e25890d3adf6},
	"meshslice/8x4 deadLink":             {0x5b06b91eea869601, 0xe2f13082c319878c, 0xfffe393b998f70b1},
	"meshslice/8x4 deadLinkReroute":      {0x1c05673485ef94b1, 0xacec9950ea31fc04, 0x22be8239b42e059b},
	"meshsliceLS/8x4 default":            {0xbd8e6e407cb6f352, 0xae6ce5860b94648b, 0xae6ce5860b94648b},
	"meshsliceLS/8x4 noOverlap":          {0xc5c4b127460c47a0, 0xc27e7e22831eeb6b, 0xc27e7e22831eeb6b},
	"meshsliceLS/8x4 stepLevel":          {0xe2277af6ced9d986, 0x691420ca717aa623, 0x691420ca717aa623},
	"meshsliceLS/8x4 fabric1.5":          {0x51bcf4d158592073, 0xf3b454a1a8bb6b61, 0xf3b454a1a8bb6b61},
	"meshsliceLS/8x4 bidir":              {0x435b0e68f5319f95, 0x82aeb7bd98b60e61, 0x82aeb7bd98b60e61},
	"meshsliceLS/8x4 observed":           {0x9622b87603e1768d, 0x10fff0fc5f374821, 0x10fff0fc5f374821},
	"meshsliceLS/8x4 stretch":            {0x78b60a293925cee4, 0x1859fe5bc7519905, 0xbdebecae89ee9b17},
	"meshsliceLS/8x4 stretchStepLevel":   {0x1c4bed6b3c2e44bd, 0x918ef8e26daafb7c, 0xa97c5be07ab0d422},
	"meshsliceLS/8x4 deadLink":           {0x9e6bdb27d55c4600, 0x9ac7faf76d982768, 0xf1ad0c5bf7ce6cfd},
	"meshsliceLS/8x4 deadLinkReroute":    {0x5a51cb0cd5b19604, 0x70350f0251665ea3, 0x69447bf20f960a69},
	"wang/4x4 default":                   {0x770f6b27b5ce4333, 0xa137c39db8cdc293, 0xa137c39db8cdc293},
	"wang/4x4 noOverlap":                 {0xc28a4aa9df03aad2, 0x5ca282c1ce5e2833, 0x5ca282c1ce5e2833},
	"wang/4x4 stepLevel":                 {0x6d7dfcc1ace82482, 0xfeb76ba5b82f5919, 0xfeb76ba5b82f5919},
	"wang/4x4 fabric1.5":                 {0x1919e0a631bbdd6b, 0x1071d192b3f30b43, 0x1071d192b3f30b43},
	"wang/4x4 bidir":                     {0x109e80b56d77f50d, 0x9456effb5d908a3d, 0x9456effb5d908a3d},
	"wang/4x4 observed":                  {0x9ab3ee91af0d7334, 0x787fbce903c2d167, 0x787fbce903c2d167},
	"wang/4x4 stretch":                   {0x308dc4405991225f, 0xa4d2535deb2bd945, 0xf008a2872a64ccfa},
	"wang/4x4 stretchStepLevel":          {0xcfb398388a0923df, 0x252434328e9918d, 0x3cf772c8970cec82},
	"wang/4x4 deadLink":                  {0x3a9f7c9abf7e13fd, 0x12a1b815d76d2feb, 0x53acce3926cde8f5},
	"wang/4x4 deadLinkReroute":           {0x3c13e1cb7a4a740a, 0x948c7a7b86ecc0c1, 0xb4e6532303ddb00b},
	"wang/8x4 default":                   {0xfd387824022208c7, 0x1637b0822188118b, 0x1637b0822188118b},
	"wang/8x4 noOverlap":                 {0x3aa494310c1331b, 0x5e8133982093efaf, 0x5e8133982093efaf},
	"wang/8x4 stepLevel":                 {0xfa56fec2e91ea2a6, 0xf38d59cf04a45d9f, 0xf38d59cf04a45d9f},
	"wang/8x4 fabric1.5":                 {0x1c4421ab14812b73, 0x70026a637d68663f, 0x70026a637d68663f},
	"wang/8x4 bidir":                     {0x78c5ca9db4c1ce24, 0xad62fb2d65e09193, 0xad62fb2d65e09193},
	"wang/8x4 observed":                  {0xab917c48d0586132, 0xdeeef4865bb30dff, 0xdeeef4865bb30dff},
	"wang/8x4 stretch":                   {0x2c3eb6d117b3d99e, 0x26f3f46ff3af9512, 0x9211e11613ec7c7a},
	"wang/8x4 stretchStepLevel":          {0x766052a8107864aa, 0xd3418203aafe50d1, 0xcb17ed5d403ec361},
	"wang/8x4 deadLink":                  {0x7b4059c4c84574a4, 0x9b7f5e3f04d6ed57, 0xc126a5beaadebeab},
	"wang/8x4 deadLinkReroute":           {0xd34c4cadddd17fac, 0x59454cbff7eef7ff, 0xc66aca65d49261ab},
	"summa/4x4 default":                  {0xff89bd24ad38b1b3, 0x686d8bc48e629ae9, 0x686d8bc48e629ae9},
	"summa/4x4 noOverlap":                {0x9a31e820f5ef2057, 0xb98658b0eedcd379, 0xb98658b0eedcd379},
	"summa/4x4 stepLevel":                {0xaec6be0efd19826e, 0x54410d218b63e323, 0x54410d218b63e323},
	"summa/4x4 fabric1.5":                {0x88869106b2bc9560, 0x8c45280612d9279, 0x8c45280612d9279},
	"summa/4x4 bidir":                    {0xfb9e5ca801d9c71a, 0x4bdcb40e4095d4cb, 0x4bdcb40e4095d4cb},
	"summa/4x4 observed":                 {0x37f1a2e251a464a0, 0x44e3050bb3012f11, 0x44e3050bb3012f11},
	"summa/4x4 stretch":                  {0x4519f7c48bd10ef2, 0x9d051c34c9e9b97c, 0x5e76ec9787659e80},
	"summa/4x4 stretchStepLevel":         {0xe8fce14ec2953c92, 0xb9c3645cdf88da92, 0x142ae66efaca190},
	"summa/4x4 deadLink":                 {0x3cf3ecfc4663fb7a, 0x8da35c4ea622d937, 0x19205e4cc7c9ef0},
	"summa/4x4 deadLinkReroute":          {0x56ad022650c56f8, 0x3ebd71ff8f21c051, 0x457e3237cf5475ad},
	"summa/8x4 default":                  {0x5feff59f6540fcc4, 0x577748451dc38973, 0x577748451dc38973},
	"summa/8x4 noOverlap":                {0xb73cfb8cae280e8b, 0x36cc9b9235f2d3cd, 0x36cc9b9235f2d3cd},
	"summa/8x4 stepLevel":                {0x7d0edde184355a6b, 0x753592b0e367139d, 0x753592b0e367139d},
	"summa/8x4 fabric1.5":                {0xf5088be92b6b88bc, 0xdb7cb694aecb5c5b, 0xdb7cb694aecb5c5b},
	"summa/8x4 bidir":                    {0x58f16aa0d90f992f, 0xcb29f74a657ac77d, 0xcb29f74a657ac77d},
	"summa/8x4 observed":                 {0x88618eab20f6530d, 0x3d76c0cf7ee0e30d, 0x3d76c0cf7ee0e30d},
	"summa/8x4 stretch":                  {0x60e2515c8b40c56e, 0x8a132524fec0b39e, 0x6b6fbdf1e82d9001},
	"summa/8x4 stretchStepLevel":         {0x1d48e7bd2d77d2e, 0x8b79e079f846ecfc, 0x71ac8ee55f6e5585},
	"summa/8x4 deadLink":                 {0xa2c41d97dd5bc160, 0x15c4cc2ca6686fdd, 0xa44ed66a26c2d9ee},
	"summa/8x4 deadLinkReroute":          {0xac2ffc395bd1da85, 0x2111c2673cc10e9d, 0xe3d1abeb844ec8fe},
	"cannon/4x4 default":                 {0x4be6e71424812bd7, 0xc0c4ad914f68751b, 0xc0c4ad914f68751b},
	"cannon/4x4 noOverlap":               {0x92b91689b4f4ed55, 0x614e64e59310e32f, 0x614e64e59310e32f},
	"cannon/4x4 stepLevel":               {0x4f1f9cb6f6488d2, 0x2ec5e7cf4f648aa5, 0x2ec5e7cf4f648aa5},
	"cannon/4x4 fabric1.5":               {0xf1f5563d53c558e2, 0xfe3fe494885354ed, 0xfe3fe494885354ed},
	"cannon/4x4 bidir":                   {0xf7626ce012b7bece, 0xc6efba8312ad0949, 0xc6efba8312ad0949},
	"cannon/4x4 observed":                {0xc605ad9f1269870, 0xe9ce82769d57c9c3, 0xe9ce82769d57c9c3},
	"cannon/4x4 stretch":                 {0x93f661ac29f6818d, 0x4babaa500f5460be, 0x14e2abf04ba67f13},
	"cannon/4x4 stretchStepLevel":        {0x3ce0bfa4f6e33d59, 0xd89d36330e68f774, 0xb7d23fff1f73a173},
	"cannon/4x4 deadLink":                {0x3d3e6257b4d001cd, 0xefd347972488f6de, 0x507fab829ceff7af},
	"cannon/4x4 deadLinkReroute":         {0xcbf41f630a75ac04, 0x90e1e9631cf1e4c4, 0xb2d0b66cef9e6e05},
	"collective/4x4 default":             {0x4037789d51bc6cad, 0x4f63fe8cd65f8b59, 0x4f63fe8cd65f8b59},
	"collective/4x4 noOverlap":           {0x2743201562217489, 0x9247645105afd89d, 0x9247645105afd89d},
	"collective/4x4 stepLevel":           {0x27f88e5f09882fe0, 0x89455105bc1d7675, 0x89455105bc1d7675},
	"collective/4x4 fabric1.5":           {0xcd441f8293d2e9cd, 0x1f69ef7fe0992fad, 0x1f69ef7fe0992fad},
	"collective/4x4 bidir":               {0x40ac2355119838fc, 0x875685c35fbe804d, 0x875685c35fbe804d},
	"collective/4x4 observed":            {0x9c84dff1bc974338, 0x668438319ab81e95, 0x668438319ab81e95},
	"collective/4x4 stretch":             {0x5b2a4f912520c453, 0xca4aa19c06f0bacf, 0xa030855d34f74c62},
	"collective/4x4 stretchStepLevel":    {0x8caefe1aa33636d1, 0x779f18f573aa7591, 0x76306b37a0ef041e},
	"collective/4x4 deadLink":            {0xc297ef81b32cb072, 0x1a33ab5b6a02ae29, 0xf54a2378707dd7d5},
	"collective/4x4 deadLinkReroute":     {0x6020264cd492fef4, 0xeb78db0c772e66b9, 0x48e5d056e1e6cb2b},
	"collective/8x4 default":             {0xe45def89b9fae095, 0x8b74d559ff30c85d, 0x8b74d559ff30c85d},
	"collective/8x4 noOverlap":           {0xad4af2530320a74f, 0x89b93d354a202065, 0x89b93d354a202065},
	"collective/8x4 stepLevel":           {0x59715eed8d55ef59, 0xb630fef3ceb106bd, 0xb630fef3ceb106bd},
	"collective/8x4 fabric1.5":           {0xec8457ba635e2571, 0x8f46b5b8bda9e96d, 0x8f46b5b8bda9e96d},
	"collective/8x4 bidir":               {0x39207ec1bc39baa7, 0xf61a3a821387b6b9, 0xf61a3a821387b6b9},
	"collective/8x4 observed":            {0x9c0e1c7058fde71c, 0x929646a34b699, 0x929646a34b699},
	"collective/8x4 stretch":             {0x35ac47198d0f5af2, 0x34ae8becf9ef4e60, 0xb3f995a5e60e7f8d},
	"collective/8x4 stretchStepLevel":    {0x17750ab09d245d6f, 0x83f9c072b60fccd9, 0xb27aa3cd1f1ced90},
	"collective/8x4 deadLink":            {0x2dccb76c051eec0a, 0x264a604785fa26f9, 0xbde7b7a9dd7bb4fe},
	"collective/8x4 deadLinkReroute":     {0x2cf2aca259610af8, 0x4879284bcb71ee79, 0xbcf07a3618056aa0},
	"2.5d/4x4x2 default":                 {0xd3d5ee19988367e1, 0x38d1adc6ecc3beb, 0x38d1adc6ecc3beb},
	"2.5d/4x4x2 noOverlap":               {0x3bf581d91965a439, 0x949111d619ee6483, 0x949111d619ee6483},
	"2.5d/4x4x2 stepLevel":               {0x83968c394f03d53e, 0x47d8c433f9d70315, 0x47d8c433f9d70315},
	"2.5d/4x4x2 fabric1.5":               {0x18fa383f8c83ecf6, 0xdd4c5b17cb775791, 0xdd4c5b17cb775791},
	"2.5d/4x4x2 bidir":                   {0x3aaebbb911760b86, 0xfd98cf798d6e1111, 0xfd98cf798d6e1111},
	"2.5d/4x4x2 observed":                {0xa400b5345cbf813c, 0x67f3b6adbe18758d, 0x67f3b6adbe18758d},
	"2.5d/4x4x2 stretch":                 {0xe1ef9ef9fd74d44f, 0x5c6fdaa479485f0d, 0x6738d636f5a55569},
	"2.5d/4x4x2 stretchStepLevel":        {0x7502835a2efb12ef, 0xafb6bc16276094d, 0x9eaa52b6562e0ec5},
	"2.5d/4x4x2 deadLink":                {0x7b257cbe5b953dd, 0x5e191fc4f827a9ea, 0x79835cfed237e694},
	"2.5d/4x4x2 deadLinkReroute":         {0x8ac09efaeb25f3ad, 0x28befae804665c38, 0x59efa7b48d77a1f4},
	"meshsliceDP/4x4x2 default":          {0x45413d7d9bf33fe5, 0x84c8edd6b7f92a1, 0x84c8edd6b7f92a1},
	"meshsliceDP/4x4x2 noOverlap":        {0x1936d1f33e16fe95, 0xd384f733a5eccea9, 0xd384f733a5eccea9},
	"meshsliceDP/4x4x2 stepLevel":        {0x2d8ebebd24eea919, 0xa76bd983030b1f31, 0xa76bd983030b1f31},
	"meshsliceDP/4x4x2 fabric1.5":        {0x1ab7b09ad6f65dda, 0xee89734abe10f445, 0xee89734abe10f445},
	"meshsliceDP/4x4x2 bidir":            {0x82bd14c119d90b3a, 0x47549df226f805c9, 0x47549df226f805c9},
	"meshsliceDP/4x4x2 observed":         {0x58a548ae7a8c1820, 0x5887f8b8421283e1, 0x5887f8b8421283e1},
	"meshsliceDP/4x4x2 stretch":          {0x306244a7fa201c98, 0xa923ed925eeb25c2, 0x9c0797cf9ec26ec2},
	"meshsliceDP/4x4x2 stretchStepLevel": {0x34ff359b2d1c2289, 0x83d1353288911ab4, 0xd68105cae0af9914},
	"meshsliceDP/4x4x2 deadLink":         {0xbc2fdadd34bed086, 0x69edf4b102a01529, 0x2898eec42b15f217},
	"meshsliceDP/4x4x2 deadLinkReroute":  {0x1326f4062c56c1c3, 0x85c58259e813182b, 0x91700cac6471dde1},
}

// chromeLabel puts bytes that exercise every escape rule into the process
// names: HTML escapes, a multi-byte rune, a quote, a control byte, invalid
// UTF-8 and a JavaScript line separator.
const chromeLabel = " <&> — \"\t\xff\u2028"

func chromeDigestsOf(t *testing.T, r Result, label string) [3]uint64 {
	t.Helper()
	var d [3]uint64
	for i, write := range []func(io.Writer) error{
		func(w io.Writer) error { return WriteClusterChromeTrace(w, []Trace{r.Trace}, label) },
		func(w io.Writer) error { return WriteClusterChromeTrace(w, r.Traces, label) },
		func(w io.Writer) error { return WriteFaultyClusterChromeTrace(w, r.Traces, r.FaultSpans, label) },
	} {
		h := fnv.New64a()
		if err := write(h); err != nil {
			t.Fatalf("%s: writer %d: %v", label, i, err)
		}
		d[i] = h.Sum64()
	}
	return d
}

func TestChromeExportGoldenBytes(t *testing.T) {
	faulty := 0
	for _, c := range goldenPrograms() {
		for _, v := range goldenVariants() {
			key := c.name + " " + v.name
			opts := v.opts
			opts.TraceAllChips, opts.CollectTrace = true, true
			r := Simulate(c.prog, testHW, opts)
			if len(r.FaultSpans) > 0 {
				faulty++
			}
			got := chromeDigestsOf(t, r, key+chromeLabel)
			want, ok := chromeDigests[key]
			if !ok {
				t.Errorf("no golden digests; add\n%q: {%#x, %#x, %#x},", key, got[0], got[1], got[2])
				continue
			}
			if got != want {
				t.Errorf("%s: Chrome export bytes drifted: got {%#x, %#x, %#x}, want {%#x, %#x, %#x}",
					key, got[0], got[1], got[2], want[0], want[1], want[2])
			}
		}
	}
	if faulty == 0 {
		t.Errorf("no golden row has fault spans; the faulty-cluster writer lost its coverage")
	}
	if want := len(goldenPrograms()) * len(goldenVariants()); len(chromeDigests) != want {
		t.Errorf("digest table has %d rows, the cross product has %d", len(chromeDigests), want)
	}
}

// TestChromeExportAllocationGate holds the Chrome export to "nothing is
// allocated per event or per chip": the whole-cluster trace of an 8×8
// MeshSlice program encodes into the buffer the obs package holds between
// exports, so quadrupling the slice count (4× the events) or the chip count
// leaves the allocation count unchanged, and a warm export allocates at most
// 32 KiB, the trace's float-text cache, where a fresh buffer would be half a
// megabyte.
func TestChromeExportAllocationGate(t *testing.T) {
	measure := func(tor topology.Torus, S int) (allocs float64, warm uint64) {
		prog := sched.MeshSliceProgram(scaleProb, tor, testHW, S)
		r := Simulate(prog, testHW, Options{TraceAllChips: true})
		var err error
		export := func() { err = WriteClusterChromeTrace(io.Discard, r.Traces, prog.Label) }
		allocs = testing.AllocsPerRun(5, export)
		if err != nil {
			t.Fatal(err)
		}
		warm = warmBytes(export)
		t.Logf("S=%d: %d ops on %d chips, %.0f allocs and %d bytes per warm export", S, len(prog.Ops), tor.Size(), allocs, warm)
		return allocs, warm
	}
	s8, s8Bytes := measure(topology.NewTorus(8, 8), 8)
	s32, _ := measure(topology.NewTorus(8, 8), 32)
	if s8 > 2 {
		t.Errorf("WriteClusterChromeTrace(8x8 MeshSlice, S=8) allocates %.0f objects, want <= 2", s8)
	}
	if s8Bytes > 32<<10 {
		t.Errorf("a warm WriteClusterChromeTrace(8x8 MeshSlice, S=8) allocates %d bytes, want <= 32 KiB (the held buffer is not reused)", s8Bytes)
	}
	if s32 != s8 {
		t.Errorf("allocations go from %.0f at S=8 to %.0f at S=32, want equal (something allocates per event)", s8, s32)
	}
	if s4x4, _ := measure(topology.NewTorus(4, 4), 8); s4x4 != s8 {
		t.Errorf("allocations go from %.0f on 4x4 to %.0f on 8x8, want equal (something allocates per chip)", s4x4, s8)
	}
}

// warmBytes returns the fewest bytes one call of f allocates over five
// calls, after a first that warms what f reuses.
func warmBytes(f func()) uint64 {
	f()
	best := uint64(math.MaxUint64)
	var ms runtime.MemStats
	for range 5 {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		f()
		runtime.ReadMemStats(&ms)
		best = min(best, ms.TotalAlloc-before)
	}
	return best
}

// decodeChrome decodes a Chrome export into its events, each a map from
// field to its raw JSON, so that -0 and 0 or two floats one ulp apart stay
// different.
func decodeChrome(t *testing.T, write func(io.Writer) error) []map[string]json.RawMessage {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("export is not JSON: %v", err)
	}
	return events
}

// checkReplay decodes the whole-cluster export of traces and requires each
// chip's events, in order, to carry pid = chip and otherwise to equal the
// events of that chip's trace written alone, whose pid is 0, whether the
// writer formatted or replayed them; only the process name says which chip
// it is. It returns how many chips' traces equal their predecessor's.
func checkReplay(t *testing.T, traces []Trace, label string) (replayed int) {
	t.Helper()
	got := decodeChrome(t, func(w io.Writer) error { return WriteClusterChromeTrace(w, traces, label) })
	next := 0
	for chip, tr := range traces {
		if chip > 0 && sameTrace(tr, traces[chip-1]) {
			replayed++
		}
		alone := decodeChrome(t, func(w io.Writer) error { return WriteClusterChromeTrace(w, []Trace{tr}, label) })
		if next+len(alone) > len(got) {
			t.Fatalf("chip %d: cluster export ends after %d events", chip, len(got))
		}
		for i, want := range alone {
			e := got[next+i]
			if pid := string(e["pid"]); pid != strconv.Itoa(chip) {
				t.Fatalf("chip %d event %d: pid %s", chip, i, pid)
			}
			if string(e["name"]) == `"process_name"` {
				var args, aloneArgs struct{ Name string }
				json.Unmarshal(want["args"], &aloneArgs)
				if err := json.Unmarshal(e["args"], &args); err != nil ||
					args.Name != fmt.Sprintf("chip %d", chip)+strings.TrimPrefix(aloneArgs.Name, "chip 0") {
					t.Fatalf("chip %d: process name %s, alone %s", chip, e["args"], want["args"])
				}
				continue
			}
			if len(e) != len(want) {
				t.Fatalf("chip %d event %d: fields %v, alone %v", chip, i, e, want)
			}
			for k, v := range want {
				if k != "pid" && !bytes.Equal(e[k], v) {
					t.Fatalf("chip %d event %d: %s is %s, alone %s", chip, i, k, e[k], v)
				}
			}
		}
		next += len(alone)
	}
	if next != len(got) {
		t.Fatalf("cluster export has %d events, the chips alone %d", len(got), next)
	}
	return replayed
}

// TestChromeReplayMatchesRender covers the replay of a chip whose trace
// equals the previous chip's: op names holding the bytes a pid scan or an
// escaper could trip on, twelve equal chips (pid 9 to 10 changes the
// digit count), an 8x8 mesh whose degraded link makes equal and unequal
// neighbours alternate, and chips that differ only in the sign of a zero
// start or one ulp of an end, which print differently and so must be
// rendered, not replayed.
func TestChromeReplayMatchesRender(t *testing.T) {
	odd := Trace{
		{Op: 0, Name: `x,"pid":1,"tid":9`, Kind: sched.Compute, Start: 0, End: 1e-6},
		{Op: 1, Name: `q"\<&>` + " ", Kind: sched.AllGather, Dir: topology.InterRow, Start: 1e-6, End: 3.5e-6},
		{Op: 2, Name: `,"pid":`, Kind: sched.ReduceScatter, Dir: topology.InterCol, Start: 2e-6, End: 2e-6},
	}
	twelve := make([]Trace, 12)
	for i := range twelve {
		twelve[i] = append(Trace(nil), odd...)
	}
	twelve[5][2].Name = "different"
	if got := checkReplay(t, twelve, chromeLabel); got != 9 {
		t.Errorf("twelve chips, one different: %d replayed, want 9", got)
	}

	degrade := &fault.Plan{Degrades: []fault.LinkDegrade{{Link: fault.Link{Chip: 0, Dir: topology.InterRow}, Factor: 2}}}
	prog := sched.MeshSliceProgram(critProb, topology.NewTorus(8, 8), testHW, 4)
	r := Simulate(prog, testHW, Options{TraceAllChips: true, Faults: degrade})
	replayed := checkReplay(t, r.Traces, prog.Label)
	t.Logf("8x8 with a degraded link: %d of 63 chips replayed", replayed)
	if replayed == 0 || replayed == 63 {
		t.Errorf("8x8 with a degraded link: %d of 63 chips replayed, want some but not all", replayed)
	}

	for name, edit := range map[string]func(*TraceEvent){
		"-0 start":   func(e *TraceEvent) { e.Start = math.Copysign(0, -1) },
		"ulp of end": func(e *TraceEvent) { e.End = math.Nextafter(e.End, 1) },
	} {
		pair := []Trace{append(Trace(nil), odd...), append(Trace(nil), odd...)}
		edit(&pair[1][0])
		if sameTrace(pair[0], pair[1]) {
			t.Errorf("%s: traces compare the same", name)
		}
		checkReplay(t, pair, name)
	}
}
