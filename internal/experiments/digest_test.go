package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"sync"
	"testing"

	"meshslice/internal/hw"
)

// raceDetector reports whether the tests run under -race (set in
// race_on_test.go).
var raceDetector bool

var (
	fullOnce   sync.Once
	fullTables map[string][]*Table
)

// fullRun regenerates every experiment at full size on TPUv4, once per test
// binary, for the tests that check what `cmd/experiments` prints: the
// digest, the fidelity claims and EXPERIMENTS.md.
func fullRun(t *testing.T) map[string][]*Table {
	t.Helper()
	if raceDetector {
		t.Skip("a full-size regeneration is slow under -race; the plain run checks it")
	}
	fullOnce.Do(func() {
		fullTables = map[string][]*Table{}
		for _, id := range IDs() {
			tables, err := Run(id, hw.TPUv4(), false)
			if err != nil {
				panic(err) // IDs() names only known experiments
			}
			fullTables[id] = tables
		}
	})
	return fullTables
}

// markdown is what `cmd/experiments -md` writes for one experiment.
func markdown(t *testing.T, tables []*Table) string {
	t.Helper()
	var sb strings.Builder
	for _, tbl := range tables {
		if err := tbl.WriteMarkdown(&sb); err != nil {
			t.Fatal(err)
		}
	}
	return sb.String()
}

// TestMarkdownDigest pins what `go run ./cmd/experiments -md FILE` writes
// at full size on TPUv4: every table of every experiment, in IDs() order,
// as markdown. The digest moves when a simulated or priced number does, and
// when a paper value or a tolerance in a claim table does; re-capture it
// then, on purpose.
func TestMarkdownDigest(t *testing.T) {
	byID := fullRun(t)
	const want = "4c628b39be305f9ea94e028b8f9106b0f1b698245d0a8e4e4d35956299c78adc"
	h := sha256.New()
	for _, id := range IDs() {
		h.Write([]byte(markdown(t, byID[id])))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("experiments markdown sha256 = %s, want %s", got, want)
	}
}

const (
	docBlockOpen  = "<!-- experiments:"
	docBlockClose = "<!-- /experiments -->"
)

// TestExperimentsDocIsRendered holds EXPERIMENTS.md to the rendering: every
// experiment has exactly one block, from "<!-- experiments:ID -->" to
// "<!-- /experiments -->", holding what `-md` writes for it byte for byte,
// and no markdown table stands outside a block.
func TestExperimentsDocIsRendered(t *testing.T) {
	byID := fullRun(t)
	raw, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	seen := map[string]bool{}
	for {
		i := strings.Index(doc, docBlockOpen)
		prose := doc
		if i >= 0 {
			prose = doc[:i]
		}
		for _, line := range strings.Split(prose, "\n") {
			if strings.HasPrefix(line, "|") {
				t.Errorf("EXPERIMENTS.md table line outside a generated block: %q", line)
			}
		}
		if i < 0 {
			break
		}
		doc = doc[i+len(docBlockOpen):]
		id, rest, ok := strings.Cut(doc, " -->\n")
		block, after, closed := strings.Cut(rest, docBlockClose)
		if !ok || !closed {
			t.Fatalf("EXPERIMENTS.md: block %.40q is not closed by %q", doc, docBlockClose)
		}
		doc = after
		tables, known := byID[id]
		switch {
		case !known:
			t.Errorf("EXPERIMENTS.md: block for unknown experiment %q", id)
		case seen[id]:
			t.Errorf("EXPERIMENTS.md: experiment %q has two blocks", id)
		default:
			if want := markdown(t, tables); block != want {
				t.Errorf("EXPERIMENTS.md block %q differs from its rendering; want:\n%s%s\n%s%s",
					id, docBlockOpen, id+" -->", want, docBlockClose)
			}
		}
		seen[id] = true
	}
	for _, id := range IDs() {
		if !seen[id] {
			t.Errorf("EXPERIMENTS.md has no block for experiment %q", id)
		}
	}
}
