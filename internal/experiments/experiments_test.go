package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"meshslice/internal/gemm"
	"meshslice/internal/hw"
	"meshslice/internal/model"
)

var testHW = hw.TPUv4()

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		ID:     "demo",
		Title:  "demo table",
		Header: []string{"a", "long-header"},
		Notes:  []string{"a note"},
	}
	tbl.AddRow("x", "y")
	var buf bytes.Buffer
	if _, err := tbl.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"demo table", "long-header", "note: a note", "x"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestFormatHelpers(t *testing.T) {
	if pct(0.123) != "12.3%" {
		t.Errorf("pct = %q", pct(0.123))
	}
	if ms(0.0015) != "1.500ms" {
		t.Errorf("ms = %q", ms(0.0015))
	}
	if gb(2.5e9) != "2.50GB" || gb(336e6) != "336MB" {
		t.Errorf("gb = %q / %q", gb(2.5e9), gb(336e6))
	}
	if speedup(1.12, 1.0) != "+12.0%" {
		t.Errorf("speedup = %q", speedup(1.12, 1.0))
	}
}

func TestProblemForPicksLargestStationary(t *testing.T) {
	// Huge output → OS; huge left input → LS; huge right input → RS.
	if df := problemFor(model.GeMMShape{M: 1 << 20, N: 1 << 20, K: 8}).Dataflow; df != gemm.OS {
		t.Errorf("large output chose %v", df)
	}
	if df := problemFor(model.GeMMShape{M: 1 << 20, N: 8, K: 1 << 20}).Dataflow; df != gemm.LS {
		t.Errorf("large left chose %v", df)
	}
	if df := problemFor(model.GeMMShape{M: 8, N: 1 << 20, K: 1 << 20}).Dataflow; df != gemm.RS {
		t.Errorf("large right chose %v", df)
	}
}

func TestRegistryComplete(t *testing.T) {
	seen := map[string]bool{}
	for _, id := range IDs() {
		if seen[id] {
			t.Errorf("id %q listed twice", id)
		}
		seen[id] = true
	}
	if _, err := Run("nope", testHW, true); err == nil {
		t.Errorf("unknown experiment accepted")
	}
}

// Each experiment must produce non-empty tables in quick mode with no row
// reading "n/a" in the quick configurations.
func TestAllExperimentsQuickMode(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			tables, err := Run(id, testHW, true)
			if err != nil {
				t.Fatalf("Run(%s): %v", id, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", id)
			}
			for _, tbl := range tables {
				if len(tbl.Rows) == 0 {
					t.Errorf("%s table %q has no rows", id, tbl.Title)
				}
				if len(tbl.Header) == 0 {
					t.Errorf("%s table %q has no header", id, tbl.Title)
				}
				for _, row := range tbl.Rows {
					if len(row) != len(tbl.Header) {
						t.Errorf("%s: row width %d != header width %d", id, len(row), len(tbl.Header))
					}
					for _, cell := range row {
						if cell == "n/a" {
							t.Errorf("%s: %q row contains n/a in quick mode: %v", id, tbl.Title, row)
						}
					}
				}
				var buf bytes.Buffer
				if _, err := tbl.WriteTo(&buf); err != nil {
					t.Errorf("%s render: %v", id, err)
				}
			}
		})
	}
}

// Fig. 14's headline property: the cost model and the simulator must agree
// on the optimal slice count. On the quick 4×4 configuration the utilisation
// curve is nearly flat at large S, so we accept the adjacent rung of the
// power-of-two ladder — the paper's own criterion is that the model ranks
// configurations correctly, not that it predicts absolute times (§5.2).
func TestFig14ModelSimAgreement(t *testing.T) {
	for _, tbl := range Fig14(testHW, true) {
		if len(tbl.Notes) == 0 {
			t.Fatalf("fig14 table missing agreement note")
		}
		note := tbl.Notes[0]
		i := strings.Index(note, "estimated ")
		j := strings.Index(note, "simulated ")
		if i < 0 || j < 0 {
			t.Fatalf("note format unexpected: %q", note)
		}
		var est, sim int
		if _, err := fmt.Sscanf(note[i:], "estimated %d", &est); err != nil {
			t.Fatalf("parse estimated from %q: %v", note, err)
		}
		if _, err := fmt.Sscanf(note[j:], "simulated %d", &sim); err != nil {
			t.Fatalf("parse simulated from %q: %v", note, err)
		}
		if est != sim && est != 2*sim && sim != 2*est {
			t.Errorf("cost model optimal S=%d, simulator optimal S=%d (%s)", est, sim, tbl.Title)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	tbl := &Table{ID: "x", Header: []string{"a", "b"}, Rows: [][]string{{"1", "2"}, {"3", "4,5"}}}
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,2\n3,\"4,5\"\n"
	if buf.String() != want {
		t.Errorf("CSV = %q, want %q", buf.String(), want)
	}
}

func TestWriteMarkdown(t *testing.T) {
	tbl := &Table{
		ID: "x", Title: "demo",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "2"}},
		Notes:  []string{"note text"},
	}
	var buf bytes.Buffer
	if err := tbl.WriteMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"## x — demo", "| a | b |", "|---|---|", "| 1 | 2 |", "> note text"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}
