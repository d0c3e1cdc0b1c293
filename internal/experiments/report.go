// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) from the simulator, the cost models, and the autotuner.
// Each experiment returns Tables — printable row/column data mirroring what
// the paper plots — so `cmd/experiments` can render them. An experiment the
// paper quantifies also returns its Claims, the paper's numbers beside ours,
// as one more table; EXPERIMENTS.md holds the markdown rendering of all of
// them.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is a rendered experiment result.
type Table struct {
	ID     string // "fig9", "table2", ...
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
	Claims []Claim // the records a claim table's rows render, for tests
}

// Claim is one number the paper reports beside this repository's value for
// the same quantity, both in Unit. Ours is the float that fills the
// experiment's row, NaN when that run failed. Tolerance is the largest
// |Ours − Paper| the fidelity test accepts; +Inf marks a pair that measures
// different things and so has no gate.
type Claim struct {
	What      string
	Paper     float64
	Ours      float64
	Unit      string // "%", "x", "GB", "MB", or "" for a count
	Tolerance float64
}

// digits is the precision the claim's unit prints at.
func (c Claim) digits() int {
	switch c.Unit {
	case "GB":
		return 2
	case "MB", "":
		return 0
	}
	return 1
}

// format prints v with verb (which takes the precision first), then the unit.
func (c Claim) format(verb string, v float64) string {
	return fmt.Sprintf(verb, c.digits(), v) + c.Unit
}

// claimTable renders an experiment's claims as an ordinary table.
func claimTable(id string, claims ...Claim) *Table {
	t := &Table{
		ID:     id,
		Title:  "Paper vs ours",
		Header: []string{"claim", "paper", "ours", "Δ", "tolerance"},
		Claims: claims,
	}
	for _, c := range claims {
		ours, delta, tol := "n/a", "n/a", "not comparable"
		if !math.IsNaN(c.Ours) {
			ours, delta = c.format("%.*f", c.Ours), c.format("%+.*f", c.Ours-c.Paper)
		}
		if !math.IsInf(c.Tolerance, 1) {
			tol = c.format("%.*f", c.Tolerance)
		}
		t.AddRow(c.What, c.format("%.*f", c.Paper), ours, delta, tol)
	}
	return t
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// WriteTo renders the table as aligned text.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	sb.WriteByte('\n')
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

// WriteMarkdown renders the table as a GitHub-flavoured markdown section.
func (t *Table) WriteMarkdown(w io.Writer) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "## %s — %s\n\n", t.ID, t.Title)
	sb.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	sb.WriteString("|" + strings.Repeat("---|", len(t.Header)) + "\n")
	for _, row := range t.Rows {
		sb.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "\n> %s\n", n)
	}
	sb.WriteString("\n")
	_, err := io.WriteString(w, sb.String())
	return err
}

// WriteCSV renders the table as RFC 4180 CSV (header row first; notes are
// omitted), for downstream plotting.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// pct formats a ratio as a percentage, "n/a" for the NaN of a failed run.
func pct(v float64) string {
	if math.IsNaN(v) {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", 100*v)
}

// ms formats seconds as milliseconds.
func ms(v float64) string { return fmt.Sprintf("%.3fms", 1e3*v) }

// gb formats bytes as gigabytes or megabytes.
func gb(v float64) string {
	if v >= 1e9 {
		return fmt.Sprintf("%.2fGB", v/1e9)
	}
	return fmt.Sprintf("%.0fMB", v/1e6)
}

// speedup formats gain(base, improved) as "+12.0%".
func speedup(base, improved float64) string {
	return fmt.Sprintf("%+.1f%%", gain(base, improved))
}

// gain is how much larger x is than y, in percent.
func gain(x, y float64) float64 { return 100 * (x/y - 1) }
