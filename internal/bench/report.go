// Package bench implements the experiment runners E1–E12 from DESIGN.md.
// Each runner regenerates one evaluation artifact of the paper (or of this
// repository's extension) and reports it as a printable table. The runners
// are shared between cmd/experiments (human-readable / markdown output) and
// the root-level testing.B benchmarks.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Table is one experiment's result: a titled grid with footnotes.
type Table struct {
	// ID is the experiment identifier (e.g. "E1").
	ID string
	// Title describes the experiment.
	Title string
	// Header holds the column names.
	Header []string
	// Rows holds the data cells, formatted.
	Rows [][]string
	// Notes are free-form footnotes (paper claim, interpretation).
	Notes []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
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
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Markdown renders the table as GitHub-flavoured markdown.
func (t *Table) Markdown(w io.Writer) {
	fmt.Fprintf(w, "### %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(w, "| %s |\n", strings.Join(t.Header, " | "))
	seps := make([]string, len(t.Header))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(seps, " | "))
	for _, row := range t.Rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | "))
	}
	fmt.Fprintln(w)
	for _, n := range t.Notes {
		fmt.Fprintf(w, "> %s\n", n)
	}
	fmt.Fprintln(w)
}

// JSON renders the table as an indented JSON object, for machine-read
// artifacts (experiments -json).
func (t *Table) JSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// pad right-pads s to width.
func pad(s string, width int) string {
	if len(s) >= width {
		return s
	}
	return s + strings.Repeat(" ", width-len(s))
}

// f3 formats a float with three decimals.
func f3(x float64) string { return fmt.Sprintf("%.3f", x) }

// f5 formats a float with five decimals (for small rates).
func f5(x float64) string { return fmt.Sprintf("%.5f", x) }
