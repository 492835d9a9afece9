// Package bench contains one runner per table and figure of the paper's
// evaluation (§5 and appendices). Each runner builds its workload, executes
// the relevant methods, and returns a Report whose rows mirror the rows or
// series of the original table/figure.
//
// Absolute numbers differ from the paper — the substrate is a simulated
// device (internal/device) and the datasets are scaled-down synthetics
// (internal/data) — but the comparisons the paper draws (who wins, by what
// factor, where the curves bend) are reproduced.
package bench

import (
	"fmt"
	"strings"
	"time"
)

// Scale selects the workload size of every runner.
type Scale int

const (
	// Small finishes within seconds per runner (used by tests and
	// benchmarks).
	Small Scale = iota
	// Medium is the default for cmd/experiments (tens of seconds per
	// runner on one core).
	Medium
	// Large approaches the limits of pure-Go linear algebra on one host.
	Large
)

// String returns the scale name.
func (s Scale) String() string {
	switch s {
	case Small:
		return "small"
	case Medium:
		return "medium"
	case Large:
		return "large"
	default:
		return fmt.Sprintf("Scale(%d)", int(s))
	}
}

// pick returns the value for the receiver scale.
func (s Scale) pick(small, medium, large int) int {
	switch s {
	case Medium:
		return medium
	case Large:
		return large
	default:
		return small
	}
}

// Report is one regenerated table or figure.
type Report struct {
	// ID matches the paper artifact, e.g. "table2", "figure3a".
	ID string
	// Title describes the content.
	Title string
	// Header names the columns.
	Header []string
	// Rows holds the data.
	Rows [][]string
	// Notes records scale, substitutions, and observations.
	Notes []string
}

// AddRow appends a formatted row.
func (r *Report) AddRow(cells ...string) { r.Rows = append(r.Rows, cells) }

// AddNote appends a formatted note line.
func (r *Report) AddNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(r.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// fmtDur renders a duration with ~3 significant figures.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Minute:
		return fmt.Sprintf("%.1fm", d.Minutes())
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// fmtPct renders a fraction as a percentage.
func fmtPct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }
