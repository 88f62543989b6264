package core

import (
	"fmt"
	"strconv"
	"strings"
	"text/tabwriter"

	"github.com/nuwins/cellwheels/internal/dataset"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/stats"
)

// Analysis functions in this file and its siblings each regenerate one
// table or figure of the paper from a consolidated dataset. Every result
// type has a Render method producing the textual equivalent of the
// paper's plot — the rows/series a reader would compare against the
// published figure.

// renderTable lays out rows with aligned columns.
func renderTable(title string, header []string, rows [][]string) string {
	var b strings.Builder
	b.WriteString(title)
	b.WriteString("\n")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(header, "\t"))
	for _, r := range rows {
		fmt.Fprintln(w, strings.Join(r, "\t"))
	}
	w.Flush() //lint:allow uncheckederr — tabwriter over a strings.Builder cannot fail
	return b.String()
}

// f1, f2 and pct format a table cell as fmt's %.1f, %.2f and %.0f%%
// (of 100·v) would, -0, NaN and ±Inf included.
func f1(v float64) string  { return formatFloat(v, 1, "") }
func f2(v float64) string  { return formatFloat(v, 2, "") }
func pct(v float64) string { return formatFloat(100*v, 0, "%") }

// formatFloat is strconv.FormatFloat(v, 'f', prec, 64) followed by
// suffix, built on the stack so that the string is the one allocation.
func formatFloat(v float64, prec int, suffix string) string {
	var buf [32]byte
	return string(append(strconv.AppendFloat(buf[:0], v, 'f', prec, 64), suffix...))
}

// summarizeOrZero wraps stats.Summarize, returning a zero Summary for
// empty inputs so render code stays simple.
func summarizeOrZero(xs []float64) stats.Summary {
	s, err := stats.Summarize(xs)
	if err != nil {
		return stats.Summary{}
	}
	return s
}

// throughputDir reports the direction of a throughput test kind; ok is
// false for every other kind.
func throughputDir(k dataset.TestKind) (dir radio.Direction, ok bool) {
	switch k {
	case dataset.ThroughputDL:
		return radio.Downlink, true
	case dataset.ThroughputUL:
		return radio.Uplink, true
	}
	return 0, false
}

// techLetter is the single-character code used in coverage strips.
func techLetter(t radio.Technology) byte {
	switch t {
	case radio.LTE:
		return 'L'
	case radio.LTEA:
		return 'A'
	case radio.NRLow:
		return 'l'
	case radio.NRMid:
		return 'm'
	case radio.NRMmWave:
		return 'W'
	default:
		return '.'
	}
}

// opDir is a common (operator, direction) key.
type opDir struct {
	Op  radio.Operator
	Dir radio.Direction
}
