package core

import (
	"fmt"
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

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func pct(v float64) string { return fmt.Sprintf("%.0f%%", 100*v) }

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
