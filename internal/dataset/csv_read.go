package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"

	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/unit"
)

// The CSV readers invert the writers in csv.go, so datasets exported to
// CSV — or real drive-test data massaged into the same columns — can be
// loaded back into a DB and run through the full analysis suite.

// ReadThroughputCSV parses a table written by WriteThroughputCSV.
func ReadThroughputCSV(r io.Reader) ([]ThroughputSample, error) {
	rows, err := readTable(r, throughputHeader, "throughput")
	if err != nil {
		return nil, err
	}
	out := make([]ThroughputSample, 0, len(rows))
	for i, rec := range rows {
		p := newParser(rec, i+2, "throughput")
		s := ThroughputSample{
			TestID:    p.intf(0),
			Time:      p.timef(1),
			Op:        p.op(2),
			Dir:       p.dir(3),
			Mbps:      p.floatf(4),
			Tech:      p.tech(5),
			RSRP:      p.floatf(6),
			SINR:      p.floatf(7),
			MCS:       p.intf(8),
			CC:        p.intf(9),
			BLER:      p.floatf(10),
			Load:      p.floatf(11),
			SpeedMPH:  p.floatf(12),
			Odometer:  unit.Meters(p.floatf(13) * 1000),
			Timezone:  p.zone(14),
			Region:    p.region(15),
			Handovers: p.intf(16),
			CellID:    rec[17],
			Edge:      p.boolf(18),
			Static:    p.boolf(19),
		}
		if p.err != nil {
			return nil, p.err
		}
		out = append(out, s)
	}
	return out, nil
}

// ReadRTTCSV parses a table written by WriteRTTCSV.
func ReadRTTCSV(r io.Reader) ([]RTTSample, error) {
	rows, err := readTable(r, rttHeader, "rtt")
	if err != nil {
		return nil, err
	}
	out := make([]RTTSample, 0, len(rows))
	for i, rec := range rows {
		p := newParser(rec, i+2, "rtt")
		s := RTTSample{
			TestID:   p.intf(0),
			Time:     p.timef(1),
			Op:       p.op(2),
			RTTMS:    p.floatf(3),
			Lost:     p.boolf(4),
			Tech:     p.tech(5),
			SpeedMPH: p.floatf(6),
			Odometer: unit.Meters(p.floatf(7) * 1000),
			Timezone: p.zone(8),
			Edge:     p.boolf(9),
			Static:   p.boolf(10),
		}
		if p.err != nil {
			return nil, p.err
		}
		out = append(out, s)
	}
	return out, nil
}

// ReadHandoverCSV parses a table written by WriteHandoverCSV.
func ReadHandoverCSV(r io.Reader) ([]Handover, error) {
	rows, err := readTable(r, handoverHeader, "handover")
	if err != nil {
		return nil, err
	}
	out := make([]Handover, 0, len(rows))
	for i, rec := range rows {
		p := newParser(rec, i+2, "handover")
		h := Handover{
			TestID:     p.intf(0),
			Time:       p.timef(1),
			Op:         p.op(2),
			DurationMS: p.floatf(3),
			FromTech:   p.tech(4),
			ToTech:     p.tech(5),
			Odometer:   unit.Meters(p.floatf(6) * 1000),
		}
		if p.err != nil {
			return nil, p.err
		}
		out = append(out, h)
	}
	return out, nil
}

// readTable reads all rows, validates the column count, checks the header
// row against the table's canonical header, and strips it. Header
// validation is what catches a column-reordered or wrong-table CSV whose
// column count happens to match — without it such a file parses silently
// into garbage (or, worse, into plausible-looking wrong data).
func readTable(r io.Reader, header []string, table string) ([][]string, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(header)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("dataset: %s csv: %w", table, err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("dataset: %s csv: empty", table)
	}
	for i, want := range header {
		if got := rows[0][i]; got != want {
			return nil, fmt.Errorf("dataset: %s csv: header column %d is %q, want %q (wrong or reordered table?)", table, i+1, got, want)
		}
	}
	return rows[1:], nil
}

// parser accumulates the first field-level error of a row.
type parser struct {
	rec   []string
	line  int
	table string
	err   error
}

func newParser(rec []string, line int, table string) *parser {
	return &parser{rec: rec, line: line, table: table}
}

func (p *parser) fail(col int, what string, err error) {
	if p.err == nil {
		p.err = fmt.Errorf("dataset: %s csv line %d col %d (%s): %w", p.table, p.line, col+1, what, err)
	}
}

func (p *parser) intf(col int) int {
	v, err := strconv.Atoi(p.rec[col])
	if err != nil {
		p.fail(col, "int", err)
	}
	return v
}

func (p *parser) floatf(col int) float64 {
	v, err := strconv.ParseFloat(p.rec[col], 64)
	if err != nil {
		p.fail(col, "float", err)
	}
	return v
}

func (p *parser) boolf(col int) bool {
	switch p.rec[col] {
	case "1", "true":
		return true
	case "0", "false", "":
		return false
	default:
		p.fail(col, "bool", fmt.Errorf("bad value %q", p.rec[col]))
		return false
	}
}

// timef parses an RFC 3339 time and returns it in UTC. A time whose UTC
// year has no four-digit form fails: the writers could not write it back.
func (p *parser) timef(col int) time.Time {
	t, err := time.Parse(time.RFC3339Nano, p.rec[col])
	if y := t.UTC().Year(); err == nil && (y < 0 || y > 9999) {
		err = fmt.Errorf("UTC year %d outside 0000–9999", y)
	}
	if err != nil {
		p.fail(col, "time", err)
	}
	return t.UTC()
}

func (p *parser) op(col int) radio.Operator {
	for _, op := range radio.Operators() {
		if op.String() == p.rec[col] {
			return op
		}
	}
	p.fail(col, "operator", fmt.Errorf("unknown %q", p.rec[col]))
	return radio.Verizon
}

func (p *parser) dir(col int) radio.Direction {
	switch p.rec[col] {
	case "DL":
		return radio.Downlink
	case "UL":
		return radio.Uplink
	}
	p.fail(col, "direction", fmt.Errorf("unknown %q", p.rec[col]))
	return radio.Downlink
}

func (p *parser) tech(col int) radio.Technology {
	t, ok := radio.ParseTechnology(p.rec[col])
	if !ok {
		p.fail(col, "technology", fmt.Errorf("unknown %q", p.rec[col]))
	}
	return t
}

func (p *parser) zone(col int) geo.Timezone {
	for z := geo.Pacific; z <= geo.Eastern; z++ {
		if z.String() == p.rec[col] {
			return z
		}
	}
	p.fail(col, "timezone", fmt.Errorf("unknown %q", p.rec[col]))
	return geo.Pacific
}

func (p *parser) region(col int) geo.Region {
	switch p.rec[col] {
	case "urban":
		return geo.Urban
	case "suburban":
		return geo.Suburban
	case "highway":
		return geo.Highway
	}
	p.fail(col, "region", fmt.Errorf("unknown %q", p.rec[col]))
	return geo.Highway
}
