package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/nuwins/cellwheels/internal/dataset"
	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/stats"
	"github.com/nuwins/cellwheels/internal/unit"
)

// DatasetStats regenerates Table 1: the campaign's dataset statistics.
type DatasetStats struct {
	RouteKm     float64
	Days        int
	Timezones   int
	Operators   []string
	UniqueCells map[string]int
	Handovers   map[string]int
	BytesRx     unit.Bytes
	BytesTx     unit.Bytes
	Runtime     map[string]time.Duration
	LogRecords  int
}

// TableDatasetStats computes Table 1 from a dataset.
func TableDatasetStats(db *dataset.DB) DatasetStats {
	zones := map[geo.Timezone]bool{}
	for _, s := range db.Throughput {
		zones[s.Timezone] = true
	}
	for _, p := range db.Passive {
		zones[p.Timezone] = true
	}
	var ops []string
	for _, op := range radio.Operators() {
		ops = append(ops, op.String())
	}
	return DatasetStats{
		RouteKm:     db.Meta.RouteKm,
		Days:        db.Meta.Days,
		Timezones:   len(zones),
		Operators:   ops,
		UniqueCells: db.Meta.UniqueCells,
		Handovers:   db.Meta.HandoverTotal,
		BytesRx:     db.Meta.BytesRx,
		BytesTx:     db.Meta.BytesTx,
		Runtime:     db.Meta.RuntimeByOp,
		LogRecords:  len(db.Throughput) + len(db.RTT) + len(db.Handovers) + len(db.Passive),
	}
}

// Render formats the statistics like Table 1.
func (d DatasetStats) Render() string {
	rows := [][]string{
		{"Total geographical distance", fmt.Sprintf("%.0f km", d.RouteKm)},
		{"Trip days", fmt.Sprintf("%d", d.Days)},
		{"Timezones traveled", fmt.Sprintf("%d", d.Timezones)},
		{"Operators", strings.Join(d.Operators, ", ")},
		{"# unique cells connected", kvInts(d.UniqueCells)},
		{"# handovers (passive loggers)", kvInts(d.Handovers)},
		{"Total cellular data used", fmt.Sprintf("%v (Rx), %v (Tx)", d.BytesRx, d.BytesTx)},
		{"Cumulative experiment runtime", kvDurations(d.Runtime)},
		{"Log records", fmt.Sprintf("%d", d.LogRecords)},
	}
	return renderTable("Table 1: dataset statistics", []string{"metric", "value"}, rows)
}

func kvInts(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%d (%s)", m[k], k[:1]))
	}
	return strings.Join(parts, ", ")
}

func kvDurations(m map[string]time.Duration) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%.0f min (%s)", m[k].Minutes(), k[:1]))
	}
	return strings.Join(parts, ", ")
}

// CoverageMaps regenerates Fig 1: passive (handover-logger) vs active
// (XCAL under load) technology strips along the route, and the headline
// disparity between them.
type CoverageMaps struct {
	Bins int
	// Strip[op][0] is the passive strip, Strip[op][1] the active one.
	// Each byte is a technology letter, or '.' for no data in that bin.
	Strip map[radio.Operator][2]string
	// Passive5G and Active5G are the share of binned route with 5G
	// observed by each method.
	Passive5G map[radio.Operator]float64
	Active5G  map[radio.Operator]float64
}

// FigureCoverageMaps computes Fig 1 with the given number of route bins.
func FigureCoverageMaps(db *dataset.DB, route *geo.Route, bins int) CoverageMaps {
	if bins <= 0 {
		bins = 100
	}
	out := CoverageMaps{
		Bins:      bins,
		Strip:     map[radio.Operator][2]string{},
		Passive5G: map[radio.Operator]float64{},
		Active5G:  map[radio.Operator]float64{},
	}
	binOf := func(odo unit.Meters) int {
		b := int(float64(odo) / float64(route.Total()) * float64(bins))
		if b >= bins {
			b = bins - 1
		}
		if b < 0 {
			b = 0
		}
		return b
	}
	for _, op := range radio.Operators() {
		passive := make([][radio.NumTechnologies]int, bins)
		active := make([][radio.NumTechnologies]int, bins)
		for _, p := range db.Passive {
			if p.Op == op {
				passive[binOf(p.Odometer)][p.Tech]++
			}
		}
		for _, s := range db.Throughput {
			if s.Op == op && !s.Static {
				active[binOf(s.Odometer)][s.Tech]++
			}
		}
		render := func(counts [][radio.NumTechnologies]int) (string, float64) {
			strip := make([]byte, bins)
			fiveG, withData := 0, 0
			for i, c := range counts {
				// Scanning in canonical order with a strict > breaks a
				// tie toward the older technology, the same way on every
				// call.
				best, bestN := radio.LTE, 0
				for _, tech := range radio.Technologies() {
					if c[tech] > bestN {
						best, bestN = tech, c[tech]
					}
				}
				if bestN == 0 {
					strip[i] = '.'
					continue
				}
				withData++
				strip[i] = techLetter(best)
				if best.Is5G() {
					fiveG++
				}
			}
			share := 0.0
			if withData > 0 {
				share = float64(fiveG) / float64(withData)
			}
			return string(strip), share
		}
		p, pShare := render(passive)
		a, aShare := render(active)
		out.Strip[op] = [2]string{p, a}
		out.Passive5G[op] = pShare
		out.Active5G[op] = aShare
	}
	return out
}

// Render formats Fig 1 as labelled strips.
func (c CoverageMaps) Render() string {
	var b strings.Builder
	b.WriteString("Figure 1: coverage, passive handover-logger vs active XCAL\n")
	b.WriteString("legend: L=LTE A=LTE-A l=5G-low m=5G-mid W=5G-mmWave .=no data\n")
	for _, op := range radio.Operators() {
		s := c.Strip[op]
		fmt.Fprintf(&b, "%-8s passive [%s] 5G=%s\n", op, s[0], pct(c.Passive5G[op]))
		fmt.Fprintf(&b, "%-8s active  [%s] 5G=%s\n", op, s[1], pct(c.Active5G[op]))
	}
	return b.String()
}

// Coverage regenerates Fig 2: technology share of driven miles, overall
// (a), by direction (b), by timezone (c), and by speed bin (d).
type Coverage struct {
	// Overall[op][tech] is the share of driven distance (Fig 2a).
	Overall map[radio.Operator]map[radio.Technology]float64
	// ByDirection[op][dir][tech] (Fig 2b).
	ByDirection map[radio.Operator]map[radio.Direction]map[radio.Technology]float64
	// ByTimezone[op][tz][tech] (Fig 2c).
	ByTimezone map[radio.Operator]map[geo.Timezone]map[radio.Technology]float64
	// BySpeedBin[op][binLabel][tech] (Fig 2d).
	BySpeedBin map[radio.Operator]map[string]map[radio.Technology]float64
}

// Share5G sums the NR technologies of a share map.
func Share5G(m map[radio.Technology]float64) float64 {
	return m[radio.NRLow] + m[radio.NRMid] + m[radio.NRMmWave]
}

// ShareHighSpeed sums midband and mmWave.
func ShareHighSpeed(m map[radio.Technology]float64) float64 {
	return m[radio.NRMid] + m[radio.NRMmWave]
}

// FigureCoverage computes Fig 2 from the active throughput samples,
// weighting each 500 ms sample by the distance driven during it — the
// paper's "% of miles" denominator.
func FigureCoverage(db *dataset.DB) Coverage {
	cov := Coverage{
		Overall:     map[radio.Operator]map[radio.Technology]float64{},
		ByDirection: map[radio.Operator]map[radio.Direction]map[radio.Technology]float64{},
		ByTimezone:  map[radio.Operator]map[geo.Timezone]map[radio.Technology]float64{},
		BySpeedBin:  map[radio.Operator]map[string]map[radio.Technology]float64{},
	}
	speedBins := stats.SpeedBins()
	type acc map[radio.Technology]float64

	overall := map[radio.Operator]acc{}
	byDir := map[radio.Operator]map[radio.Direction]acc{}
	byTZ := map[radio.Operator]map[geo.Timezone]acc{}
	bySpeed := map[radio.Operator]map[string]acc{}
	for _, op := range radio.Operators() {
		overall[op] = acc{}
		byDir[op] = map[radio.Direction]acc{radio.Downlink: {}, radio.Uplink: {}}
		byTZ[op] = map[geo.Timezone]acc{}
		bySpeed[op] = map[string]acc{}
	}

	for _, s := range db.Throughput {
		if s.Static {
			continue
		}
		miles := s.SpeedMPH * 0.5 / 3600 // distance of the 500 ms window
		if miles <= 0 {
			miles = 1e-6 // keep stationary samples visible
		}
		overall[s.Op][s.Tech] += miles
		byDir[s.Op][s.Dir][s.Tech] += miles
		if byTZ[s.Op][s.Timezone] == nil {
			byTZ[s.Op][s.Timezone] = acc{}
		}
		byTZ[s.Op][s.Timezone][s.Tech] += miles
		label := speedBins.Label(s.SpeedMPH)
		if bySpeed[s.Op][label] == nil {
			bySpeed[s.Op][label] = acc{}
		}
		bySpeed[s.Op][label][s.Tech] += miles
	}

	norm := func(a acc) map[radio.Technology]float64 {
		total := 0.0
		for _, v := range a {
			total += v
		}
		out := map[radio.Technology]float64{}
		if total == 0 {
			return out
		}
		for k, v := range a {
			out[k] = v / total
		}
		return out
	}
	for _, op := range radio.Operators() {
		cov.Overall[op] = norm(overall[op])
		cov.ByDirection[op] = map[radio.Direction]map[radio.Technology]float64{
			radio.Downlink: norm(byDir[op][radio.Downlink]),
			radio.Uplink:   norm(byDir[op][radio.Uplink]),
		}
		cov.ByTimezone[op] = map[geo.Timezone]map[radio.Technology]float64{}
		for tz, a := range byTZ[op] {
			cov.ByTimezone[op][tz] = norm(a)
		}
		cov.BySpeedBin[op] = map[string]map[radio.Technology]float64{}
		for lbl, a := range bySpeed[op] {
			cov.BySpeedBin[op][lbl] = norm(a)
		}
	}
	return cov
}

// Render formats Fig 2's four panels.
func (c Coverage) Render() string {
	var b strings.Builder
	header := []string{"operator", "LTE", "LTE-A", "5G-low", "5G-mid", "5G-mmWave", "5G total", "high-speed"}
	row := func(label string, m map[radio.Technology]float64) []string {
		return []string{
			label,
			pct(m[radio.LTE]), pct(m[radio.LTEA]), pct(m[radio.NRLow]),
			pct(m[radio.NRMid]), pct(m[radio.NRMmWave]),
			pct(Share5G(m)), pct(ShareHighSpeed(m)),
		}
	}
	var rows [][]string
	for _, op := range radio.Operators() {
		rows = append(rows, row(op.String(), c.Overall[op]))
	}
	b.WriteString(renderTable("Figure 2a: technology share of driven miles", header, rows))

	rows = rows[:0]
	for _, op := range radio.Operators() {
		for _, dir := range radio.Directions() {
			rows = append(rows, row(op.String()+" "+dir.String(), c.ByDirection[op][dir]))
		}
	}
	b.WriteString(renderTable("Figure 2b: coverage by traffic direction", header, rows))

	rows = rows[:0]
	for _, op := range radio.Operators() {
		for tz := geo.Pacific; tz <= geo.Eastern; tz++ {
			if m, ok := c.ByTimezone[op][tz]; ok {
				rows = append(rows, row(op.String()+" "+tz.String(), m))
			}
		}
	}
	b.WriteString(renderTable("Figure 2c: coverage by timezone", header, rows))

	rows = rows[:0]
	for _, op := range radio.Operators() {
		for _, lbl := range stats.SpeedBins().Labels {
			if m, ok := c.BySpeedBin[op][lbl]; ok {
				rows = append(rows, row(op.String()+" "+lbl, m))
			}
		}
	}
	b.WriteString(renderTable("Figure 2d: coverage by speed bin", header, rows))
	return b.String()
}
