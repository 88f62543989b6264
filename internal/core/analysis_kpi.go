package core

import (
	"fmt"

	"github.com/nuwins/cellwheels/internal/dataset"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/stats"
)

// SpeedScatter regenerates Figs 7 and 8: throughput and RTT against the
// vehicle's speed, broken down by technology and speed bin.
type SpeedScatter struct {
	// Tput[opDir][speedBin][tech] summarizes driving throughput.
	Tput map[opDir]map[string]map[radio.Technology]stats.Summary
	// RTT[op][speedBin][tech] in ms.
	RTT map[radio.Operator]map[string]map[radio.Technology]stats.Summary
}

// speedScatter computes Figs 7 and 8.
func speedScatter(v *view) SpeedScatter {
	bins := stats.SpeedBins()
	out := SpeedScatter{
		Tput: map[opDir]map[string]map[radio.Technology]stats.Summary{},
		RTT:  map[radio.Operator]map[string]map[radio.Technology]stats.Summary{},
	}
	// A driving cut splits into one part per speed bin and technology:
	// part bin·NumTechnologies + tech.
	const nt = radio.NumTechnologies
	key := func(speed float64, tech radio.Technology) int { return bins.Index(speed)*nt + int(tech) }
	byBin := func(parts []part) map[string]map[radio.Technology]stats.Summary {
		m := map[string]map[radio.Technology]stats.Summary{}
		for k := range parts {
			if parts[k].N == 0 {
				continue
			}
			lbl := bins.Labels[k/nt]
			if m[lbl] == nil {
				m[lbl] = map[radio.Technology]stats.Summary{}
			}
			m[lbl][radio.Technology(k%nt)] = parts[k].Summary
		}
		return m
	}
	tput, rtt := v.db.Throughput, v.db.RTT
	for _, op := range radio.Operators() {
		for _, dir := range radio.Directions() {
			if c := v.driving(op, dir); len(c.pos) > 0 {
				out.Tput[opDir{op, dir}] = byBin(c.summarizeBy(bins.Bins()*nt,
					func(p int32) int { return key(tput[p].SpeedMPH, tput[p].Tech) }))
			}
		}
		if c := v.rttOf(op, false); len(c.pos) > 0 {
			out.RTT[op] = byBin(c.summarizeBy(bins.Bins()*nt,
				func(p int32) int { return key(rtt[p].SpeedMPH, rtt[p].Tech) }))
		}
	}
	return out
}

// Render formats Figs 7 and 8.
func (r SpeedScatter) Render() string {
	bins := stats.SpeedBins()
	header := []string{"operator", "dir", "bin", "tech", "n", "med", "p90"}
	var rows [][]string
	for _, op := range radio.Operators() {
		for _, dir := range radio.Directions() {
			for _, lbl := range bins.Labels {
				for _, tech := range radio.Technologies() {
					sum, ok := r.Tput[opDir{op, dir}][lbl][tech]
					if !ok || sum.N == 0 {
						continue
					}
					rows = append(rows, []string{
						op.String(), dir.String(), lbl, tech.String(),
						fmt.Sprintf("%d", sum.N), f1(sum.Median), f1(sum.P90),
					})
				}
			}
		}
	}
	s := renderTable("Figure 7: throughput vs speed by technology (Mbps)", header, rows)

	rows = rows[:0]
	for _, op := range radio.Operators() {
		for _, lbl := range bins.Labels {
			for _, tech := range radio.Technologies() {
				sum, ok := r.RTT[op][lbl][tech]
				if !ok || sum.N == 0 {
					continue
				}
				rows = append(rows, []string{
					op.String(), lbl, tech.String(),
					fmt.Sprintf("%d", sum.N), f1(sum.Median), f1(sum.P90),
				})
			}
		}
	}
	s += renderTable("Figure 8: RTT vs speed by technology (ms)",
		[]string{"operator", "bin", "tech", "n", "med", "p90"}, rows)
	return s
}

// KPIName enumerates Table 2's columns.
type KPIName string

// Table 2's KPI columns.
const (
	KPIRSRP  KPIName = "RSRP"
	KPIMCS   KPIName = "MCS"
	KPICA    KPIName = "CA"
	KPIBLER  KPIName = "BLER"
	KPISpeed KPIName = "Speed"
	KPIHO    KPIName = "HO"
)

// KPINames returns the columns in Table 2's order.
func KPINames() []KPIName {
	return []KPIName{KPIRSRP, KPIMCS, KPICA, KPIBLER, KPISpeed, KPIHO}
}

// KPICorrelation regenerates Table 2: Pearson correlation of 500 ms
// throughput with each KPI, per operator and direction.
type KPICorrelation struct {
	// R[op][dir][kpi]; NaN-free (pairs with zero variance report 0).
	R map[radio.Operator]map[radio.Direction]map[KPIName]float64
	N map[opDir]int
}

// TableKPICorrelation computes Table 2.
func TableKPICorrelation(db *dataset.DB) KPICorrelation { return kpiCorrelation(newView(db)) }

func kpiCorrelation(v *view) KPICorrelation {
	out := KPICorrelation{
		R: map[radio.Operator]map[radio.Direction]map[KPIName]float64{},
		N: map[opDir]int{},
	}
	for _, op := range radio.Operators() {
		out.R[op] = map[radio.Direction]map[KPIName]float64{}
		for _, dir := range radio.Directions() {
			tput, cols := v.drivingKPIs(op, dir)
			rs := map[KPIName]float64{}
			for _, k := range KPINames() {
				r, err := stats.Pearson(cols[string(k)], tput)
				if err != nil {
					r = 0
				}
				rs[k] = r
			}
			out.R[op][dir] = rs
			out.N[opDir{op, dir}] = len(tput)
		}
	}
	return out
}

// Render formats Table 2.
func (r KPICorrelation) Render() string {
	header := []string{"operator", "dir", "RSRP", "MCS", "CA", "BLER", "Speed", "HO", "n"}
	var rows [][]string
	for _, op := range radio.Operators() {
		for _, dir := range radio.Directions() {
			m := r.R[op][dir]
			rows = append(rows, []string{
				op.String(), dir.String(),
				f2(m[KPIRSRP]), f2(m[KPIMCS]), f2(m[KPICA]),
				f2(m[KPIBLER]), f2(m[KPISpeed]), f2(m[KPIHO]),
				fmt.Sprintf("%d", r.N[opDir{op, dir}]),
			})
		}
	}
	return renderTable("Table 2: Pearson correlation of throughput with KPIs", header, rows)
}
