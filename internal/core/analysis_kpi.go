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

// FigureSpeedScatter computes Figs 7 and 8.
func FigureSpeedScatter(db *dataset.DB) SpeedScatter {
	bins := stats.SpeedBins()
	out := SpeedScatter{
		Tput: map[opDir]map[string]map[radio.Technology]stats.Summary{},
		RTT:  map[radio.Operator]map[string]map[radio.Technology]stats.Summary{},
	}
	tputVals := map[opDir]map[string]map[radio.Technology][]float64{}
	for _, s := range db.Throughput {
		if s.Static {
			continue
		}
		k := opDir{s.Op, s.Dir}
		if tputVals[k] == nil {
			tputVals[k] = map[string]map[radio.Technology][]float64{}
		}
		lbl := bins.Label(s.SpeedMPH)
		if tputVals[k][lbl] == nil {
			tputVals[k][lbl] = map[radio.Technology][]float64{}
		}
		tputVals[k][lbl][s.Tech] = append(tputVals[k][lbl][s.Tech], s.Mbps)
	}
	for k, byBin := range tputVals {
		out.Tput[k] = map[string]map[radio.Technology]stats.Summary{}
		for lbl, byTech := range byBin {
			out.Tput[k][lbl] = map[radio.Technology]stats.Summary{}
			for tech, vals := range byTech {
				out.Tput[k][lbl][tech] = summarizeOrZero(vals)
			}
		}
	}

	rttVals := map[radio.Operator]map[string]map[radio.Technology][]float64{}
	for _, s := range db.RTT {
		if s.Static || s.Lost {
			continue
		}
		if rttVals[s.Op] == nil {
			rttVals[s.Op] = map[string]map[radio.Technology][]float64{}
		}
		lbl := bins.Label(s.SpeedMPH)
		if rttVals[s.Op][lbl] == nil {
			rttVals[s.Op][lbl] = map[radio.Technology][]float64{}
		}
		rttVals[s.Op][lbl][s.Tech] = append(rttVals[s.Op][lbl][s.Tech], s.RTTMS)
	}
	for op, byBin := range rttVals {
		out.RTT[op] = map[string]map[radio.Technology]stats.Summary{}
		for lbl, byTech := range byBin {
			out.RTT[op][lbl] = map[radio.Technology]stats.Summary{}
			for tech, vals := range byTech {
				out.RTT[op][lbl][tech] = summarizeOrZero(vals)
			}
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
func TableKPICorrelation(db *dataset.DB) KPICorrelation {
	out := KPICorrelation{
		R: map[radio.Operator]map[radio.Direction]map[KPIName]float64{},
		N: map[opDir]int{},
	}
	for _, op := range radio.Operators() {
		out.R[op] = map[radio.Direction]map[KPIName]float64{}
		for _, dir := range radio.Directions() {
			tput, cols := drivingKPIs(db, op, dir)
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

// drivingKPIs returns the throughput of op's driving samples in dir
// and, aligned with it, each Table 2 KPI's values keyed by name. It
// ranges the table by index, so no sample is copied.
func drivingKPIs(db *dataset.DB, op radio.Operator, dir radio.Direction) (tput []float64, kpis map[string][]float64) {
	var rsrp, mcs, ca, bler, speed, ho []float64
	for i := range db.Throughput {
		s := &db.Throughput[i]
		if s.Op != op || s.Dir != dir || s.Static {
			continue
		}
		tput = append(tput, s.Mbps)
		rsrp = append(rsrp, s.RSRP)
		mcs = append(mcs, float64(s.MCS))
		ca = append(ca, float64(s.CC))
		bler = append(bler, s.BLER)
		speed = append(speed, s.SpeedMPH)
		ho = append(ho, float64(s.Handovers))
	}
	return tput, map[string][]float64{
		string(KPIRSRP): rsrp, string(KPIMCS): mcs, string(KPICA): ca,
		string(KPIBLER): bler, string(KPISpeed): speed, string(KPIHO): ho,
	}
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

// MaxAbsR reports the largest |r| across all cells — used to verify the
// paper's "no KPI has a strong correlation with throughput".
func (r KPICorrelation) MaxAbsR() float64 {
	max := 0.0
	for _, byDir := range r.R {
		for _, m := range byDir {
			for _, v := range m {
				if v < 0 {
					v = -v
				}
				if v > max {
					max = v
				}
			}
		}
	}
	return max
}
