package core

import (
	"strings"

	"github.com/nuwins/cellwheels/internal/dataset"
	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/stats"
)

// StaticVsDriving regenerates Fig 3: overall throughput and RTT under the
// static city baselines versus driving.
type StaticVsDriving struct {
	// Throughput[opDir][0] is static, [1] is driving.
	Throughput map[opDir][2]stats.Summary
	// RTT[op][0] static, [1] driving (ms).
	RTT map[radio.Operator][2]stats.Summary
	// FracBelow5 is the share of driving samples below 5 Mbps per
	// direction, pooled over operators — the paper's 35% headline.
	FracBelow5 map[radio.Direction]float64
}

// FigureStaticVsDriving computes Fig 3.
func FigureStaticVsDriving(db *dataset.DB) StaticVsDriving { return staticVsDriving(newView(db)) }

func staticVsDriving(v *view) StaticVsDriving {
	out := StaticVsDriving{
		Throughput: map[opDir][2]stats.Summary{},
		RTT:        map[radio.Operator][2]stats.Summary{},
		FracBelow5: map[radio.Direction]float64{},
	}
	var below, total [radio.NumDirections]int
	for _, op := range radio.Operators() {
		for _, dir := range radio.Directions() {
			drive := v.driving(op, dir)
			out.Throughput[opDir{op, dir}] = [2]stats.Summary{
				v.throughput(op, dir, true).summary(),
				drive.summary(),
			}
			below[dir] += drive.below(5)
			total[dir] += len(drive.vals)
		}
		out.RTT[op] = [2]stats.Summary{v.rttOf(op, true).summary(), v.rttOf(op, false).summary()}
	}
	for _, dir := range radio.Directions() {
		frac := 0.0
		if total[dir] > 0 {
			frac = float64(below[dir]) / float64(total[dir])
		}
		out.FracBelow5[dir] = frac
	}
	return out
}

// ThroughputOf reports the summary for one operator/direction; static
// selects the baseline column.
func (r StaticVsDriving) ThroughputOf(op radio.Operator, dir radio.Direction, static bool) stats.Summary {
	pair := r.Throughput[opDir{op, dir}]
	if static {
		return pair[0]
	}
	return pair[1]
}

// RTTOf reports the RTT summary for one operator.
func (r StaticVsDriving) RTTOf(op radio.Operator, static bool) stats.Summary {
	pair := r.RTT[op]
	if static {
		return pair[0]
	}
	return pair[1]
}

// Render formats Fig 3.
func (r StaticVsDriving) Render() string {
	header := []string{"operator", "dir", "static med", "static max", "drive med", "drive p75", "drive max"}
	var rows [][]string
	for _, op := range radio.Operators() {
		for _, dir := range radio.Directions() {
			t := r.Throughput[opDir{op, dir}]
			rows = append(rows, []string{
				op.String(), dir.String(),
				f1(t[0].Median), f1(t[0].Max),
				f1(t[1].Median), f1(t[1].P75), f1(t[1].Max),
			})
		}
	}
	s := renderTable("Figure 3: static vs driving throughput (Mbps)", header, rows)

	rows = rows[:0]
	for _, op := range radio.Operators() {
		rt := r.RTT[op]
		rows = append(rows, []string{
			op.String(),
			f1(rt[0].Median), f1(rt[0].Max),
			f1(rt[1].Median), f1(rt[1].P90), f1(rt[1].Max),
		})
	}
	s += renderTable("Figure 3: static vs driving RTT (ms)",
		[]string{"operator", "static med", "static max", "drive med", "drive p90", "drive max"}, rows)
	s += renderTable("Figure 3: driving samples below 5 Mbps",
		[]string{"direction", "fraction"},
		[][]string{
			{"DL", pct(r.FracBelow5[radio.Downlink])},
			{"UL", pct(r.FracBelow5[radio.Uplink])},
		})
	return s
}

// PerTechnology regenerates Fig 4: driving throughput and RTT per
// technology, with Verizon's edge/cloud split.
type PerTechnology struct {
	// Throughput[op][tech][dir] summarizes driving samples.
	Throughput map[radio.Operator]map[radio.Technology]map[radio.Direction]stats.Summary
	// RTT[op][tech] in ms.
	RTT map[radio.Operator]map[radio.Technology]stats.Summary
	// VerizonEdge[tech][dir][0] is edge, [1] cloud.
	VerizonEdge map[radio.Technology]map[radio.Direction][2]stats.Summary
	// VerizonEdgeRTT[tech][0] edge, [1] cloud.
	VerizonEdgeRTT map[radio.Technology][2]stats.Summary
}

// perTechnology computes Fig 4.
func perTechnology(v *view) PerTechnology {
	out := PerTechnology{
		Throughput:     map[radio.Operator]map[radio.Technology]map[radio.Direction]stats.Summary{},
		RTT:            map[radio.Operator]map[radio.Technology]stats.Summary{},
		VerizonEdge:    map[radio.Technology]map[radio.Direction][2]stats.Summary{},
		VerizonEdgeRTT: map[radio.Technology][2]stats.Summary{},
	}
	tput, rtt := v.db.Throughput, v.db.RTT
	for _, op := range radio.Operators() {
		out.Throughput[op] = map[radio.Technology]map[radio.Direction]stats.Summary{}
		out.RTT[op] = map[radio.Technology]stats.Summary{}
		var tputByTech [radio.NumDirections][]part
		for _, dir := range radio.Directions() {
			tputByTech[dir] = v.driving(op, dir).summarizeBy(radio.NumTechnologies, func(p int32) int { return int(tput[p].Tech) })
		}
		rttByTech := v.rttOf(op, false).summarizeBy(radio.NumTechnologies, func(p int32) int { return int(rtt[p].Tech) })
		for _, tech := range radio.Technologies() {
			out.Throughput[op][tech] = map[radio.Direction]stats.Summary{}
			for _, dir := range radio.Directions() {
				out.Throughput[op][tech][dir] = tputByTech[dir][tech].Summary
			}
			out.RTT[op][tech] = rttByTech[tech].Summary
		}
	}
	// Verizon's driving rows by technology, edge first: part 2·tech+0
	// is edge, 2·tech+1 cloud.
	edgeKey := func(tech radio.Technology, edge bool) int {
		if edge {
			return 2 * int(tech)
		}
		return 2*int(tech) + 1
	}
	var vzTput [radio.NumDirections][]part
	for _, dir := range radio.Directions() {
		vzTput[dir] = v.driving(radio.Verizon, dir).summarizeBy(2*radio.NumTechnologies,
			func(p int32) int { return edgeKey(tput[p].Tech, tput[p].Edge) })
	}
	vzRTT := v.rttOf(radio.Verizon, false).summarizeBy(2*radio.NumTechnologies,
		func(p int32) int { return edgeKey(rtt[p].Tech, rtt[p].Edge) })
	for _, tech := range radio.Technologies() {
		out.VerizonEdge[tech] = map[radio.Direction][2]stats.Summary{}
		for _, dir := range radio.Directions() {
			parts := vzTput[dir]
			out.VerizonEdge[tech][dir] = [2]stats.Summary{parts[2*tech].Summary, parts[2*tech+1].Summary}
		}
		out.VerizonEdgeRTT[tech] = [2]stats.Summary{vzRTT[2*tech].Summary, vzRTT[2*tech+1].Summary}
	}
	return out
}

// Render formats Fig 4.
func (r PerTechnology) Render() string {
	header := []string{"operator", "tech", "DL med", "DL p90", "DL max", "UL med", "UL max", "RTT med", "RTT p90"}
	var rows [][]string
	for _, op := range radio.Operators() {
		for _, tech := range radio.Technologies() {
			dl := r.Throughput[op][tech][radio.Downlink]
			ul := r.Throughput[op][tech][radio.Uplink]
			rt := r.RTT[op][tech]
			if dl.N == 0 && ul.N == 0 && rt.N == 0 {
				continue
			}
			rows = append(rows, []string{
				op.String(), tech.String(),
				f1(dl.Median), f1(dl.P90), f1(dl.Max),
				f1(ul.Median), f1(ul.Max),
				f1(rt.Median), f1(rt.P90),
			})
		}
	}
	s := renderTable("Figure 4: per-technology driving performance", header, rows)

	rows = rows[:0]
	for _, tech := range radio.Technologies() {
		for _, dir := range radio.Directions() {
			e := r.VerizonEdge[tech][dir]
			if e[0].N == 0 && e[1].N == 0 {
				continue
			}
			rt := r.VerizonEdgeRTT[tech]
			rows = append(rows, []string{
				tech.String(), dir.String(),
				f1(e[0].Median), f1(e[1].Median),
				f1(rt[0].Median), f1(rt[1].Median),
			})
		}
	}
	s += renderTable("Figure 4: Verizon edge vs cloud (medians)",
		[]string{"tech", "dir", "tput edge", "tput cloud", "rtt edge", "rtt cloud"}, rows)
	return s
}

// TimezonePerf regenerates Fig 5: throughput CDFs per timezone.
type TimezonePerf struct {
	// Summary[opDir][tz].
	Summary map[opDir]map[geo.Timezone]stats.Summary
}

// timezonePerf computes Fig 5.
func timezonePerf(v *view) TimezonePerf {
	out := TimezonePerf{Summary: map[opDir]map[geo.Timezone]stats.Summary{}}
	rows := v.db.Throughput
	for _, op := range radio.Operators() {
		for _, dir := range radio.Directions() {
			k := opDir{op, dir}
			out.Summary[k] = map[geo.Timezone]stats.Summary{}
			byZone := v.driving(op, dir).summarizeBy(geo.NumTimezones, func(p int32) int { return int(rows[p].Timezone) })
			for tz := geo.Pacific; tz <= geo.Eastern; tz++ {
				out.Summary[k][tz] = byZone[tz].Summary
			}
		}
	}
	return out
}

// Render formats Fig 5.
func (r TimezonePerf) Render() string {
	header := []string{"operator", "dir", "Pacific med", "Mountain med", "Central med", "Eastern med"}
	var rows [][]string
	for _, op := range radio.Operators() {
		for _, dir := range radio.Directions() {
			m := r.Summary[opDir{op, dir}]
			rows = append(rows, []string{
				op.String(), dir.String(),
				f1(m[geo.Pacific].Median), f1(m[geo.Mountain].Median),
				f1(m[geo.Central].Median), f1(m[geo.Eastern].Median),
			})
		}
	}
	return renderTable("Figure 5: driving throughput by timezone (Mbps)", header, rows)
}

// LongTimescale regenerates Fig 9: per-test means and in-test variability.
type LongTimescale struct {
	// MeanTput[opDir] summarizes per-test mean throughput.
	MeanTput map[opDir]stats.Summary
	// MeanRTT[op] summarizes per-test mean RTT.
	MeanRTT map[radio.Operator]stats.Summary
	// StdPct[opDir] summarizes per-test stddev as % of the mean.
	StdPct map[opDir]stats.Summary
	// RTTStdPct[op] likewise for RTT tests.
	RTTStdPct map[radio.Operator]stats.Summary
}

// longTimescale computes Fig 9 once per view: Table 3 reads its
// per-test means too.
func (v *view) longTimescale() LongTimescale {
	v.longOnce.Do(func() {
		out := LongTimescale{
			MeanTput:  map[opDir]stats.Summary{},
			MeanRTT:   map[radio.Operator]stats.Summary{},
			StdPct:    map[opDir]stats.Summary{},
			RTTStdPct: map[radio.Operator]stats.Summary{},
		}
		x := v.testRows()
		means := map[opDir][]float64{}
		stds := map[opDir][]float64{}
		rttMeans := map[radio.Operator][]float64{}
		rttStds := map[radio.Operator][]float64{}
		// Tests in ID order: the per-test means are accumulated into
		// float slices whose summation order must be fixed for the
		// report to be byte-identical across runs.
		for i, m := range v.testMeansOf() {
			t := x.test(v.db, i)
			if dir, ok := throughputDir(t.Kind); ok && m.tputN > 0 {
				k := opDir{t.Op, dir}
				means[k] = append(means[k], m.tputMean)
				if m.tputMean > 0 {
					stds[k] = append(stds[k], 100*m.tputStd/m.tputMean)
				}
			}
			if m.rttN > 0 {
				rttMeans[t.Op] = append(rttMeans[t.Op], m.rttMean)
				if m.rttMean > 0 {
					rttStds[t.Op] = append(rttStds[t.Op], 100*m.rttStd/m.rttMean)
				}
			}
		}
		for k, xs := range means {
			out.MeanTput[k] = summarizeOrZero(xs)
		}
		for k, xs := range stds {
			out.StdPct[k] = summarizeOrZero(xs)
		}
		for op, xs := range rttMeans {
			out.MeanRTT[op] = summarizeOrZero(xs)
		}
		for op, xs := range rttStds {
			out.RTTStdPct[op] = summarizeOrZero(xs)
		}
		v.long = out
	})
	return v.long
}

// Render formats Fig 9.
func (r LongTimescale) Render() string {
	header := []string{"operator", "DL mean med", "UL mean med", "RTT mean med", "DL std% med", "UL std% med", "RTT std% med"}
	var rows [][]string
	for _, op := range radio.Operators() {
		rows = append(rows, []string{
			op.String(),
			f1(r.MeanTput[opDir{op, radio.Downlink}].Median),
			f1(r.MeanTput[opDir{op, radio.Uplink}].Median),
			f1(r.MeanRTT[op].Median),
			f1(r.StdPct[opDir{op, radio.Downlink}].Median),
			f1(r.StdPct[opDir{op, radio.Uplink}].Median),
			f1(r.RTTStdPct[op].Median),
		})
	}
	return renderTable("Figure 9: per-test means and variability", header, rows)
}

// HighSpeedShare regenerates Fig 10: per-test performance as a function
// of the share of test time spent on high-speed 5G.
type HighSpeedShare struct {
	// TputByBin[opDir][bin] with bins 0: <25%, 1: 25-75%, 2: >75% of the
	// test on mid/mmWave.
	TputByBin map[opDir][3]stats.Summary
	// RTTByBin[op][bin].
	RTTByBin map[radio.Operator][3]stats.Summary
}

// highSpeed5GShare computes Fig 10.
func highSpeed5GShare(v *view) HighSpeedShare {
	out := HighSpeedShare{
		TputByBin: map[opDir][3]stats.Summary{},
		RTTByBin:  map[radio.Operator][3]stats.Summary{},
	}
	binOf := func(frac float64) int {
		switch {
		case frac < 0.25:
			return 0
		case frac <= 0.75:
			return 1
		default:
			return 2
		}
	}
	// A throughput test's high-speed share counts all its samples, a
	// RTT test's its driving ones, lost or not. Tests are walked in ID
	// order, so each bin's means are in a fixed order.
	x := v.testRows()
	tmp := map[opDir][3][]float64{}
	rtmp := map[radio.Operator][3][]float64{}
	for i, m := range v.testMeansOf() {
		t := x.test(v.db, i)
		if dir, ok := throughputDir(t.Kind); ok && m.tputN > 0 {
			k := opDir{t.Op, dir}
			arr := tmp[k]
			b := binOf(float64(m.tputHS) / float64(m.tputAll))
			arr[b] = append(arr[b], m.tputMean)
			tmp[k] = arr
		}
		if m.rttN > 0 {
			arr := rtmp[t.Op]
			b := binOf(float64(m.rttHS) / float64(m.rttDriving))
			arr[b] = append(arr[b], m.rttMean)
			rtmp[t.Op] = arr
		}
	}
	for k, arr := range tmp {
		out.TputByBin[k] = [3]stats.Summary{
			summarizeOrZero(arr[0]), summarizeOrZero(arr[1]), summarizeOrZero(arr[2]),
		}
	}
	for op, arr := range rtmp {
		out.RTTByBin[op] = [3]stats.Summary{
			summarizeOrZero(arr[0]), summarizeOrZero(arr[1]), summarizeOrZero(arr[2]),
		}
	}
	return out
}

// Render formats Fig 10.
func (r HighSpeedShare) Render() string {
	header := []string{"operator", "dir", "<25% hs med", "25-75% med", ">75% med"}
	var rows [][]string
	for _, op := range radio.Operators() {
		for _, dir := range radio.Directions() {
			a := r.TputByBin[opDir{op, dir}]
			rows = append(rows, []string{
				op.String(), dir.String(), f1(a[0].Median), f1(a[1].Median), f1(a[2].Median),
			})
		}
	}
	s := renderTable("Figure 10: per-test mean tput vs time on high-speed 5G", header, rows)
	rows = rows[:0]
	for _, op := range radio.Operators() {
		a := r.RTTByBin[op]
		rows = append(rows, []string{op.String(), f1(a[0].Median), f1(a[1].Median), f1(a[2].Median)})
	}
	s += renderTable("Figure 10: per-test mean RTT vs time on high-speed 5G (ms)",
		[]string{"operator", "<25% hs med", "25-75% med", ">75% med"}, rows)
	return s
}

// OoklaRow is one carrier's comparison line in Table 3.
type OoklaRow struct {
	OurDL, SpeedtestDL   float64
	OurUL, SpeedtestUL   float64
	OurRTT, SpeedtestRTT float64
}

// OoklaComparison regenerates Table 3: our driving medians against the
// medians Ookla SpeedTest reported for Q3 2022 (constants from the paper).
type OoklaComparison struct {
	Rows map[radio.Operator]OoklaRow
}

// ooklaQ32022 is Table 3's published Speedtest column.
var ooklaQ32022 = map[radio.Operator][3]float64{
	radio.Verizon: {58.64, 8.30, 59.00},
	radio.TMobile: {116.14, 10.91, 60.00},
	radio.ATT:     {57.94, 7.55, 61.00},
}

// TableOoklaComparison computes Table 3.
func TableOoklaComparison(db *dataset.DB) OoklaComparison { return ooklaComparison(newView(db)) }

// ooklaComparison reads Fig 9's per-test means.
func ooklaComparison(v *view) OoklaComparison {
	lt := v.longTimescale()
	out := OoklaComparison{Rows: map[radio.Operator]OoklaRow{}}
	for _, op := range radio.Operators() {
		ook := ooklaQ32022[op]
		out.Rows[op] = OoklaRow{
			OurDL: lt.MeanTput[opDir{op, radio.Downlink}].Median, SpeedtestDL: ook[0],
			OurUL: lt.MeanTput[opDir{op, radio.Uplink}].Median, SpeedtestUL: ook[1],
			OurRTT: lt.MeanRTT[op].Median, SpeedtestRTT: ook[2],
		}
	}
	return out
}

// Render formats Table 3.
func (r OoklaComparison) Render() string {
	header := []string{"operator", "our DL", "Ookla DL", "our UL", "Ookla UL", "our RTT", "Ookla RTT"}
	var rows [][]string
	for _, op := range radio.Operators() {
		x := r.Rows[op]
		rows = append(rows, []string{
			op.String(),
			f2(x.OurDL), f2(x.SpeedtestDL),
			f2(x.OurUL), f2(x.SpeedtestUL),
			f2(x.OurRTT), f2(x.SpeedtestRTT),
		})
	}
	return renderTable("Table 3: driving medians vs Ookla Q3-2022 (static crowdsourced)", header, rows) +
		strings.TrimSpace(`
Reading: driving DL well below the static crowd medians; UL slightly
above; RTT higher — the paper's degradation-under-driving signature.`) + "\n"
}
