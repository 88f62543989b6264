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
func FigureStaticVsDriving(db *dataset.DB) StaticVsDriving {
	out := StaticVsDriving{
		Throughput: map[opDir][2]stats.Summary{},
		RTT:        map[radio.Operator][2]stats.Summary{},
		FracBelow5: map[radio.Direction]float64{},
	}
	for _, op := range radio.Operators() {
		for _, dir := range radio.Directions() {
			sel := func(static bool) []float64 {
				return db.MbpsWhere(func(s *dataset.ThroughputSample) bool {
					return s.Op == op && s.Dir == dir && s.Static == static
				})
			}
			out.Throughput[opDir{op, dir}] = [2]stats.Summary{
				summarizeOrZero(sel(true)),
				summarizeOrZero(sel(false)),
			}
		}
		rtt := func(static bool) []float64 {
			return db.RTTValuesWhere(func(s *dataset.RTTSample) bool {
				return s.Op == op && s.Static == static
			})
		}
		out.RTT[op] = [2]stats.Summary{summarizeOrZero(rtt(true)), summarizeOrZero(rtt(false))}
	}
	for _, dir := range radio.Directions() {
		xs := db.MbpsWhere(func(s *dataset.ThroughputSample) bool {
			return s.Dir == dir && !s.Static
		})
		out.FracBelow5[dir] = stats.NewCDF(xs).FracBelow(5)
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

// FigurePerTechnology computes Fig 4.
func FigurePerTechnology(db *dataset.DB) PerTechnology {
	out := PerTechnology{
		Throughput:     map[radio.Operator]map[radio.Technology]map[radio.Direction]stats.Summary{},
		RTT:            map[radio.Operator]map[radio.Technology]stats.Summary{},
		VerizonEdge:    map[radio.Technology]map[radio.Direction][2]stats.Summary{},
		VerizonEdgeRTT: map[radio.Technology][2]stats.Summary{},
	}
	for _, op := range radio.Operators() {
		out.Throughput[op] = map[radio.Technology]map[radio.Direction]stats.Summary{}
		out.RTT[op] = map[radio.Technology]stats.Summary{}
		for _, tech := range radio.Technologies() {
			out.Throughput[op][tech] = map[radio.Direction]stats.Summary{}
			for _, dir := range radio.Directions() {
				xs := db.MbpsWhere(func(s *dataset.ThroughputSample) bool {
					return s.Op == op && s.Dir == dir && s.Tech == tech && !s.Static
				})
				out.Throughput[op][tech][dir] = summarizeOrZero(xs)
			}
			rt := db.RTTValuesWhere(func(s *dataset.RTTSample) bool {
				return s.Op == op && s.Tech == tech && !s.Static
			})
			out.RTT[op][tech] = summarizeOrZero(rt)
		}
	}
	for _, tech := range radio.Technologies() {
		out.VerizonEdge[tech] = map[radio.Direction][2]stats.Summary{}
		for _, dir := range radio.Directions() {
			sel := func(edge bool) []float64 {
				return db.MbpsWhere(func(s *dataset.ThroughputSample) bool {
					return s.Op == radio.Verizon && s.Dir == dir && s.Tech == tech && !s.Static && s.Edge == edge
				})
			}
			out.VerizonEdge[tech][dir] = [2]stats.Summary{summarizeOrZero(sel(true)), summarizeOrZero(sel(false))}
		}
		rsel := func(edge bool) []float64 {
			return db.RTTValuesWhere(func(s *dataset.RTTSample) bool {
				return s.Op == radio.Verizon && s.Tech == tech && !s.Static && s.Edge == edge
			})
		}
		out.VerizonEdgeRTT[tech] = [2]stats.Summary{summarizeOrZero(rsel(true)), summarizeOrZero(rsel(false))}
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

// FigureTimezone computes Fig 5.
func FigureTimezone(db *dataset.DB) TimezonePerf {
	out := TimezonePerf{Summary: map[opDir]map[geo.Timezone]stats.Summary{}}
	for _, op := range radio.Operators() {
		for _, dir := range radio.Directions() {
			k := opDir{op, dir}
			out.Summary[k] = map[geo.Timezone]stats.Summary{}
			for tz := geo.Pacific; tz <= geo.Eastern; tz++ {
				xs := db.MbpsWhere(func(s *dataset.ThroughputSample) bool {
					return s.Op == op && s.Dir == dir && s.Timezone == tz && !s.Static
				})
				out.Summary[k][tz] = summarizeOrZero(xs)
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

// FigureLongTimescale computes Fig 9 from per-test aggregates.
func FigureLongTimescale(db *dataset.DB) LongTimescale {
	out := LongTimescale{
		MeanTput:  map[opDir]stats.Summary{},
		MeanRTT:   map[radio.Operator]stats.Summary{},
		StdPct:    map[opDir]stats.Summary{},
		RTTStdPct: map[radio.Operator]stats.Summary{},
	}
	// Group throughput samples per test.
	byTest := map[int][]float64{}
	testInfo := map[int]dataset.Test{}
	for _, t := range db.Tests {
		testInfo[t.ID] = t
	}
	for _, s := range db.Throughput {
		if !s.Static {
			byTest[s.TestID] = append(byTest[s.TestID], s.Mbps)
		}
	}
	means := map[opDir][]float64{}
	stds := map[opDir][]float64{}
	// Walk tests in ID order, not map order: the per-test means are
	// accumulated into float slices whose summation order must be fixed
	// for the report to be byte-identical across runs.
	for _, id := range sortedTestIDs(byTest) {
		xs := byTest[id]
		t := testInfo[id]
		dir := radio.Downlink
		if t.Kind == dataset.ThroughputUL {
			dir = radio.Uplink
		} else if t.Kind != dataset.ThroughputDL {
			continue
		}
		sum := summarizeOrZero(xs)
		k := opDir{t.Op, dir}
		means[k] = append(means[k], sum.Mean)
		if sum.Mean > 0 {
			stds[k] = append(stds[k], 100*sum.Std/sum.Mean)
		}
	}
	for k, xs := range means {
		out.MeanTput[k] = summarizeOrZero(xs)
	}
	for k, xs := range stds {
		out.StdPct[k] = summarizeOrZero(xs)
	}

	rttByTest := map[int][]float64{}
	for _, s := range db.RTT {
		if !s.Lost && !s.Static {
			rttByTest[s.TestID] = append(rttByTest[s.TestID], s.RTTMS)
		}
	}
	rttMeans := map[radio.Operator][]float64{}
	rttStds := map[radio.Operator][]float64{}
	for _, id := range sortedTestIDs(rttByTest) {
		xs := rttByTest[id]
		t := testInfo[id]
		sum := summarizeOrZero(xs)
		rttMeans[t.Op] = append(rttMeans[t.Op], sum.Mean)
		if sum.Mean > 0 {
			rttStds[t.Op] = append(rttStds[t.Op], 100*sum.Std/sum.Mean)
		}
	}
	for op, xs := range rttMeans {
		out.MeanRTT[op] = summarizeOrZero(xs)
	}
	for op, xs := range rttStds {
		out.RTTStdPct[op] = summarizeOrZero(xs)
	}
	return out
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

// FigureHighSpeed5GShare computes Fig 10.
func FigureHighSpeed5GShare(db *dataset.DB) HighSpeedShare {
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
	// Per-test high-speed share from samples.
	hsFrac := map[int]float64{}
	counts := map[int][2]int{} // [highspeed, total]
	for _, s := range db.Throughput {
		c := counts[s.TestID]
		c[1]++
		if s.Tech.IsHighSpeed() {
			c[0]++
		}
		counts[s.TestID] = c
	}
	for id, c := range counts {
		if c[1] > 0 {
			hsFrac[id] = float64(c[0]) / float64(c[1])
		}
	}
	testInfo := map[int]dataset.Test{}
	for _, t := range db.Tests {
		testInfo[t.ID] = t
	}

	tmp := map[opDir][3][]float64{}
	byTest := map[int][]float64{}
	for _, s := range db.Throughput {
		if !s.Static {
			byTest[s.TestID] = append(byTest[s.TestID], s.Mbps)
		}
	}
	for id, xs := range byTest {
		t := testInfo[id]
		dir := radio.Downlink
		if t.Kind == dataset.ThroughputUL {
			dir = radio.Uplink
		} else if t.Kind != dataset.ThroughputDL {
			continue
		}
		k := opDir{t.Op, dir}
		arr := tmp[k]
		b := binOf(hsFrac[id])
		arr[b] = append(arr[b], summarizeOrZero(xs).Mean)
		tmp[k] = arr
	}
	for k, arr := range tmp {
		out.TputByBin[k] = [3]stats.Summary{
			summarizeOrZero(arr[0]), summarizeOrZero(arr[1]), summarizeOrZero(arr[2]),
		}
	}

	// RTT tests: derive the high-speed share from RTT samples' tech.
	rttCounts := map[int][2]int{}
	rttByTest := map[int][]float64{}
	for _, s := range db.RTT {
		if s.Static {
			continue
		}
		c := rttCounts[s.TestID]
		c[1]++
		if s.Tech.IsHighSpeed() {
			c[0]++
		}
		rttCounts[s.TestID] = c
		if !s.Lost {
			rttByTest[s.TestID] = append(rttByTest[s.TestID], s.RTTMS)
		}
	}
	rtmp := map[radio.Operator][3][]float64{}
	for id, xs := range rttByTest {
		t := testInfo[id]
		c := rttCounts[id]
		frac := 0.0
		if c[1] > 0 {
			frac = float64(c[0]) / float64(c[1])
		}
		arr := rtmp[t.Op]
		b := binOf(frac)
		arr[b] = append(arr[b], summarizeOrZero(xs).Mean)
		rtmp[t.Op] = arr
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
func TableOoklaComparison(db *dataset.DB) OoklaComparison {
	lt := FigureLongTimescale(db)
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
