package core

import (
	"fmt"
	"time"

	"github.com/nuwins/cellwheels/internal/dataset"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/ran"
	"github.com/nuwins/cellwheels/internal/stats"
)

// HandoverStats regenerates Fig 11: handovers per mile and handover
// durations during throughput tests, per operator and direction.
type HandoverStats struct {
	// PerMile[opDir] summarizes HOs/mile over the tests.
	PerMile map[opDir]stats.Summary
	// Duration[opDir] summarizes the HO execution time in ms.
	Duration map[opDir]stats.Summary
}

// FigureHandoverStats computes Fig 11.
func FigureHandoverStats(db *dataset.DB) HandoverStats {
	out := HandoverStats{
		PerMile:  map[opDir]stats.Summary{},
		Duration: map[opDir]stats.Summary{},
	}
	// Each test's handover durations, in table order.
	byTest := map[int][]float64{}
	for i := range db.Handovers {
		h := &db.Handovers[i]
		byTest[h.TestID] = append(byTest[h.TestID], h.DurationMS)
	}
	perMile := map[opDir][]float64{}
	durations := map[opDir][]float64{}
	for i := range db.Tests {
		t := &db.Tests[i]
		dir, ok := throughputDir(t.Kind)
		if !ok || t.Static {
			continue
		}
		miles := t.Miles()
		if miles <= 0.05 {
			continue
		}
		k := opDir{t.Op, dir}
		hos := byTest[t.ID]
		perMile[k] = append(perMile[k], float64(len(hos))/miles)
		durations[k] = append(durations[k], hos...)
	}
	for k, xs := range perMile {
		out.PerMile[k] = summarizeOrZero(xs)
	}
	for k, xs := range durations {
		out.Duration[k] = summarizeOrZero(xs)
	}
	return out
}

// PerMileOf reports the HOs/mile summary for one operator/direction.
func (r HandoverStats) PerMileOf(op radio.Operator, dir radio.Direction) stats.Summary {
	return r.PerMile[opDir{op, dir}]
}

// Render formats Fig 11.
func (r HandoverStats) Render() string {
	header := []string{"operator", "dir", "HO/mile med", "HO/mile p75", "HO/mile max", "dur med (ms)", "dur p75", "dur max"}
	var rows [][]string
	for _, op := range radio.Operators() {
		for _, dir := range radio.Directions() {
			k := opDir{op, dir}
			pm, du := r.PerMile[k], r.Duration[k]
			rows = append(rows, []string{
				op.String(), dir.String(),
				f1(pm.Median), f1(pm.P75), f1(pm.Max),
				f1(du.Median), f1(du.P75), f1(du.Max),
			})
		}
	}
	return renderTable("Figure 11: handover frequency and duration", header, rows)
}

// HandoverImpact regenerates Fig 12: ΔT₁ (throughput drop during a HO
// window) and ΔT₂ (post-HO minus pre-HO throughput), by direction and by
// handover type.
type HandoverImpact struct {
	// DeltaT1[opDir] summarizes T₃ − (T₂+T₄)/2 over HO windows.
	DeltaT1 map[opDir]stats.Summary
	// FracT1Negative is the share of HOs whose window lost throughput.
	FracT1Negative map[opDir]float64
	// DeltaT2[opDir] summarizes (T₄+T₅)/2 − (T₁+T₂)/2.
	DeltaT2 map[opDir]stats.Summary
	// FracT2Positive is the share of HOs that improved throughput.
	FracT2Positive map[opDir]float64
	// DeltaT2ByKind[kind] pools both directions and all operators.
	DeltaT2ByKind map[ran.HandoverKind]stats.Summary
	// FracT2PositiveByKind per kind.
	FracT2PositiveByKind map[ran.HandoverKind]float64
}

// handoverImpact computes Fig 12 using the paper's exact window
// construction (§6, Fig 11c): with 500 ms samples T₁..T₅ and a handover
// inside T₃'s window, ΔT₁ = T₃ − (T₂+T₄)/2 and ΔT₂ = (T₄+T₅)/2 − (T₁+T₂)/2.
func handoverImpact(v *view) HandoverImpact {
	out := HandoverImpact{
		DeltaT1:              map[opDir]stats.Summary{},
		FracT1Negative:       map[opDir]float64{},
		DeltaT2:              map[opDir]stats.Summary{},
		FracT2Positive:       map[opDir]float64{},
		DeltaT2ByKind:        map[ran.HandoverKind]stats.Summary{},
		FracT2PositiveByKind: map[ran.HandoverKind]float64{},
	}
	x := v.testRows()
	rows := v.db.Throughput

	d1 := map[opDir][]float64{}
	d2 := map[opDir][]float64{}
	d2k := map[ran.HandoverKind][]float64{}

	// ss is the driving throughput rows of test ids[last], in time order
	// (the merge sorts the table by time).
	var ss []int32
	last := -1
	for hi := range v.db.Handovers {
		h := &v.db.Handovers[hi]
		ti := x.slot(h.TestID)
		if ti < 0 || x.row[ti] < 0 {
			continue
		}
		t := &v.db.Tests[x.row[ti]]
		if t.Static {
			continue
		}
		dir, ok := throughputDir(t.Kind)
		if !ok {
			continue
		}
		if ti != last {
			ss = ss[:0]
			for _, p := range x.tput.of(ti) {
				if !rows[p].Static {
					ss = append(ss, p)
				}
			}
			last = ti
		}
		// Find the sample window T₃ containing the HO.
		i := -1
		for j, p := range ss {
			if s := &rows[p]; !h.Time.Before(s.Time) && h.Time.Before(s.Time.Add(500*time.Millisecond)) {
				i = j
				break
			}
		}
		// Need T₁..T₅ = indices i-2..i+2.
		if i < 2 || i+2 >= len(ss) {
			continue
		}
		t1, t2, t3, t4, t5 := rows[ss[i-2]].Mbps, rows[ss[i-1]].Mbps, rows[ss[i]].Mbps, rows[ss[i+1]].Mbps, rows[ss[i+2]].Mbps
		k := opDir{t.Op, dir}
		d1[k] = append(d1[k], t3-(t2+t4)/2)
		delta2 := (t4+t5)/2 - (t1+t2)/2
		d2[k] = append(d2[k], delta2)
		kind := ran.KindOf(h.FromTech, h.ToTech)
		d2k[kind] = append(d2k[kind], delta2)
	}

	for k, xs := range d1 {
		out.DeltaT1[k] = summarizeOrZero(xs)
		out.FracT1Negative[k] = 1 - fracPositive(xs)
	}
	for k, xs := range d2 {
		out.DeltaT2[k] = summarizeOrZero(xs)
		out.FracT2Positive[k] = fracPositive(xs)
	}
	for kind, xs := range d2k {
		out.DeltaT2ByKind[kind] = summarizeOrZero(xs)
		out.FracT2PositiveByKind[kind] = fracPositive(xs)
	}
	return out
}

// Render formats Fig 12.
func (r HandoverImpact) Render() string {
	header := []string{"operator", "dir", "n", "ΔT1 med", "ΔT1 min", "ΔT1<0", "ΔT2 med", "ΔT2 max", "ΔT2>0"}
	var rows [][]string
	for _, op := range radio.Operators() {
		for _, dir := range radio.Directions() {
			k := opDir{op, dir}
			a, b := r.DeltaT1[k], r.DeltaT2[k]
			rows = append(rows, []string{
				op.String(), dir.String(), fmt.Sprintf("%d", a.N),
				f1(a.Median), f1(a.Min), pct(r.FracT1Negative[k]),
				f1(b.Median), f1(b.Max), pct(r.FracT2Positive[k]),
			})
		}
	}
	s := renderTable("Figure 12: throughput impact of handovers (Mbps)", header, rows)

	rows = rows[:0]
	for _, kind := range []ran.HandoverKind{ran.Horizontal4G, ran.Horizontal5G, ran.Up, ran.Down} {
		sum := r.DeltaT2ByKind[kind]
		rows = append(rows, []string{
			kind.String(), fmt.Sprintf("%d", sum.N), f1(sum.Median), pct(r.FracT2PositiveByKind[kind]),
		})
	}
	s += renderTable("Figure 12: post−pre throughput by HO type",
		[]string{"type", "n", "ΔT2 med", "ΔT2>0"}, rows)
	return s
}
