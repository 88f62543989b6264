package core

import (
	"fmt"

	"github.com/nuwins/cellwheels/internal/apps/offload"
	"github.com/nuwins/cellwheels/internal/dataset"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/stats"
)

// OffloadAppResult regenerates Fig 13 (AR) or Fig 14 (CAV), with the
// per-operator variants of Figs 18–20.
type OffloadAppResult struct {
	Kind dataset.TestKind
	// E2E[op][compressed] summarizes driving E2E latency (ms);
	// index 0 = uncompressed, 1 = compressed.
	E2E map[radio.Operator][2]stats.Summary
	// StaticE2E[op][compressed] is the static-baseline mean E2E.
	StaticE2E map[radio.Operator][2]float64
	// FPS[op][compressed] summarizes offloaded frame rate.
	FPS map[radio.Operator][2]stats.Summary
	// MAP[op][compressed] summarizes detection accuracy (AR only).
	MAP map[radio.Operator][2]stats.Summary
	// ByHighSpeed[op] splits compressed-run E2E medians by the share of
	// the run on high-speed 5G: [<50%, >=50%].
	ByHighSpeed map[radio.Operator][2]float64
	// EdgeVsCloud[0] is the Verizon compressed-run E2E median on edge
	// servers, [1] on cloud.
	EdgeVsCloud [2]float64
	// HOCorrelation is Pearson r between a run's handover count and its
	// headline metric (mAP for AR, E2E for CAV).
	HOCorrelation map[radio.Operator]float64
}

// FigureARApp computes Fig 13 / 18–20 for the AR app.
func FigureARApp(db *dataset.DB) OffloadAppResult { return offloadFigure(db, dataset.AppAR) }

// FigureCAVApp computes Fig 14 / 18–20 for the CAV app.
func FigureCAVApp(db *dataset.DB) OffloadAppResult { return offloadFigure(db, dataset.AppCAV) }

func offloadFigure(db *dataset.DB, kind dataset.TestKind) OffloadAppResult {
	out := OffloadAppResult{
		Kind:          kind,
		E2E:           map[radio.Operator][2]stats.Summary{},
		StaticE2E:     map[radio.Operator][2]float64{},
		FPS:           map[radio.Operator][2]stats.Summary{},
		MAP:           map[radio.Operator][2]stats.Summary{},
		ByHighSpeed:   map[radio.Operator][2]float64{},
		HOCorrelation: map[radio.Operator]float64{},
	}
	for _, op := range radio.Operators() {
		var e2e, fps, mAP [2][]float64
		var static [2][]float64
		var hsLow, hsHigh []float64
		var hos, metric []float64
		for _, r := range db.AppRuns {
			if r.Kind != kind || r.Op != op {
				continue
			}
			ci := 0
			if r.Compressed {
				ci = 1
			}
			if r.Static {
				static[ci] = append(static[ci], r.E2EMS)
				continue
			}
			if r.E2EMS <= 0 {
				continue // run offloaded nothing
			}
			e2e[ci] = append(e2e[ci], r.E2EMS)
			fps[ci] = append(fps[ci], r.OffloadFPS)
			mAP[ci] = append(mAP[ci], r.MAP)
			if r.Compressed {
				if r.HighSpeedFrac < 0.5 {
					hsLow = append(hsLow, r.E2EMS)
				} else {
					hsHigh = append(hsHigh, r.E2EMS)
				}
				hos = append(hos, float64(r.Handovers))
				if kind == dataset.AppAR {
					metric = append(metric, r.MAP)
				} else {
					metric = append(metric, r.E2EMS)
				}
			}
		}
		out.E2E[op] = [2]stats.Summary{summarizeOrZero(e2e[0]), summarizeOrZero(e2e[1])}
		out.FPS[op] = [2]stats.Summary{summarizeOrZero(fps[0]), summarizeOrZero(fps[1])}
		out.MAP[op] = [2]stats.Summary{summarizeOrZero(mAP[0]), summarizeOrZero(mAP[1])}
		out.StaticE2E[op] = [2]float64{summarizeOrZero(static[0]).Min, summarizeOrZero(static[1]).Min}
		out.ByHighSpeed[op] = [2]float64{summarizeOrZero(hsLow).Median, summarizeOrZero(hsHigh).Median}
		if r, err := stats.Pearson(hos, metric); err == nil {
			out.HOCorrelation[op] = r
		}
	}

	var edge, cld []float64
	for _, r := range db.AppRuns {
		if r.Kind != kind || r.Op != radio.Verizon || !r.Compressed || r.Static || r.E2EMS <= 0 {
			continue
		}
		if r.Edge {
			edge = append(edge, r.E2EMS)
		} else {
			cld = append(cld, r.E2EMS)
		}
	}
	out.EdgeVsCloud = [2]float64{summarizeOrZero(edge).Median, summarizeOrZero(cld).Median}
	return out
}

// Render formats Fig 13 or Fig 14 plus the appendix breakdowns.
func (r OffloadAppResult) Render() string {
	name := "Figure 13 (AR app)"
	if r.Kind == dataset.AppCAV {
		name = "Figure 14 (CAV app)"
	}
	header := []string{"operator", "comp", "E2E med (ms)", "E2E p90", "static best E2E", "FPS med"}
	if r.Kind == dataset.AppAR {
		header = append(header, "mAP med")
	}
	var rows [][]string
	for _, op := range radio.Operators() {
		for ci, lbl := range []string{"no", "yes"} {
			row := []string{
				op.String(), lbl,
				f1(r.E2E[op][ci].Median), f1(r.E2E[op][ci].P90),
				f1(r.StaticE2E[op][ci]),
				f2(r.FPS[op][ci].Median),
			}
			if r.Kind == dataset.AppAR {
				row = append(row, f1(r.MAP[op][ci].Median))
			}
			rows = append(rows, row)
		}
	}
	s := renderTable(name+": offloading performance", header, rows)

	rows = rows[:0]
	for _, op := range radio.Operators() {
		hs := r.ByHighSpeed[op]
		rows = append(rows, []string{
			op.String(), f1(hs[0]), f1(hs[1]), f2(r.HOCorrelation[op]),
		})
	}
	s += renderTable(name+": context breakdowns (compressed runs)",
		[]string{"operator", "E2E med <50% hs", "E2E med >=50% hs", "r(HO, metric)"}, rows)
	s += fmt.Sprintf("Verizon edge vs cloud E2E median: %.1f vs %.1f ms\n",
		r.EdgeVsCloud[0], r.EdgeVsCloud[1])
	return s
}

// VideoResult regenerates Fig 15 (and Fig 21's per-operator variants).
type VideoResult struct {
	// QoE[op] over driving runs.
	QoE map[radio.Operator]stats.Summary
	// StaticQoE[op] is the best static run.
	StaticQoE map[radio.Operator]float64
	// Rebuffer[op] and Bitrate[op] over driving runs.
	Rebuffer map[radio.Operator]stats.Summary
	Bitrate  map[radio.Operator]stats.Summary
	// FracNegative is the share of driving runs with negative QoE.
	FracNegative map[radio.Operator]float64
	// HighSpeedQoE[op] is the median QoE of runs spent >=50% on
	// high-speed 5G vs below.
	HighSpeedQoE map[radio.Operator][2]float64
	// EdgeQoE[0] is the Verizon edge-run median, [1] cloud.
	EdgeQoE [2]float64
	// HOCorrelation is Pearson r between handovers and QoE.
	HOCorrelation map[radio.Operator]float64
}

// FigureVideo computes Fig 15 / 21.
func FigureVideo(db *dataset.DB) VideoResult {
	out := VideoResult{
		QoE:           map[radio.Operator]stats.Summary{},
		StaticQoE:     map[radio.Operator]float64{},
		Rebuffer:      map[radio.Operator]stats.Summary{},
		Bitrate:       map[radio.Operator]stats.Summary{},
		FracNegative:  map[radio.Operator]float64{},
		HighSpeedQoE:  map[radio.Operator][2]float64{},
		HOCorrelation: map[radio.Operator]float64{},
	}
	var edge, cld []float64
	for _, op := range radio.Operators() {
		var qoe, reb, rate, hos []float64
		var hsLow, hsHigh []float64
		staticBest := 0.0
		for _, r := range db.AppRuns {
			if r.Kind != dataset.AppVideo || r.Op != op {
				continue
			}
			if r.Static {
				if r.QoE > staticBest {
					staticBest = r.QoE
				}
				continue
			}
			qoe = append(qoe, r.QoE)
			reb = append(reb, r.RebufferFrac)
			rate = append(rate, r.AvgBitrate)
			hos = append(hos, float64(r.Handovers))
			if r.HighSpeedFrac < 0.5 {
				hsLow = append(hsLow, r.QoE)
			} else {
				hsHigh = append(hsHigh, r.QoE)
			}
			if op == radio.Verizon {
				if r.Edge {
					edge = append(edge, r.QoE)
				} else {
					cld = append(cld, r.QoE)
				}
			}
		}
		out.QoE[op] = summarizeOrZero(qoe)
		out.StaticQoE[op] = staticBest
		out.Rebuffer[op] = summarizeOrZero(reb)
		out.Bitrate[op] = summarizeOrZero(rate)
		out.FracNegative[op] = 1 - fracPositive(qoe)
		out.HighSpeedQoE[op] = [2]float64{summarizeOrZero(hsLow).Median, summarizeOrZero(hsHigh).Median}
		if r, err := stats.Pearson(hos, qoe); err == nil {
			out.HOCorrelation[op] = r
		}
	}
	out.EdgeQoE = [2]float64{summarizeOrZero(edge).Median, summarizeOrZero(cld).Median}
	return out
}

// Render formats Fig 15 / 21.
func (r VideoResult) Render() string {
	header := []string{"operator", "QoE med", "QoE<0 runs", "static best QoE", "rebuffer med", "rebuffer max", "bitrate med"}
	var rows [][]string
	for _, op := range radio.Operators() {
		rows = append(rows, []string{
			op.String(),
			f1(r.QoE[op].Median), pct(r.FracNegative[op]), f1(r.StaticQoE[op]),
			pct(r.Rebuffer[op].Median), pct(r.Rebuffer[op].Max),
			f1(r.Bitrate[op].Median),
		})
	}
	s := renderTable("Figure 15: 360° video streaming QoE", header, rows)
	rows = rows[:0]
	for _, op := range radio.Operators() {
		hs := r.HighSpeedQoE[op]
		rows = append(rows, []string{op.String(), f1(hs[0]), f1(hs[1]), f2(r.HOCorrelation[op])})
	}
	s += renderTable("Figure 15: breakdowns",
		[]string{"operator", "QoE med <50% hs", "QoE med >=50% hs", "r(HO, QoE)"}, rows)
	s += fmt.Sprintf("Verizon edge vs cloud QoE median: %.1f vs %.1f\n", r.EdgeQoE[0], r.EdgeQoE[1])
	return s
}

// GamingResult regenerates Fig 16 (and Fig 22).
type GamingResult struct {
	Bitrate map[radio.Operator]stats.Summary
	Latency map[radio.Operator]stats.Summary
	Drops   map[radio.Operator]stats.Summary
	// Static[op] is (bitrate, latency, drop) of the best static run.
	Static map[radio.Operator][3]float64
	// FracLatencyOver200 is the share of driving runs with mean network
	// latency above 200 ms.
	FracLatencyOver200 map[radio.Operator]float64
	HOCorrelation      map[radio.Operator]float64
}

// FigureGaming computes Fig 16 / 22.
func FigureGaming(db *dataset.DB) GamingResult {
	out := GamingResult{
		Bitrate:            map[radio.Operator]stats.Summary{},
		Latency:            map[radio.Operator]stats.Summary{},
		Drops:              map[radio.Operator]stats.Summary{},
		Static:             map[radio.Operator][3]float64{},
		FracLatencyOver200: map[radio.Operator]float64{},
		HOCorrelation:      map[radio.Operator]float64{},
	}
	for _, op := range radio.Operators() {
		var rate, lat, drop, hos []float64
		best := [3]float64{}
		for _, r := range db.AppRuns {
			if r.Kind != dataset.AppGaming || r.Op != op {
				continue
			}
			if r.Static {
				if r.SendBitrate > best[0] {
					best = [3]float64{r.SendBitrate, r.NetLatencyMS, r.FrameDropFrac}
				}
				continue
			}
			rate = append(rate, r.SendBitrate)
			lat = append(lat, r.NetLatencyMS)
			drop = append(drop, r.FrameDropFrac)
			hos = append(hos, float64(r.Handovers))
		}
		out.Bitrate[op] = summarizeOrZero(rate)
		out.Latency[op] = summarizeOrZero(lat)
		out.Drops[op] = summarizeOrZero(drop)
		out.Static[op] = best
		over := 0
		for _, l := range lat {
			if l > 200 {
				over++
			}
		}
		if len(lat) > 0 {
			out.FracLatencyOver200[op] = float64(over) / float64(len(lat))
		}
		if r, err := stats.Pearson(hos, drop); err == nil {
			out.HOCorrelation[op] = r
		}
	}
	return out
}

// Render formats Fig 16 / 22.
func (r GamingResult) Render() string {
	header := []string{"operator", "bitrate med", "static bitrate", "latency med (ms)", "lat>200ms runs", "drop med", "drop max", "static drop", "r(HO, drop)"}
	var rows [][]string
	for _, op := range radio.Operators() {
		rows = append(rows, []string{
			op.String(),
			f1(r.Bitrate[op].Median), f1(r.Static[op][0]),
			f1(r.Latency[op].Median), pct(r.FracLatencyOver200[op]),
			pct(r.Drops[op].Median), pct(r.Drops[op].Max), pct(r.Static[op][2]),
			f2(r.HOCorrelation[op]),
		})
	}
	return renderTable("Figure 16: cloud gaming performance", header, rows)
}

// TableAppConfigs renders Table 4 from the app packages' constants.
func TableAppConfigs() string {
	ar, cav := offload.ARConfig(), offload.CAVConfig()
	rows := [][]string{
		{"Frames per second", f1(ar.FPS), f1(cav.FPS)},
		{"Frame size (raw)", ar.RawBytes.String(), cav.RawBytes.String()},
		{"Frame size (compressed)", ar.CompressedBytes.String(), cav.CompressedBytes.String()},
		{"Frame compression time (ms)", f1(ar.CompressMS), f1(cav.CompressMS)},
		{"Server inference time (ms)", f1(ar.InferenceMS), f1(cav.InferenceMS)},
		{"Frame decompression time (ms)", f1(ar.DecompressMS), f1(cav.DecompressMS)},
		{"Duration of a run (s)", f1(ar.RunDuration.Seconds()), f1(cav.RunDuration.Seconds())},
	}
	return renderTable("Table 4: AR & CAV configurations", []string{"parameter", "AR", "CAV"}, rows)
}

// TableMAP renders Table 5 from the offload package's accuracy model.
func TableMAP() string {
	var rows [][]string
	for b := 0; b < offload.MAPBins(); b++ {
		rows = append(rows, []string{
			fmt.Sprintf("%d-%d", b, b+1),
			f2(offload.MAPForBin(b, false)),
			f2(offload.MAPForBin(b, true)),
		})
	}
	return renderTable("Table 5: mAP by E2E latency bin (frame times)",
		[]string{"bin", "mAP w/o comp", "mAP w/ comp"}, rows)
}
