package core

import (
	"math"
	"strings"
	"testing"

	"github.com/nuwins/cellwheels/internal/dataset"
	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/unit"
)

func TestTableDatasetStats(t *testing.T) {
	db := quickDB(t)
	d := TableDatasetStats(db)
	if d.RouteKm < 100 || d.RouteKm > 200 {
		t.Errorf("driven km = %v, want ≈120 (the quick campaign's limit)", d.RouteKm)
	}
	if d.Timezones < 1 {
		t.Errorf("timezones = %d", d.Timezones)
	}
	if len(d.Operators) != 3 {
		t.Errorf("operators = %v", d.Operators)
	}
	if d.LogRecords == 0 {
		t.Error("no log records counted")
	}
	out := d.Render()
	for _, want := range []string{"Table 1", "Verizon", "Rx"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestFigureCoverageMaps(t *testing.T) {
	db := quickDB(t)
	m := FigureCoverageMaps(db, geo.DefaultRoute(), 80)
	for _, op := range radio.Operators() {
		s := m.Strip[op]
		if len(s[0]) != 80 || len(s[1]) != 80 {
			t.Fatalf("%v: strip lengths %d/%d", op, len(s[0]), len(s[1]))
		}
	}
	// The Fig 1 lesson: passive logging shows less 5G than active for
	// every operator with any active 5G.
	for _, op := range radio.Operators() {
		if m.Active5G[op] > 0.05 && m.Passive5G[op] > m.Active5G[op] {
			t.Errorf("%v: passive 5G %v above active %v", op, m.Passive5G[op], m.Active5G[op])
		}
	}
	// AT&T passive is pure 4G (Fig 1d).
	if m.Passive5G[radio.ATT] != 0 {
		t.Errorf("AT&T passive 5G share = %v, want 0", m.Passive5G[radio.ATT])
	}
	if !strings.Contains(m.Render(), "Figure 1") {
		t.Error("render missing title")
	}
}

// TestFigureCoverageMapsTieIsDeterministic pins how a bin whose top two
// technologies have equal sample counts is drawn: the older technology
// in radio.Technologies() order wins, on every call. Bin 0 ties LTE with
// 5G-mid (passive) and LTE-A with 5G-mmWave (active); bin 2 has a clear
// 5G-mid majority.
func TestFigureCoverageMapsTieIsDeterministic(t *testing.T) {
	route := geo.DefaultRoute()
	const bins = 4
	mid := func(bin int) unit.Meters {
		return unit.Meters(float64(route.Total()) * (float64(bin) + 0.5) / bins)
	}
	db := &dataset.DB{}
	for _, p := range []struct {
		bin  int
		tech radio.Technology
	}{{0, radio.NRMid}, {0, radio.LTE}, {2, radio.NRMid}, {2, radio.LTE}, {2, radio.NRMid}} {
		db.Passive = append(db.Passive, dataset.CoverageSample{Op: radio.Verizon, Tech: p.tech, Odometer: mid(p.bin)})
	}
	for _, tech := range []radio.Technology{radio.NRMmWave, radio.LTEA} {
		db.Throughput = append(db.Throughput, dataset.ThroughputSample{Op: radio.Verizon, Tech: tech, Odometer: mid(0)})
	}

	for i := 0; i < 100; i++ {
		m := FigureCoverageMaps(db, route, bins)
		if got := m.Strip[radio.Verizon]; got != [2]string{"L.m.", "A..."} {
			t.Fatalf("call %d: strips = %q, want [\"L.m.\" \"A...\"]", i, got)
		}
		if m.Passive5G[radio.Verizon] != 0.5 || m.Active5G[radio.Verizon] != 0 {
			t.Fatalf("call %d: 5G shares passive %v active %v, want 0.5 and 0",
				i, m.Passive5G[radio.Verizon], m.Active5G[radio.Verizon])
		}
	}
}

func TestFigureCoverage(t *testing.T) {
	db := quickDB(t)
	c := FigureCoverage(db)
	for _, op := range radio.Operators() {
		total := 0.0
		for _, v := range c.Overall[op] {
			total += v
		}
		if math.Abs(total-1) > 1e-9 {
			t.Errorf("%v: shares sum to %v", op, total)
		}
	}
	// The quick campaign covers only the LA area, so exact Fig 2a values
	// don't apply, but the direction asymmetry must hold: high-speed 5G
	// share in UL must not exceed DL by much for any operator.
	for _, op := range radio.Operators() {
		dl := ShareHighSpeed(c.ByDirection[op][radio.Downlink])
		ul := ShareHighSpeed(c.ByDirection[op][radio.Uplink])
		if ul > dl+0.1 {
			t.Errorf("%v: UL high-speed %v above DL %v", op, ul, dl)
		}
	}
	out := c.Render()
	for _, want := range []string{"Figure 2a", "Figure 2b", "Figure 2c", "Figure 2d"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestFigureStaticVsDriving(t *testing.T) {
	db := quickDB(t)
	r := FigureStaticVsDriving(db)
	// Static DL beats driving DL for operators that ran baselines.
	for _, op := range radio.Operators() {
		k := opDir{op, radio.Downlink}
		st, dr := r.Throughput[k][0], r.Throughput[k][1]
		if st.N == 0 {
			continue // no baseline for this op in the quick area
		}
		if st.Median <= dr.Median {
			t.Errorf("%v: static median %v not above driving %v", op, st.Median, dr.Median)
		}
	}
	if r.FracBelow5[radio.Uplink] <= 0 {
		t.Error("no low uplink samples at all")
	}
	if !strings.Contains(r.Render(), "Figure 3") {
		t.Error("render missing title")
	}
}

func TestFigurePerTechnology(t *testing.T) {
	db := quickDB(t)
	r := FigurePerTechnology(db)
	// LTE is always present.
	anyLTE := false
	for _, op := range radio.Operators() {
		if r.Throughput[op][radio.LTE][radio.Downlink].N > 0 {
			anyLTE = true
		}
	}
	if !anyLTE {
		t.Error("no LTE downlink samples for any operator")
	}
	if !strings.Contains(r.Render(), "edge vs cloud") {
		t.Error("render missing Verizon split")
	}
}

func TestFigureTimezone(t *testing.T) {
	db := quickDB(t)
	r := FigureTimezone(db)
	// Quick campaign: everything Pacific.
	k := opDir{radio.Verizon, radio.Downlink}
	if r.Summary[k][geo.Pacific].N == 0 {
		t.Error("no Pacific samples")
	}
	if r.Summary[k][geo.Eastern].N != 0 {
		t.Error("Eastern samples in a 120 km LA campaign")
	}
	_ = r.Render()
}

func TestFigureOperatorDiversity(t *testing.T) {
	db := quickDB(t)
	r := FigureOperatorDiversity(db)
	for _, pair := range Pairs() {
		for _, dir := range radio.Directions() {
			pd := r.ByPair[pair][dir]
			if pd.N == 0 {
				t.Errorf("%v %v: no concurrent samples — phones should be in lock-step", pair, dir)
				continue
			}
			shares := 0.0
			for _, b := range []HTLTBin{HTHT, HTLT, LTHT, LTLT} {
				shares += pd.BinShare[b]
			}
			if math.Abs(shares-1) > 1e-9 {
				t.Errorf("%v %v: bin shares sum to %v", pair, dir, shares)
			}
			if pd.FracAPositive < 0 || pd.FracAPositive > 1 {
				t.Errorf("bad win fraction %v", pd.FracAPositive)
			}
		}
	}
	if !strings.Contains(r.Render(), "Figure 6a") {
		t.Error("render missing title")
	}
}

func TestFigureSpeedScatter(t *testing.T) {
	db := quickDB(t)
	r := FigureSpeedScatter(db)
	found := false
	for _, m := range r.Tput {
		for _, byTech := range m {
			for _, sum := range byTech {
				if sum.N > 0 {
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatal("no speed-binned samples")
	}
	out := r.Render()
	if !strings.Contains(out, "Figure 7") || !strings.Contains(out, "Figure 8") {
		t.Error("render missing panels")
	}
}

func TestTableKPICorrelation(t *testing.T) {
	db := quickDB(t)
	r := TableKPICorrelation(db)
	for _, op := range radio.Operators() {
		for _, dir := range radio.Directions() {
			for _, k := range KPINames() {
				v := r.R[op][dir][k]
				if math.IsNaN(v) || v < -1 || v > 1 {
					t.Errorf("%v %v %v: r = %v", op, dir, k, v)
				}
			}
		}
	}
	// The paper's core finding: no KPI strongly correlates.
	if r.MaxAbsR() > 0.85 {
		t.Errorf("max |r| = %v; expected weak-to-medium correlations", r.MaxAbsR())
	}
	if !strings.Contains(r.Render(), "Table 2") {
		t.Error("render missing title")
	}
}

func TestKPIHandoverCorrelationNearZero(t *testing.T) {
	db := quickDB(t)
	r := TableKPICorrelation(db)
	for _, op := range radio.Operators() {
		for _, dir := range radio.Directions() {
			if v := math.Abs(r.R[op][dir][KPIHO]); v > 0.3 {
				t.Errorf("%v %v: |r(HO)| = %v; the paper finds none", op, dir, v)
			}
		}
	}
}

func TestFigureLongTimescale(t *testing.T) {
	db := quickDB(t)
	r := FigureLongTimescale(db)
	for _, op := range radio.Operators() {
		if r.MeanTput[opDir{op, radio.Downlink}].N == 0 {
			t.Errorf("%v: no per-test DL means", op)
		}
		if r.MeanRTT[op].N == 0 {
			t.Errorf("%v: no per-test RTT means", op)
		}
		// Variability within tests is substantial (Fig 9 lower row).
		if r.StdPct[opDir{op, radio.Downlink}].Median < 5 {
			t.Errorf("%v: DL std%% median %v implausibly low", op, r.StdPct[opDir{op, radio.Downlink}].Median)
		}
	}
	_ = r.Render()
}

func TestFigureHighSpeed5GShare(t *testing.T) {
	db := quickDB(t)
	r := FigureHighSpeed5GShare(db)
	n := 0
	for _, arr := range r.TputByBin {
		for _, s := range arr {
			n += s.N
		}
	}
	if n == 0 {
		t.Fatal("no per-test aggregates")
	}
	_ = r.Render()
}

func TestTableOoklaComparison(t *testing.T) {
	db := quickDB(t)
	r := TableOoklaComparison(db)
	for _, op := range radio.Operators() {
		row := r.Rows[op]
		if row.SpeedtestDL == 0 || row.SpeedtestRTT == 0 {
			t.Errorf("%v: missing Ookla constants", op)
		}
		if row.OurDL <= 0 {
			t.Errorf("%v: missing our medians", op)
		}
	}
	if !strings.Contains(r.Render(), "Ookla") {
		t.Error("render missing title")
	}
}

func TestFigureHandoverStats(t *testing.T) {
	db := quickDB(t)
	r := FigureHandoverStats(db)
	anyHO := false
	for _, dur := range r.Duration {
		if dur.N > 0 {
			anyHO = true
			// Fig 11b scale: tens of ms, not seconds.
			if dur.Median < 20 || dur.Median > 200 {
				t.Errorf("HO duration median %v ms", dur.Median)
			}
		}
	}
	if !anyHO {
		t.Error("no handover durations recorded")
	}
	_ = r.Render()
}

func TestFigureHandoverImpact(t *testing.T) {
	db := quickDB(t)
	r := FigureHandoverImpact(db)
	total := 0
	for k, sum := range r.DeltaT1 {
		total += sum.N
		fr := r.FracT1Negative[k]
		if fr < 0 || fr > 1 {
			t.Errorf("%v: ΔT1<0 fraction %v", k, fr)
		}
	}
	if total == 0 {
		t.Skip("no handovers with full ±2 sample context in quick run")
	}
	// §6: the HO window mostly loses throughput.
	neg := 0.0
	n := 0.0
	for k, sum := range r.DeltaT1 {
		neg += r.FracT1Negative[k] * float64(sum.N)
		n += float64(sum.N)
		_ = k
	}
	if n > 20 && neg/n < 0.5 {
		t.Errorf("pooled ΔT1<0 = %v, want majority", neg/n)
	}
	_ = r.Render()
}

func TestFigureARAndCAV(t *testing.T) {
	db := quickDB(t)
	ar := FigureARApp(db)
	cav := FigureCAVApp(db)
	for _, op := range radio.Operators() {
		// Compression reduces CAV E2E dramatically (§7.1.2).
		raw, comp := cav.E2E[op][0], cav.E2E[op][1]
		if raw.N > 2 && comp.N > 2 && comp.Median >= raw.Median {
			t.Errorf("%v: CAV compressed median %v not below raw %v", op, comp.Median, raw.Median)
		}
		// AR accuracy is bounded by Table 5's best value.
		if m := ar.MAP[op][1]; m.N > 0 && (m.Max > 38.45 || m.Min < 0) {
			t.Errorf("%v: AR mAP out of range: %+v", op, m)
		}
	}
	if !strings.Contains(ar.Render(), "Figure 13") || !strings.Contains(cav.Render(), "Figure 14") {
		t.Error("render titles wrong")
	}
}

func TestFigureVideo(t *testing.T) {
	db := quickDB(t)
	r := FigureVideo(db)
	for _, op := range radio.Operators() {
		if r.QoE[op].N == 0 {
			t.Errorf("%v: no video runs", op)
			continue
		}
		if r.Rebuffer[op].Min < 0 || r.Rebuffer[op].Max > 1 {
			t.Errorf("%v: rebuffer out of range", op)
		}
		if r.FracNegative[op] < 0 || r.FracNegative[op] > 1 {
			t.Errorf("%v: negative-QoE fraction %v", op, r.FracNegative[op])
		}
	}
	_ = r.Render()
}

func TestFigureGaming(t *testing.T) {
	db := quickDB(t)
	r := FigureGaming(db)
	for _, op := range radio.Operators() {
		if r.Bitrate[op].N == 0 {
			t.Errorf("%v: no gaming runs", op)
			continue
		}
		if r.Bitrate[op].Max > 100.01 {
			t.Errorf("%v: bitrate above Steam's 100 Mbps cap", op)
		}
		if r.Drops[op].Min < 0 || r.Drops[op].Max > 1 {
			t.Errorf("%v: drop fraction out of range", op)
		}
	}
	_ = r.Render()
}

func TestStaticTables(t *testing.T) {
	t4 := TableAppConfigs()
	for _, want := range []string{"Table 4", "450.00 KB", "2.00 MB", "44.0"} {
		if !strings.Contains(t4, want) {
			t.Errorf("Table 4 missing %q", want)
		}
	}
	t5 := TableMAP()
	for _, want := range []string{"Table 5", "38.45", "13.70", "29-30"} {
		if !strings.Contains(t5, want) {
			t.Errorf("Table 5 missing %q", want)
		}
	}
}

func TestFullReport(t *testing.T) {
	db := quickDB(t)
	maps := FigureCoverageMaps(db, geo.DefaultRoute(), 60)
	rep := Report(db, maps)
	for _, want := range []string{
		"Table 1", "Figure 1", "Figure 2a", "Figure 3", "Figure 4",
		"Figure 5", "Figure 6a", "Figure 7", "Figure 8", "Table 2",
		"Figure 9", "Figure 10", "Table 3", "Figure 11", "Figure 12",
		"Figure 13", "Figure 14", "Figure 15", "Figure 16", "Table 4", "Table 5",
	} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if len(rep) < 4000 {
		t.Errorf("report suspiciously short: %d bytes", len(rep))
	}
}

func TestAnalysisOnEmptyDB(t *testing.T) {
	db := &dataset.DB{}
	// None of the analysis functions may panic on an empty dataset.
	_ = TableDatasetStats(db).Render()
	_ = FigureCoverage(db).Render()
	_ = FigureStaticVsDriving(db).Render()
	_ = FigurePerTechnology(db).Render()
	_ = FigureTimezone(db).Render()
	_ = FigureOperatorDiversity(db).Render()
	_ = FigureSpeedScatter(db).Render()
	_ = TableKPICorrelation(db).Render()
	_ = FigureLongTimescale(db).Render()
	_ = FigureHighSpeed5GShare(db).Render()
	_ = TableOoklaComparison(db).Render()
	_ = FigureHandoverStats(db).Render()
	_ = FigureHandoverImpact(db).Render()
	_ = FigureARApp(db).Render()
	_ = FigureCAVApp(db).Render()
	_ = FigureVideo(db).Render()
	_ = FigureGaming(db).Render()
	_ = FigureCoverageMaps(db, geo.DefaultRoute(), 10).Render()
}
