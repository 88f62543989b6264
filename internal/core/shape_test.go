package core

import (
	"strings"
	"testing"
	"time"

	"github.com/nuwins/cellwheels/internal/dataset"
	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/unit"
)

// shapeDB runs a larger slice of the campaign (LA → past Las Vegas) used
// to assert the paper's qualitative findings. Built once.
var shapeData *dataset.DB

func shapeDB(t *testing.T) *dataset.DB {
	t.Helper()
	if testing.Short() {
		t.Skip("shape tests need a larger campaign; skipped with -short")
	}
	if shapeData != nil {
		return shapeData
	}
	cfg := Config{
		Seed:           3,
		Limit:          700 * unit.Kilometer,
		VideoDuration:  60 * time.Second,
		GamingDuration: 40 * time.Second,
	}
	db, err := NewCampaign(cfg).RunAndMerge()
	if err != nil {
		t.Fatal(err)
	}
	shapeData = db
	return db
}

func TestShapeDrivingFarBelowStatic(t *testing.T) {
	db := shapeDB(t)
	r := FigureStaticVsDriving(db)
	for _, op := range radio.Operators() {
		st := r.ThroughputOf(op, radio.Downlink, true)
		dr := r.ThroughputOf(op, radio.Downlink, false)
		if st.N == 0 {
			continue
		}
		// Fig 3b: driving medians are a few percent of static medians.
		if dr.Median > 0.4*st.Median {
			t.Errorf("%v: driving DL median %.1f not far below static %.1f", op, dr.Median, st.Median)
		}
	}
}

func TestShapeLowThroughputFraction(t *testing.T) {
	db := shapeDB(t)
	r := FigureStaticVsDriving(db)
	// "a significant fraction (35%) of very low throughput values (below
	// 5 Mbps) in both directions" — require a substantial fraction.
	if r.FracBelow5[radio.Uplink] < 0.15 {
		t.Errorf("UL below-5 fraction = %v, want substantial", r.FracBelow5[radio.Uplink])
	}
	if r.FracBelow5[radio.Downlink] < 0.08 {
		t.Errorf("DL below-5 fraction = %v, want substantial", r.FracBelow5[radio.Downlink])
	}
}

func TestShapeDrivingRTTRange(t *testing.T) {
	db := shapeDB(t)
	r := FigureStaticVsDriving(db)
	for _, op := range radio.Operators() {
		dr := r.RTTOf(op, false)
		// Fig 3b: medians 60–76 ms; allow a tolerant band.
		if dr.Median < 40 || dr.Median > 110 {
			t.Errorf("%v: driving RTT median %.1f ms outside paper band", op, dr.Median)
		}
		// Maxima reach seconds.
		if dr.Max < 500 {
			t.Errorf("%v: driving RTT max %.1f ms; paper sees 2-3 s tails", op, dr.Max)
		}
	}
}

func TestShapeUplinkElevationAsymmetry(t *testing.T) {
	db := shapeDB(t)
	c := FigureCoverage(db)
	// Fig 2b: high-speed 5G share higher for DL than UL for all carriers.
	for _, op := range radio.Operators() {
		dl := ShareHighSpeed(c.ByDirection[op][radio.Downlink])
		ul := ShareHighSpeed(c.ByDirection[op][radio.Uplink])
		if dl > 0.03 && ul >= dl {
			t.Errorf("%v: UL high-speed share %.2f not below DL %.2f", op, ul, dl)
		}
	}
}

func TestShapeTMobileCoverageLeads(t *testing.T) {
	db := shapeDB(t)
	c := FigureCoverage(db)
	tm := Share5G(c.Overall[radio.TMobile])
	if tm <= Share5G(c.Overall[radio.Verizon]) || tm <= Share5G(c.Overall[radio.ATT]) {
		t.Errorf("T-Mobile 5G share %.2f not dominant (V %.2f, A %.2f)",
			tm, Share5G(c.Overall[radio.Verizon]), Share5G(c.Overall[radio.ATT]))
	}
	// AT&T's high-speed share is marginal (Fig 2a: ~3%).
	if hs := ShareHighSpeed(c.Overall[radio.ATT]); hs > 0.12 {
		t.Errorf("AT&T high-speed share %.2f too high", hs)
	}
}

func TestShapeHandoverFrequency(t *testing.T) {
	db := shapeDB(t)
	r := FigureHandoverStats(db)
	for _, op := range radio.Operators() {
		pm := r.PerMileOf(op, radio.Downlink)
		if pm.N == 0 {
			t.Fatalf("%v: no DL tests with distance", op)
		}
		// Fig 11a: medians 1-3 HOs/mile, extremes past 20.
		if pm.Median > 8 {
			t.Errorf("%v: HO/mile median %.1f too high", op, pm.Median)
		}
		if pm.Max < 4 {
			t.Errorf("%v: HO/mile max %.1f too low", op, pm.Max)
		}
	}
	// Fig 11b: T-Mobile handovers are the slowest.
	tm := r.Duration[opDir{radio.TMobile, radio.Downlink}].Median
	vz := r.Duration[opDir{radio.Verizon, radio.Downlink}].Median
	if tm <= vz {
		t.Errorf("T-Mobile HO duration median %.1f not above Verizon %.1f", tm, vz)
	}
}

func TestShapeHandoverImpactSmallAndRecovering(t *testing.T) {
	db := shapeDB(t)
	r := handoverImpact(newView(db))
	var t1n, t1tot, t2pos, t2tot float64
	for k, sum := range r.DeltaT1 {
		t1n += r.FracT1Negative[k] * float64(sum.N)
		t1tot += float64(sum.N)
	}
	for k, sum := range r.DeltaT2 {
		t2pos += r.FracT2Positive[k] * float64(sum.N)
		t2tot += float64(sum.N)
	}
	if t1tot < 30 {
		t.Skip("too few handover windows for shape assertions")
	}
	// §6: throughput drops during ~80% of HO windows.
	if frac := t1n / t1tot; frac < 0.55 {
		t.Errorf("ΔT1<0 fraction = %.2f, want a clear majority", frac)
	}
	// §6: post-HO throughput improves ~55-60% of the time.
	if frac := t2pos / t2tot; frac < 0.40 || frac > 0.80 {
		t.Errorf("ΔT2>0 fraction = %.2f, want ≈0.55-0.60", frac)
	}
}

func TestShapeEdgeBeatsCloudForVerizon(t *testing.T) {
	db := shapeDB(t)
	r := perTechnology(newView(db))
	// §5.2: edge RTT below cloud RTT wherever both have samples.
	better, worse := 0, 0
	for _, tech := range radio.Technologies() {
		e := r.VerizonEdgeRTT[tech]
		if e[0].N < 20 || e[1].N < 20 {
			continue
		}
		if e[0].Median < e[1].Median {
			better++
		} else {
			worse++
		}
	}
	if better == 0 {
		t.Skip("no technology with enough edge and cloud RTT samples")
	}
	if worse > better {
		t.Errorf("edge beat cloud for %d technologies, lost for %d", better, worse)
	}
}

func TestShapeCompressionCutsCAVLatency(t *testing.T) {
	db := shapeDB(t)
	r := FigureCAVApp(db)
	for _, op := range radio.Operators() {
		raw, comp := r.E2E[op][0], r.E2E[op][1]
		if raw.N < 3 || comp.N < 3 {
			continue
		}
		// §7.1.2: compression cuts the median several-fold.
		if comp.Median > raw.Median/2 {
			t.Errorf("%v: CAV compressed median %.0f vs raw %.0f; want large cut", op, comp.Median, raw.Median)
		}
		// But never below the 100 ms bound.
		if comp.Median < 100 {
			t.Errorf("%v: CAV compressed median %.0f below the paper's 100 ms impossibility bound", op, comp.Median)
		}
	}
}

func TestShapeAppsHaveWeakHandoverCorrelation(t *testing.T) {
	db := shapeDB(t)
	for name, r := range map[string]map[radio.Operator]float64{
		"AR":    FigureARApp(db).HOCorrelation,
		"video": FigureVideo(db).HOCorrelation,
	} {
		for op, v := range r {
			if v > 0.6 || v < -0.6 {
				t.Errorf("%s %v: |r(HO)| = %.2f; the paper finds no strong correlation", name, op, v)
			}
		}
	}
}

func TestShapeGamingProtectsFrameRate(t *testing.T) {
	db := shapeDB(t)
	r := FigureGaming(db)
	for _, op := range radio.Operators() {
		if r.Drops[op].N == 0 {
			continue
		}
		// §7.3: the adapter keeps the drop rate low (median ~1.6%) by
		// sacrificing bitrate.
		if r.Drops[op].Median > 0.10 {
			t.Errorf("%v: frame drop median %.3f; adapter should protect frames", op, r.Drops[op].Median)
		}
		if r.Bitrate[op].Median > 80 {
			t.Errorf("%v: driving bitrate median %.1f suspiciously close to static ceiling", op, r.Bitrate[op].Median)
		}
	}
}

func TestShapeCoverageMapsDisparity(t *testing.T) {
	db := shapeDB(t)
	m := FigureCoverageMaps(db, geo.DefaultRoute(), 100)
	// Pooled across carriers, passive 5G is well below active 5G.
	var p, a float64
	for _, op := range radio.Operators() {
		p += m.Passive5G[op]
		a += m.Active5G[op]
	}
	if a < 0.2 {
		t.Skip("active 5G too scarce in this slice")
	}
	if p > 0.6*a {
		t.Errorf("pooled passive 5G %.2f not well below active %.2f", p, a)
	}
}

func TestShapeVideoDependsOnBandwidthMoreThanApps(t *testing.T) {
	db := shapeDB(t)
	vid := FigureVideo(db)
	// §7.2(3): runs mostly on high-speed 5G get better QoE.
	for _, op := range radio.Operators() {
		hs := vid.HighSpeedQoE[op]
		if hs[0] == 0 && hs[1] == 0 {
			continue
		}
		if hs[1] != 0 && hs[0] != 0 && hs[1] < hs[0]-30 {
			t.Errorf("%v: QoE on high-speed 5G (%.1f) far below low-tech runs (%.1f)", op, hs[1], hs[0])
		}
	}
}

func TestShapeATTRTTTestsMostlyOn4G(t *testing.T) {
	// §5.1: "most of the RTT tests over AT&T were run over LTE/LTE-A even
	// though the phone's screen showed 5G" — the idle ICMP traffic is not
	// elevated.
	db := shapeDB(t)
	on4G, total := 0, 0
	for _, s := range db.RTT {
		if s.Op != radio.ATT || s.Lost {
			continue
		}
		total++
		if !s.Tech.Is5G() {
			on4G++
		}
	}
	if total == 0 {
		t.Fatal("no AT&T RTT samples")
	}
	if frac := float64(on4G) / float64(total); frac < 0.8 {
		t.Errorf("AT&T RTT samples on 4G = %.2f, want the vast majority", frac)
	}
}

func TestShapeOoklaMeasuredSignature(t *testing.T) {
	// The measured Table 3 variant: the static crowd's DL medians sit far
	// above the driving DL medians; RTT sits below.
	if testing.Short() {
		t.Skip("needs the crowd simulation")
	}
	db := shapeDB(t)
	campaign := NewCampaign(Config{Seed: 3})
	crowd := campaign.MeasureSpeedtestCrowd(25)
	table := TableOoklaMeasured(db, crowd)
	for _, op := range radio.Operators() {
		d := table.Driving[op]
		c := table.Crowd[op]
		if c.DL.N == 0 {
			t.Fatalf("%v: no crowd samples", op)
		}
		if c.DL.Median <= d.OurDL {
			t.Errorf("%v: crowd DL %.1f not above driving %.1f", op, c.DL.Median, d.OurDL)
		}
		if c.RTT.Median >= d.OurRTT {
			t.Errorf("%v: crowd RTT %.1f not below driving %.1f", op, c.RTT.Median, d.OurRTT)
		}
	}
	if !strings.Contains(table.Render(), "measured variant") {
		t.Error("render missing title")
	}
}
