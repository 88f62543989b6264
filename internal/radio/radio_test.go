package radio

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/nuwins/cellwheels/internal/unit"
)

func TestOperatorStrings(t *testing.T) {
	want := map[Operator][2]string{
		Verizon: {"Verizon", "V"},
		TMobile: {"T-Mobile", "T"},
		ATT:     {"AT&T", "A"},
	}
	for op, w := range want {
		if op.String() != w[0] || op.Short() != w[1] {
			t.Errorf("%d: String=%q Short=%q", int(op), op.String(), op.Short())
		}
	}
	if len(Operators()) != NumOperators {
		t.Errorf("Operators() len = %d", len(Operators()))
	}
}

func TestTechnologyClassification(t *testing.T) {
	if LTE.Is5G() || LTEA.Is5G() {
		t.Error("4G classified as 5G")
	}
	if !NRLow.Is5G() || !NRMid.Is5G() || !NRMmWave.Is5G() {
		t.Error("NR not classified as 5G")
	}
	// HT/LT split per §5.4: only midband and mmWave are high-speed.
	if NRLow.IsHighSpeed() {
		t.Error("5G-low marked high-speed")
	}
	if !NRMid.IsHighSpeed() || !NRMmWave.IsHighSpeed() {
		t.Error("midband/mmWave not high-speed")
	}
}

func TestTechnologyStrings(t *testing.T) {
	want := map[Technology]string{
		LTE: "LTE", LTEA: "LTE-A", NRLow: "5G-low", NRMid: "5G-mid", NRMmWave: "5G-mmWave",
	}
	for tech, s := range want {
		if tech.String() != s {
			t.Errorf("String(%d) = %q, want %q", int(tech), tech.String(), s)
		}
	}
	if len(Technologies()) != NumTechnologies {
		t.Errorf("Technologies() len = %d", len(Technologies()))
	}
}

func TestDirectionStrings(t *testing.T) {
	if Downlink.String() != "DL" || Uplink.String() != "UL" {
		t.Error("direction strings wrong")
	}
	if len(Directions()) != NumDirections {
		t.Error("Directions() incomplete")
	}
}

func TestBandProfilesOrdering(t *testing.T) {
	// Higher bands have shorter range.
	if Band(NRMmWave).CellRadius >= Band(NRMid).CellRadius {
		t.Error("mmWave radius should be far below midband")
	}
	if Band(NRMid).CellRadius >= Band(NRLow).CellRadius {
		t.Error("midband radius should be below low band")
	}
	// All profiles are physically sensible.
	for _, tech := range Technologies() {
		b := Band(tech)
		if b.PathLossExp < 2 || b.PathLossExp > 4 {
			t.Errorf("%v path loss exponent %v", tech, b.PathLossExp)
		}
		if b.CellRadius <= 0 || b.ShadowSigma <= 0 {
			t.Errorf("%v degenerate profile %+v", tech, b)
		}
	}
}

func TestRSRPDecreasesWithDistance(t *testing.T) {
	for _, tech := range Technologies() {
		prev := unit.DBm(math.Inf(1))
		for d := 10 * unit.Meter; d < 10*unit.Kilometer; d *= 2 {
			r := RSRP(tech, d, 0, 0)
			if r >= prev {
				t.Errorf("%v: RSRP not decreasing at %v", tech, d)
			}
			prev = r
		}
	}
}

func TestRSRPReferencePoint(t *testing.T) {
	// At the 10 m reference distance with no shadowing/beam, RSRP equals
	// the band's reference level.
	for _, tech := range Technologies() {
		if got := RSRP(tech, 10*unit.Meter, 0, 0); got != Band(tech).RefRSRP {
			t.Errorf("%v: RSRP(10m) = %v, want %v", tech, got, Band(tech).RefRSRP)
		}
	}
	// Distances below the reference clamp to it.
	if RSRP(LTE, 1*unit.Meter, 0, 0) != RSRP(LTE, 10*unit.Meter, 0, 0) {
		t.Error("sub-reference distance not clamped")
	}
}

func TestVerizonMmWaveRSRPLowerThanATT(t *testing.T) {
	// §5.5: Verizon's wider beams yield lower RSRP than AT&T's at the
	// same distance.
	d := 150 * unit.Meter
	v := RSRP(NRMmWave, d, 0, BeamGain(Verizon, NRMmWave))
	a := RSRP(NRMmWave, d, 0, BeamGain(ATT, NRMmWave))
	if v >= a {
		t.Errorf("Verizon RSRP %v not below AT&T %v", v, a)
	}
	if diff := float64(a - v); diff < 5 || diff > 15 {
		t.Errorf("beam gap = %v dB, want 5-15", diff)
	}
	// Typical urban mmWave distances should land in the paper's ranges.
	if v < -110 || v > -75 {
		t.Errorf("Verizon mmWave RSRP %v outside -110..-75", v)
	}
	if a < -95 || a > -60 {
		t.Errorf("AT&T mmWave RSRP %v outside -95..-60", a)
	}
}

func TestBeamGainOnlyMmWave(t *testing.T) {
	for _, op := range Operators() {
		for _, tech := range Technologies() {
			g := BeamGain(op, tech)
			if tech != NRMmWave && g != 0 {
				t.Errorf("%v/%v has beam gain %v", op, tech, g)
			}
		}
	}
}

func TestSINRLoadPenalty(t *testing.T) {
	free := SINR(NRMid, -90, 0)
	busy := SINR(NRMid, -90, 1)
	if free <= busy {
		t.Error("load did not reduce SINR")
	}
	if diff := float64(free - busy); math.Abs(diff-10) > 1e-9 {
		t.Errorf("full-load penalty = %v dB, want 10", diff)
	}
}

func TestMCSRange(t *testing.T) {
	f := func(sinr float64) bool {
		if math.IsNaN(sinr) {
			return true
		}
		m := MCSFromSINR(unit.DB(sinr))
		return m >= 0 && m <= MaxMCS
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if MCSFromSINR(-100) != 0 {
		t.Error("very low SINR should map to MCS 0")
	}
	if MCSFromSINR(100) != MaxMCS {
		t.Error("very high SINR should map to MaxMCS")
	}
}

func TestMCSMonotone(t *testing.T) {
	prev := -1
	for s := -10.0; s <= 30; s += 0.5 {
		m := MCSFromSINR(unit.DB(s))
		if m < prev {
			t.Fatalf("MCS decreased at SINR %v", s)
		}
		prev = m
	}
}

func TestSpectralFactorBounds(t *testing.T) {
	f := func(sinr float64) bool {
		if math.IsNaN(sinr) || math.Abs(sinr) > 1000 {
			return true
		}
		for _, tech := range Technologies() {
			v := SpectralFactor(tech, unit.DB(sinr))
			if v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if SpectralFactor(NRMid, Band(NRMid).SNRCap) != 1 {
		t.Error("factor at cap should be 1")
	}
	if SpectralFactor(NRMid, Band(NRMid).SNRCap+10) != 1 {
		t.Error("factor above cap should be 1")
	}
}

func TestBLERBehaviour(t *testing.T) {
	if BLER(0, 0, 0) <= 0 {
		t.Error("BLER floor missing")
	}
	if BLER(70, 0, 0) <= BLER(0, 0, 0) {
		t.Error("BLER not increasing with speed")
	}
	if BLER(30, 0, 0.9) <= BLER(30, 0, 0) {
		t.Error("idiosyncratic component missing")
	}
	if got := BLER(1000, 1000, 1); got > 0.6 {
		t.Errorf("BLER cap exceeded: %v", got)
	}
	if got := BLER(-50, -50, 0); got < 0 {
		t.Errorf("BLER negative: %v", got)
	}
}

func TestCAFactor(t *testing.T) {
	if CAFactor(1) != 1 {
		t.Errorf("CAFactor(1) = %v", CAFactor(1))
	}
	if CAFactor(0) != 1 {
		t.Errorf("CAFactor(0) = %v, want clamp to 1", CAFactor(0))
	}
	if CAFactor(2) != 1.75 {
		t.Errorf("CAFactor(2) = %v", CAFactor(2))
	}
	// More carriers never reduce capacity.
	for cc := 1; cc < 8; cc++ {
		if CAFactor(cc+1) <= CAFactor(cc) {
			t.Errorf("CAFactor not increasing at %d", cc)
		}
	}
}

func TestLinkTableComplete(t *testing.T) {
	for _, op := range Operators() {
		for _, tech := range Technologies() {
			for _, dir := range Directions() {
				p := Link(op, tech, dir)
				if p.PeakPerCC <= 0 || p.MaxCC < 1 {
					t.Errorf("%v/%v/%v: bad profile %+v", op, tech, dir, p)
				}
			}
		}
	}
}

func TestLinkAsymmetry(t *testing.T) {
	// Downlink peak exceeds uplink peak for every combination (§4.2:
	// "high asymmetry of downlink vs uplink bandwidth").
	for _, op := range Operators() {
		for _, tech := range Technologies() {
			dl := Link(op, tech, Downlink).Peak()
			ul := Link(op, tech, Uplink).Peak()
			if dl <= ul {
				t.Errorf("%v/%v: DL peak %v <= UL peak %v", op, tech, dl, ul)
			}
		}
	}
}

func TestLinkCalibrationOrdering(t *testing.T) {
	// T-Mobile midband is the strongest midband (§5.2 observation 3).
	tm := Link(TMobile, NRMid, Downlink).Peak()
	if tm <= Link(Verizon, NRMid, Downlink).Peak() || tm <= Link(ATT, NRMid, Downlink).Peak() {
		t.Error("T-Mobile midband not dominant")
	}
	// AT&T has the strongest LTE-A (§4.2).
	at := Link(ATT, LTEA, Downlink).Peak()
	if at <= Link(Verizon, LTEA, Downlink).Peak() || at <= Link(TMobile, LTEA, Downlink).Peak() {
		t.Error("AT&T LTE-A not dominant")
	}
	// Verizon mmWave peak approaches the paper's ~2.9 Gbps aggregate.
	if peak := Link(Verizon, NRMmWave, Downlink).Peak(); peak < 2.5*unit.Gbps || peak > 3.5*unit.Gbps {
		t.Errorf("Verizon mmWave DL peak = %v", peak)
	}
}

func TestCapacityProperties(t *testing.T) {
	// Capacity is maximal under ideal conditions and degrades with each
	// impairment.
	ideal := Capacity(Verizon, NRMmWave, Downlink, 8, 40, 0, 0)
	if ideal != Link(Verizon, NRMmWave, Downlink).Peak() {
		t.Errorf("ideal capacity %v != peak %v", ideal, Link(Verizon, NRMmWave, Downlink).Peak())
	}
	if Capacity(Verizon, NRMmWave, Downlink, 8, 10, 0, 0) >= ideal {
		t.Error("low SINR did not reduce capacity")
	}
	if Capacity(Verizon, NRMmWave, Downlink, 8, 40, 0.3, 0) >= ideal {
		t.Error("BLER did not reduce capacity")
	}
	if Capacity(Verizon, NRMmWave, Downlink, 8, 40, 0, 0.5) >= ideal {
		t.Error("load did not reduce capacity")
	}
	if Capacity(Verizon, NRMmWave, Downlink, 2, 40, 0, 0) >= ideal {
		t.Error("fewer CCs did not reduce capacity")
	}
}

func TestCapacityNeverNegative(t *testing.T) {
	f := func(sinr, bler, load float64) bool {
		if math.IsNaN(sinr) || math.IsNaN(bler) || math.IsNaN(load) {
			return true
		}
		c := Capacity(TMobile, NRMid, Uplink, 2, unit.DB(math.Mod(sinr, 60)), math.Abs(math.Mod(bler, 2)), math.Abs(math.Mod(load, 2)))
		return c >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCapacityClampsCC(t *testing.T) {
	max := Link(Verizon, LTE, Downlink).MaxCC
	a := Capacity(Verizon, LTE, Downlink, max, 40, 0, 0)
	b := Capacity(Verizon, LTE, Downlink, max+5, 40, 0, 0)
	if a != b {
		t.Errorf("CC above MaxCC changed capacity: %v vs %v", a, b)
	}
}

func TestBaseRadioRTTOrdering(t *testing.T) {
	// mmWave has the lowest access latency; LTE the highest; and LTE-A
	// beats 5G-low, matching §5.2's RTT tradeoff observation.
	if !(BaseRadioRTT(NRMmWave) < BaseRadioRTT(NRMid) &&
		BaseRadioRTT(NRMid) < BaseRadioRTT(LTEA) &&
		BaseRadioRTT(LTEA) < BaseRadioRTT(NRLow) &&
		BaseRadioRTT(NRLow) < BaseRadioRTT(LTE)) {
		t.Error("radio RTT ordering violated")
	}
}

func TestParseTechnology(t *testing.T) {
	for _, tech := range Technologies() {
		got, ok := ParseTechnology(tech.String())
		if !ok || got != tech {
			t.Errorf("ParseTechnology(%q) = %v, %v", tech.String(), got, ok)
		}
	}
	if _, ok := ParseTechnology("6G"); ok {
		t.Error("unknown technology accepted")
	}
}

func TestParseOperatorShort(t *testing.T) {
	for _, op := range Operators() {
		got, ok := ParseOperatorShort(op.Short())
		if !ok || got != op {
			t.Errorf("ParseOperatorShort(%q) = %v, %v", op.Short(), got, ok)
		}
	}
	if _, ok := ParseOperatorShort("X"); ok {
		t.Error("unknown operator accepted")
	}
}

// spectralFactorRef is SpectralFactor as it was before the band ceiling
// was tabulated: log2(1 + SNRCap) evaluated on every call.
func spectralFactorRef(t Technology, sinr unit.DB) float64 {
	b := Band(t)
	if sinr >= b.SNRCap {
		return 1
	}
	top := math.Log2(1 + b.SNRCap.Linear())
	cur := math.Log2(1 + math.Max(0, sinr.Linear()))
	return unit.Clamp(cur/top, 0, 1)
}

// TestCapacitiesMatchCapacity checks bit for bit that the two-direction
// Capacities equals two Capacity calls, and that the tabulated
// SpectralFactor equals the per-call formula, over a SINR grid (plus
// every band cap ± 1 ulp) × operator × technology × carrier counts.
func TestCapacitiesMatchCapacity(t *testing.T) {
	var sinrs []unit.DB
	for s := -20.0; s <= 40; s += 0.25 {
		sinrs = append(sinrs, unit.DB(s))
	}
	for _, tech := range Technologies() {
		c := float64(Band(tech).SNRCap)
		sinrs = append(sinrs, unit.DB(math.Nextafter(c, math.Inf(-1))), unit.DB(c), unit.DB(math.Nextafter(c, math.Inf(1))))
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	checks := 0
	for _, tech := range Technologies() {
		for _, s := range sinrs {
			if got, want := SpectralFactor(tech, s), spectralFactorRef(tech, s); !same(got, want) {
				t.Fatalf("SpectralFactor(%v, %v) = %v, formula %v", tech, s, got, want)
			}
		}
		for _, op := range Operators() {
			for ccDL := 0; ccDL <= 9; ccDL++ {
				for ccUL := 0; ccUL <= 3; ccUL++ {
					for _, s := range sinrs {
						for _, bl := range []float64{0, 0.05, 0.6} {
							load := 0.1 + bl
							dl, ul := Capacities(op, tech, ccDL, ccUL, s, bl, load)
							wantDL := Capacity(op, tech, Downlink, ccDL, s, bl, load)
							wantUL := Capacity(op, tech, Uplink, ccUL, s, bl, load)
							if !same(float64(dl), float64(wantDL)) || !same(float64(ul), float64(wantUL)) {
								t.Fatalf("Capacities(%v, %v, cc %d/%d, %v dB, bler %v) = %v/%v, Capacity %v/%v",
									op, tech, ccDL, ccUL, s, bl, dl, ul, wantDL, wantUL)
							}
							checks++
						}
					}
				}
			}
		}
	}
	t.Logf("%d capacity pairs checked", checks)
}
