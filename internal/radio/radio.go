// Package radio defines the cellular vocabulary of the study — operators,
// technologies, traffic directions — and the physical-layer models that
// drive the simulation: path loss and RSRP, SINR under cell load,
// MCS selection, block error rate under Doppler, and per-carrier link
// capacity with carrier aggregation.
//
// Parameter values are calibrated so the simulated joint distribution of
// (technology, RSRP, MCS, CA, BLER) → throughput reproduces the shapes the
// paper reports (see DESIGN.md §5); they are not claims about any real
// network.
package radio

import (
	"fmt"
	"math"

	"github.com/nuwins/cellwheels/internal/unit"
)

// Operator is one of the three major US carriers in the study.
type Operator int

// The study's operators, in the paper's ordering.
const (
	Verizon Operator = iota
	TMobile
	ATT
	numOperators
)

// NumOperators is the number of carriers in the study.
const NumOperators = int(numOperators)

// Operators returns all carriers in canonical order.
func Operators() []Operator { return []Operator{Verizon, TMobile, ATT} }

// String implements fmt.Stringer.
func (o Operator) String() string {
	switch o {
	case Verizon:
		return "Verizon"
	case TMobile:
		return "T-Mobile"
	case ATT:
		return "AT&T"
	default:
		return fmt.Sprintf("Operator(%d)", int(o))
	}
}

// Short returns the paper's single-letter abbreviation (V/T/A).
func (o Operator) Short() string {
	switch o {
	case Verizon:
		return "V"
	case TMobile:
		return "T"
	case ATT:
		return "A"
	default:
		return "?"
	}
}

// Technology is a radio access technology generation/band class.
type Technology int

// Technologies, oldest to fastest. The paper groups NRMid and NRMmWave as
// "high-speed 5G" (HT); everything else is low-throughput (LT).
const (
	LTE Technology = iota
	LTEA
	NRLow
	NRMid
	NRMmWave
	numTechnologies
)

// NumTechnologies is the number of technology classes.
const NumTechnologies = int(numTechnologies)

// Technologies returns all technologies, oldest first.
func Technologies() []Technology {
	return []Technology{LTE, LTEA, NRLow, NRMid, NRMmWave}
}

// String implements fmt.Stringer using the paper's labels.
func (t Technology) String() string {
	switch t {
	case LTE:
		return "LTE"
	case LTEA:
		return "LTE-A"
	case NRLow:
		return "5G-low"
	case NRMid:
		return "5G-mid"
	case NRMmWave:
		return "5G-mmWave"
	default:
		//lint:allow hotbox — diagnostic fallback for invalid values; never taken for the five real technologies
		return fmt.Sprintf("Technology(%d)", int(t))
	}
}

// ParseTechnology inverts Technology.String. It reports false for
// unknown labels.
func ParseTechnology(s string) (Technology, bool) {
	for _, t := range Technologies() {
		if t.String() == s {
			return t, true
		}
	}
	return LTE, false
}

// Is5G reports whether the technology is any NR flavor.
func (t Technology) Is5G() bool { return t >= NRLow }

// IsHighSpeed reports whether the technology is "high-speed 5G"
// (midband or mmWave) in the paper's HT/LT split (§5.4).
func (t Technology) IsHighSpeed() bool { return t == NRMid || t == NRMmWave }

// Direction is the traffic direction of a test.
type Direction int

// Traffic directions.
const (
	Downlink Direction = iota
	Uplink
	numDirections
)

// NumDirections is the number of traffic directions.
const NumDirections = int(numDirections)

// Directions returns both traffic directions.
func Directions() []Direction { return []Direction{Downlink, Uplink} }

// String implements fmt.Stringer.
func (d Direction) String() string {
	if d == Uplink {
		return "UL"
	}
	return "DL"
}

// BandProfile describes the propagation environment of a technology's
// band class.
type BandProfile struct {
	// RefRSRP is the RSRP at the 10 m reference distance, beam gain
	// excluded.
	RefRSRP unit.DBm
	// PathLossExp is the log-distance path-loss exponent.
	PathLossExp float64
	// ShadowSigma is the lognormal shadowing standard deviation in dB.
	ShadowSigma float64
	// NoiseFloor is the effective noise+interference floor the SINR is
	// computed against.
	NoiseFloor unit.DBm
	// CellRadius is the nominal serving radius of one site.
	CellRadius unit.Meters
	// SNRCap is the SINR at which the modulation tops out.
	SNRCap unit.DB
}

// Band returns the propagation profile of a technology.
func Band(t Technology) BandProfile {
	switch t {
	case NRMmWave:
		return BandProfile{RefRSRP: -55, PathLossExp: 2.9, ShadowSigma: 5.0, NoiseFloor: -102, CellRadius: 250 * unit.Meter, SNRCap: 23}
	case NRMid:
		return BandProfile{RefRSRP: -42, PathLossExp: 2.6, ShadowSigma: 4.5, NoiseFloor: -104, CellRadius: 1500 * unit.Meter, SNRCap: 22}
	case NRLow:
		return BandProfile{RefRSRP: -40, PathLossExp: 2.35, ShadowSigma: 4.0, NoiseFloor: -110, CellRadius: 2 * unit.Kilometer, SNRCap: 20}
	case LTEA:
		return BandProfile{RefRSRP: -41, PathLossExp: 2.4, ShadowSigma: 4.0, NoiseFloor: -112, CellRadius: 1300 * unit.Meter, SNRCap: 20}
	default: // LTE
		return BandProfile{RefRSRP: -41, PathLossExp: 2.45, ShadowSigma: 4.5, NoiseFloor: -113, CellRadius: 1300 * unit.Meter, SNRCap: 18}
	}
}

// BeamGain is the extra antenna gain of a technology/operator pair.
// It captures §5.5's explanation of the Verizon RSRP anomaly: in most
// cities Verizon's mmWave phased arrays use fewer, wider beams than
// AT&T's, giving lower gain and hence lower measured RSRP (-80 to -110
// dBm vs -70 to -90 dBm).
func BeamGain(op Operator, t Technology) unit.DB {
	if t != NRMmWave {
		return 0
	}
	switch op {
	case Verizon:
		return 6 // wide beams
	case ATT:
		return 16 // narrow beams
	default:
		return 11
	}
}

// RSRP computes received power at the given distance with the given
// shadowing draw and beam gain.
func RSRP(t Technology, dist unit.Meters, shadow unit.DB, beam unit.DB) unit.DBm {
	b := Band(t)
	d := math.Max(float64(dist), 10)
	pl := 10 * b.PathLossExp * math.Log10(d/10)
	return b.RefRSRP + unit.DBm(beam) - unit.DBm(pl) + unit.DBm(shadow)
}

// SINR computes the effective signal-to-interference-plus-noise ratio for
// a given RSRP and cell load. Load raises the interference floor: a fully
// loaded neighborhood costs about 8 dB.
func SINR(t Technology, rsrp unit.DBm, load float64) unit.DB {
	b := Band(t)
	loadPenalty := 10 * unit.Clamp(load, 0, 1)
	return unit.DB(float64(rsrp-b.NoiseFloor) - loadPenalty)
}

// MaxMCS is the highest modulation-and-coding-scheme index, per 3GPP
// tables.
const MaxMCS = 28

// MCSFromSINR maps SINR to an MCS index in [0, MaxMCS]. The mapping is
// linear across the usable range −5..+25 dB, which approximates the
// standard CQI→MCS tables closely enough for distribution-level analysis.
func MCSFromSINR(sinr unit.DB) int {
	idx := (float64(sinr) + 5) / 30 * MaxMCS
	return int(unit.Clamp(math.Round(idx), 0, MaxMCS))
}

// SpectralFactor reports the fraction of a technology's peak rate
// achievable at the given SINR, via Shannon capacity normalized to the
// band's SNR cap.
func SpectralFactor(t Technology, sinr unit.DB) float64 {
	if sinr >= Band(t).SNRCap {
		return 1
	}
	cur := math.Log2(1 + math.Max(0, sinr.Linear()))
	return unit.Clamp(cur/spectralTop[t], 0, 1)
}

// spectralTop holds each band's Shannon ceiling log2(1 + SNRCap), the
// denominator of SpectralFactor. It is built once with the very
// expression SpectralFactor used to evaluate per call, so every value is
// bit-identical to the per-call one.
var spectralTop = func() (top [NumTechnologies]float64) {
	for t := range top {
		top[t] = math.Log2(1 + Band(Technology(t)).SNRCap.Linear())
	}
	return top
}()

// BLER models the residual block error rate: a floor from imperfect link
// adaptation, a Doppler term growing with vehicle speed, a burst term
// supplied by the caller for fading events, and an idiosyncratic
// component (noise, in [0,1)) from scheduling and HARQ dynamics that is
// uncorrelated with everything else — the reason the paper finds almost
// no correlation between reported BLER and throughput (Table 2).
func BLER(speedMPH, burst, noise float64) float64 {
	base := 0.012
	doppler := 0.0008 * math.Max(0, speedMPH)
	idio := 0.09 * noise
	return unit.Clamp(base+doppler+burst+idio, 0, 0.6)
}

// LinkProfile is the capacity envelope of an (operator, technology,
// direction) combination.
type LinkProfile struct {
	// PeakPerCC is the peak rate of one component carrier at top MCS.
	PeakPerCC unit.BitRate
	// MaxCC is the maximum number of aggregated component carriers.
	MaxCC int
}

// CAFactor is the capacity multiplier of carrier aggregation: the primary
// carrier plus secondaries at 75% weight (secondary carriers are usually
// on less favourable spectrum).
func CAFactor(cc int) float64 {
	if cc < 1 {
		cc = 1
	}
	return 1 + 0.75*float64(cc-1)
}

// linkTable holds per-(operator, technology, direction) envelopes, indexed
// directly: Link sits on the per-tick path.
// Values are calibrated to the paper's static medians and driving maxima
// (DESIGN.md §5): e.g. Verizon mmWave DL up to ~2.9 Gbps aggregate,
// T-Mobile's midband clearly superior to the other two carriers' midband,
// AT&T's LTE-A the strongest 4G.
var linkTable = [NumOperators][NumTechnologies][NumDirections]LinkProfile{
	Verizon: {
		LTE:      {{70 * unit.Mbps, 1}, {22 * unit.Mbps, 1}},
		LTEA:     {{120 * unit.Mbps, 3}, {42 * unit.Mbps, 1}},
		NRLow:    {{130 * unit.Mbps, 2}, {55 * unit.Mbps, 1}},
		NRMid:    {{250 * unit.Mbps, 2}, {85 * unit.Mbps, 2}},
		NRMmWave: {{550 * unit.Mbps, 8}, {240 * unit.Mbps, 2}},
	},
	TMobile: {
		LTE:      {{65 * unit.Mbps, 1}, {20 * unit.Mbps, 1}},
		LTEA:     {{110 * unit.Mbps, 3}, {38 * unit.Mbps, 1}},
		NRLow:    {{150 * unit.Mbps, 2}, {65 * unit.Mbps, 1}},
		NRMid:    {{400 * unit.Mbps, 2}, {70 * unit.Mbps, 2}},
		NRMmWave: {{340 * unit.Mbps, 8}, {150 * unit.Mbps, 2}},
	},
	ATT: {
		LTE:      {{90 * unit.Mbps, 1}, {26 * unit.Mbps, 1}},
		LTEA:     {{150 * unit.Mbps, 3}, {50 * unit.Mbps, 1}},
		NRLow:    {{140 * unit.Mbps, 2}, {52 * unit.Mbps, 1}},
		NRMid:    {{240 * unit.Mbps, 2}, {78 * unit.Mbps, 2}},
		NRMmWave: {{330 * unit.Mbps, 8}, {120 * unit.Mbps, 2}},
	},
}

// Link returns the capacity envelope for an operator, technology, and
// direction.
func Link(op Operator, t Technology, d Direction) LinkProfile {
	return linkTable[op][t][d]
}

// Capacity computes the instantaneous usable link rate for a serving
// configuration: the per-CC peak scaled by aggregation, spectral
// efficiency at the current SINR, residual BLER, and the share of the
// cell not consumed by background load.
//
//lint:hotroot — evaluated per tick per active instrument (often twice, up/down)
func Capacity(op Operator, t Technology, dir Direction, cc int, sinr unit.DB, bler, load float64) unit.BitRate {
	return capacity(Link(op, t, dir), cc, SpectralFactor(t, sinr), bler, load)
}

// Capacities is Capacity for both directions of one serving link at once:
// the two differ only in their link envelope and carrier count, so the
// spectral factor is evaluated once. Each result is bit-identical to the
// corresponding Capacity call.
func Capacities(op Operator, t Technology, ccDL, ccUL int, sinr unit.DB, bler, load float64) (dl, ul unit.BitRate) {
	sf := SpectralFactor(t, sinr)
	return capacity(Link(op, t, Downlink), ccDL, sf, bler, load),
		capacity(Link(op, t, Uplink), ccUL, sf, bler, load)
}

// capacity scales a link envelope by aggregation, spectral factor sf,
// residual BLER and background load.
func capacity(p LinkProfile, cc int, sf, bler, load float64) unit.BitRate {
	if cc > p.MaxCC {
		cc = p.MaxCC
	}
	rate := float64(p.PeakPerCC) * CAFactor(cc) * sf
	rate *= (1 - unit.Clamp(bler, 0, 1))
	rate *= (1 - 0.85*unit.Clamp(load, 0, 1))
	if rate < 0 {
		rate = 0
	}
	return unit.BitRate(rate)
}

// BaseRadioRTT is the access-network latency contribution of a
// technology: the air-interface plus RAN processing delay, before any
// transport queueing or internet path.
func BaseRadioRTT(t Technology) float64 {
	switch t {
	case NRMmWave:
		return 8 // ms
	case NRMid:
		return 14
	case NRLow:
		return 22
	case LTEA:
		return 18
	default:
		return 24
	}
}
