package transport

import (
	"time"

	"github.com/nuwins/cellwheels/internal/simrand"
	"github.com/nuwins/cellwheels/internal/unit"
)

// Bond is an MPTCP-style multi-connectivity transfer over several
// cellular paths at once — the solution the paper recommends smartphone
// vendors explore (§8-(2), citing RAVEN and 5G link aggregation over
// MPTCP). Each path runs its own congestion-controlled subflow; the
// receiver reassembles in order, so goodput is the sum of subflow
// deliveries discounted by a head-of-line penalty that grows with the
// RTT spread between the paths.
type Bond struct {
	flows []*Flow
}

// NewBond creates a bond with one subflow per path.
func NewBond(paths int, rng *simrand.Source, opts Options) *Bond {
	b := &Bond{}
	for i := 0; i < paths; i++ {
		b.flows = append(b.flows, NewFlowOptions(rng.Fork(pathName(i)), opts))
	}
	return b
}

func pathName(i int) string {
	return "mptcp/path" + string(rune('0'+i%10))
}

// BondResult reports one tick of the bond.
type BondResult struct {
	// Delivered is the in-order goodput this tick, after the
	// reassembly discount.
	Delivered unit.Bytes
	// PerPath is each subflow's raw delivery.
	PerPath []unit.Bytes
	// Efficiency is the reassembly factor applied this tick, in (0, 1].
	Efficiency float64
}

// Step advances every subflow by dt. The slices must have one entry per
// path; missing entries are treated as dead paths.
func (b *Bond) Step(dt time.Duration, capacities []unit.BitRate, baseRTTs []time.Duration, extraLoss []float64) BondResult {
	res := BondResult{PerPath: make([]unit.Bytes, len(b.flows)), Efficiency: 1}
	var total unit.Bytes
	minRTT, maxRTT := time.Duration(1<<62), time.Duration(0)
	active := 0
	for i, f := range b.flows {
		var c unit.BitRate
		var rtt time.Duration = 50 * time.Millisecond
		var loss float64
		if i < len(capacities) {
			c = capacities[i]
		}
		if i < len(baseRTTs) {
			rtt = baseRTTs[i]
		}
		if i < len(extraLoss) {
			loss = extraLoss[i]
		}
		r := f.Step(dt, c, rtt, loss)
		res.PerPath[i] = r.Delivered
		total += r.Delivered
		if r.Delivered > 0 {
			active++
			if r.RTT < minRTT {
				minRTT = r.RTT
			}
			if r.RTT > maxRTT {
				maxRTT = r.RTT
			}
		}
	}
	if active > 1 && maxRTT > 0 {
		// Head-of-line blocking at the reassembly buffer: a path whose
		// RTT is far above the fastest path's delays in-order delivery.
		spread := float64(maxRTT-minRTT) / float64(maxRTT)
		res.Efficiency = 1 - 0.3*spread
	}
	res.Delivered = unit.Bytes(float64(total) * res.Efficiency)
	return res
}
