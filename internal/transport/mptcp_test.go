package transport

import (
	"testing"
	"time"

	"github.com/nuwins/cellwheels/internal/simrand"
	"github.com/nuwins/cellwheels/internal/unit"
)

// runBond drives a bond over constant per-path links for span and
// reports mean goodput.
func runBond(b *Bond, caps []unit.BitRate, rtts []time.Duration, span time.Duration) unit.BitRate {
	loss := make([]float64, len(caps))
	var total unit.Bytes
	for elapsed := time.Duration(0); elapsed < span; elapsed += tick {
		total += b.Step(tick, caps, rtts, loss).Delivered
	}
	return total.RateOver(span)
}

func TestBondAggregatesPaths(t *testing.T) {
	single := runFlow(NewFlow(simrand.New(1)), 30*unit.Mbps, 50*time.Millisecond, 20*time.Second)
	bond := NewBond(3, simrand.New(1), Options{})
	caps := []unit.BitRate{30 * unit.Mbps, 30 * unit.Mbps, 30 * unit.Mbps}
	rtts := []time.Duration{50 * time.Millisecond, 50 * time.Millisecond, 50 * time.Millisecond}
	got := runBond(bond, caps, rtts, 20*time.Second)
	if got < 2*single {
		t.Errorf("bonded goodput %v not well above single %v", got, single)
	}
	if got > 90*unit.Mbps {
		t.Errorf("bonded goodput %v exceeds total capacity", got)
	}
}

func TestBondSurvivesOnePathDying(t *testing.T) {
	bond := NewBond(2, simrand.New(2), Options{})
	caps := []unit.BitRate{40 * unit.Mbps, 40 * unit.Mbps}
	rtts := []time.Duration{40 * time.Millisecond, 40 * time.Millisecond}
	runBond(bond, caps, rtts, 10*time.Second)
	// Kill path 1; the bond keeps delivering on path 0.
	caps[1] = 0
	got := runBond(bond, caps, rtts, 10*time.Second)
	if got < 15*unit.Mbps {
		t.Errorf("goodput with one dead path = %v", got)
	}
}

func TestBondHoLPenaltyOnAsymmetricRTTs(t *testing.T) {
	even := NewBond(2, simrand.New(3), Options{})
	caps := []unit.BitRate{40 * unit.Mbps, 40 * unit.Mbps}
	sym := runBond(even, caps, []time.Duration{40 * time.Millisecond, 40 * time.Millisecond}, 15*time.Second)

	skewed := NewBond(2, simrand.New(3), Options{})
	asym := runBond(skewed, caps, []time.Duration{20 * time.Millisecond, 400 * time.Millisecond}, 15*time.Second)
	if asym >= sym {
		t.Errorf("asymmetric-RTT bond %v not below symmetric %v", asym, sym)
	}
}

func TestBondEfficiencyBounds(t *testing.T) {
	bond := NewBond(3, simrand.New(4), Options{})
	caps := []unit.BitRate{10 * unit.Mbps, 50 * unit.Mbps, 100 * unit.Mbps}
	rtts := []time.Duration{20 * time.Millisecond, 60 * time.Millisecond, 200 * time.Millisecond}
	for i := 0; i < 2000; i++ {
		r := bond.Step(tick, caps, rtts, nil)
		if r.Efficiency <= 0.5 || r.Efficiency > 1 {
			t.Fatalf("efficiency %v out of (0.5, 1]", r.Efficiency)
		}
		var sum unit.Bytes
		for _, p := range r.PerPath {
			sum += p
		}
		if r.Delivered > sum {
			t.Fatal("delivered above raw per-path sum")
		}
	}
}

func TestBondShortSlices(t *testing.T) {
	// Fewer capacity entries than paths: missing paths are dead, not a
	// panic.
	bond := NewBond(3, simrand.New(5), Options{})
	r := bond.Step(tick, []unit.BitRate{10 * unit.Mbps}, nil, nil)
	if len(r.PerPath) != 3 {
		t.Fatalf("per-path len = %d", len(r.PerPath))
	}
	if r.PerPath[1] != 0 || r.PerPath[2] != 0 {
		t.Error("dead paths delivered")
	}
}

func TestBondPaths(t *testing.T) {
	if got := len(NewBond(4, simrand.New(6), Options{}).flows); got != 4 {
		t.Errorf("subflows = %d", got)
	}
}

func TestBondDeterministic(t *testing.T) {
	run := func() unit.BitRate {
		b := NewBond(2, simrand.New(7), Options{})
		return runBond(b,
			[]unit.BitRate{25 * unit.Mbps, 35 * unit.Mbps},
			[]time.Duration{40 * time.Millisecond, 70 * time.Millisecond},
			10*time.Second)
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed diverged: %v vs %v", a, b)
	}
}
