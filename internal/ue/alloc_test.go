package ue

import (
	"testing"
	"time"

	"github.com/nuwins/cellwheels/internal/deploy"
	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/simrand"
	"github.com/nuwins/cellwheels/internal/unit"
)

// TestAdvanceSteadyStateAllocs pins the crowd tick's allocation profile
// with a live event mix (sessions, reselections, detaches all enabled):
// after the attach burst drains and the wheel's bucket pool and shard
// slices have grown to steady state, Advance must average well under one
// allocation per tick. The wheel's bucket recycling, the allocation-free
// sort of each bucket's keys, and the pointer-passed chooser are what
// this guards — before those fixes every non-empty tick allocated.
func TestAdvanceSteadyStateAllocs(t *testing.T) {
	route := geo.DefaultRoute()
	m := deploy.NewMap(radio.TMobile, route, simrand.New(7))
	// Dwell means are shortened so the whole event mix lands inside the
	// wheel's 410 s ring horizon: the recycling pool serves ring buckets,
	// and events past the horizon go through the far-overflow map, which
	// allocates by design (rarely, amortized) and isn't what this pins.
	r := NewRegistry(Config{
		Op: radio.TMobile, Map: m, Route: route,
		Size: 5000, Span: 100 * unit.Kilometer, Seed: 21,
		HorizonTicks: 1 << 40,
		SessionMean:  20 * time.Second,
		ActiveMean:   8 * time.Second,
		ReselectMean: 45 * time.Second,
		DetachMean:   90 * time.Second,
		ReattachMean: 30 * time.Second,
	})
	now := time.Date(2022, 8, 12, 9, 0, 0, 0, time.UTC)
	// Drain the attach window and let dwell processes reach steady state.
	for i := 0; i < 5000; i++ {
		r.Advance(now)
		now = now.Add(50 * time.Millisecond)
	}

	avg := testing.AllocsPerRun(5000, func() {
		r.Advance(now)
		now = now.Add(50 * time.Millisecond)
	})
	// The budget is an average over live ticks, not zero: far-map appends
	// and occasional bucket growth beyond a spare's capacity still
	// allocate, amortized. The pre-fix engine sat at 3+ per tick
	// (comparator closure and slice-header boxing on every sorted bucket,
	// fresh ring buckets every epoch).
	if avg > 0.2 {
		t.Errorf("steady-state Advance averages %.3f allocs per tick, want <= 0.2", avg)
	}
}
