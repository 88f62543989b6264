package ue

import (
	"fmt"
	"testing"
	"time"

	"github.com/nuwins/cellwheels/internal/deploy"
	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/simrand"
	"github.com/nuwins/cellwheels/internal/unit"
)

// BenchmarkCrowdStep measures the cost of advancing an attached-but-idle
// crowd 1000 ticks (50 simulated seconds). The dwell means are set far
// past the measured window, so attached UEs generate no events at all:
// ns/op should be nearly flat across the 10× difference in UE count —
// idle UEs cost nothing per tick, only events cost. The repo benchmark's
// ue.crowd_overhead_s metric tracks the crowd's cost inside a fleet.
func BenchmarkCrowdStep(b *testing.B) {
	route := geo.DefaultRoute()
	m := deploy.NewMap(radio.Verizon, route, simrand.New(7))
	for _, size := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("ues=%d", size), func(b *testing.B) {
			r := NewRegistry(Config{
				Op: radio.Verizon, Map: m, Route: route,
				Size: size, Span: 100 * unit.Kilometer, Seed: 13,
				HorizonTicks: 1 << 40,
				SessionMean:  10_000 * time.Hour, ActiveMean: 10_000 * time.Hour,
				ReselectMean: 10_000 * time.Hour, DetachMean: 100_000 * time.Hour,
			})
			now := time.Date(2022, 8, 12, 9, 0, 0, 0, time.UTC)
			// Drain the attach window first so the steady state, not the
			// one-time attach burst, is what gets measured.
			for i := 0; i < 1200; i++ {
				r.Advance(now)
				now = now.Add(50 * time.Millisecond)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < 1000; j++ {
					r.Advance(now)
					now = now.Add(50 * time.Millisecond)
				}
			}
		})
	}
}

// BenchmarkCrowdLive measures a live crowd end to end: one op builds a
// fresh 10k-UE registry with the default dwell means (sessions,
// reselections, detaches and re-attaches all firing) and advances it over
// the 61,278 ticks of a 20 km campaign, the crowd shape of the repo
// benchmark's fleet-sync runs. Where BenchmarkCrowdStep shows that idle
// UEs cost nothing, this is the per-event cost: about a million events
// per op.
func BenchmarkCrowdLive(b *testing.B) {
	const ticks = 61_278
	route := geo.DefaultRoute()
	m := deploy.NewMap(radio.Verizon, route, simrand.New(7))
	b.ReportAllocs()
	var events int64
	for i := 0; i < b.N; i++ {
		r := NewRegistry(Config{
			Op: radio.Verizon, Map: m, Route: route,
			Size: 10_000, Span: 20 * unit.Kilometer, Seed: 13,
			HorizonTicks: ticks,
		})
		now := time.Date(2022, 8, 12, 9, 0, 0, 0, time.UTC)
		for j := 0; j < ticks; j++ {
			r.Advance(now)
			now = now.Add(50 * time.Millisecond)
		}
		events = r.processed
	}
	b.ReportMetric(float64(events), "events/op")
}
