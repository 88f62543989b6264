package geo

import (
	"testing"
	"time"

	"github.com/nuwins/cellwheels/internal/simrand"
	"github.com/nuwins/cellwheels/internal/unit"
)

// waypointSink keeps the compiler from discarding the benchmarked calls.
var waypointSink Waypoint

// BenchmarkRouteAt measures one odometer → Waypoint lookup, the geo work
// of every drive tick. The odometers stride the whole route so every
// city neighbourhood and highway stretch is sampled.
func BenchmarkRouteAt(b *testing.B) {
	r := DefaultRoute()
	const stride = 7919 * unit.Meter
	odo := unit.Meters(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		waypointSink = r.At(odo)
		odo += stride
		if odo > r.Total() {
			odo -= r.Total()
		}
	}
}

// BenchmarkOdometerOf measures joining one GPS fix to the route, the
// per-row geo work of the log merge: points on the route, as the XCAL
// rows carry, and points jittered a few km off it.
func BenchmarkOdometerOf(b *testing.B) {
	r := DefaultRoute()
	rng := simrand.New(3).Fork("bench/odometer")
	on := make([]LatLon, 4096)
	off := make([]LatLon, len(on))
	for i := range on {
		on[i] = r.At(unit.Meters(rng.Uniform(0, float64(r.Total())))).Loc
		off[i] = LatLon{Lat: on[i].Lat + rng.Uniform(-0.04, 0.04), Lon: on[i].Lon + rng.Uniform(-0.04, 0.04)}
	}
	for _, c := range []struct {
		name string
		pts  []LatLon
	}{{"on", on}, {"off", off}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				odometerSink = r.OdometerOf(c.pts[i%len(c.pts)])
			}
		})
	}
}

// odometerSink keeps the compiler from discarding the benchmarked calls.
var odometerSink unit.Meters

// BenchmarkTimelineScan measures counting the full 5,711 km drive
// timeline at the campaign's 50 ms tick: one Drive stepped end to end by
// Timeline.Ticks, the horizon count a crowd campaign makes before its
// lanes run. The campaign's block producer steps the drive the same way.
func BenchmarkTimelineScan(b *testing.B) {
	r := DefaultRoute()
	ticks := 0
	for i := 0; i < b.N; i++ {
		tl := NewTimeline(r, DriveConfig{}, simrand.New(1), TimelineConfig{
			Tick: 50 * time.Millisecond,
			Hold: HoldRule{MaxCityDistance: 8 * unit.Kilometer, Budget: 2 * time.Minute},
		})
		ticks += tl.Ticks()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ticks), "ns/tick")
}

// tickSink is the block slot BenchmarkCursorNext fills.
var tickSink TickState

// BenchmarkCursorNext measures one tick of the campaign's drive pass:
// Cursor.Next over the full 5,711 km timeline at the 50 ms tick, with
// the campaign's static holds, filling a block slot in place as the
// block producer does. A cursor that reaches the trip's end is replaced
// by a fresh one, outside the timer.
func BenchmarkCursorNext(b *testing.B) {
	tl := NewTimeline(DefaultRoute(), DriveConfig{}, simrand.New(1), TimelineConfig{
		Tick: 50 * time.Millisecond,
		Hold: HoldRule{MaxCityDistance: 8 * unit.Kilometer, Budget: 2 * time.Minute},
	})
	cur := tl.Cursor()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !cur.NextInto(&tickSink) {
			b.StopTimer()
			cur = tl.Cursor()
			b.StartTimer()
		}
	}
}
