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
