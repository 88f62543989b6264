package ran

import (
	"testing"

	"github.com/nuwins/cellwheels/internal/deploy"
	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/simrand"
)

// BenchmarkUEStep measures one RAN tick of a moving UE: coverage lookup,
// the A3 handover scan over neighbouring cells, and the serving link's
// capacity. The drive states are precomputed so only UE.Step is timed;
// when they run out the UE restarts from the first state.
func BenchmarkUEStep(b *testing.B) {
	route := geo.DefaultRoute()
	rng := simrand.New(3)
	m := deploy.NewMap(radio.Verizon, route, rng)
	drive := geo.NewDrive(route, geo.DefaultDriveConfig(), rng)
	states := make([]geo.DriveState, 40000) // about an hour of driving
	for i := range states {
		states[i] = drive.Step(tick)
	}
	ue := NewUE(UEConfig{Op: radio.Verizon, Map: m}, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(states)
		if j == 0 && i > 0 {
			b.StopTimer()
			ue = NewUE(UEConfig{Op: radio.Verizon, Map: m}, rng)
			b.StartTimer()
		}
		ds := states[j]
		ue.Step(ds.Time, ds.Waypoint, ds.Speed.MPH(), tick)
	}
}
