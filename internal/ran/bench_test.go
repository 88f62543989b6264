package ran

import (
	"testing"
	"time"

	"github.com/nuwins/cellwheels/internal/deploy"
	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/simrand"
	"github.com/nuwins/cellwheels/internal/unit"
)

// BenchmarkUEStep measures one RAN tick: coverage lookup, the A3 handover
// scan over neighbouring cells, and the serving link's capacity. The
// drive states are precomputed so only the UE is timed; when they run
// out the UE restarts from the first state.
//
//   - moving: an idle Verizon UE on an hour of the paper's drive.
//   - track: the same UE and hour under Move, the mobility half alone,
//     as the passive handover logger steps it.
//   - mmwave: a heavy-downlink Verizon UE crawling at 10 mph through the
//     longest mmWave fragment, where cells are densest and the A3 scan
//     sees the most neighbours.
func BenchmarkUEStep(b *testing.B) {
	route := geo.DefaultRoute()
	rng := simrand.New(3)
	m := deploy.NewMap(radio.Verizon, route, rng)

	drive := geo.NewDrive(route, geo.DefaultDriveConfig(), rng)
	hour := make([]geo.DriveState, 40000) // about an hour of driving
	for i := range hour {
		hour[i] = drive.Step(tick)
	}
	b.Run("moving", func(b *testing.B) {
		benchSteps(b, m, rng, deploy.Idle, hour, step)
	})
	b.Run("track", func(b *testing.B) {
		benchSteps(b, m, rng, deploy.Idle, hour, move)
	})

	b.Run("mmwave", func(b *testing.B) {
		var frag deploy.Fragment
		for _, f := range m.Fragments(radio.NRMmWave) {
			if f.Len() > frag.Len() {
				frag = f
			}
		}
		speed := unit.SpeedFromMPH(10)
		start := time.Date(2022, 8, 10, 12, 0, 0, 0, time.UTC)
		var states []geo.DriveState
		for odo := frag.Start; odo < frag.End; odo += unit.Meters(float64(speed) * tick.Seconds()) {
			states = append(states, geo.DriveState{
				Time:     start.Add(time.Duration(len(states)) * tick),
				Odometer: odo,
				Speed:    speed,
				Waypoint: route.At(odo),
			})
		}
		benchSteps(b, m, rng, deploy.HeavyDL, states, step)
	})
}

// step is one full UE.Step tick, and move one mobility-only UE.Move tick.
func step(ue *UE, ds geo.DriveState) { ue.Step(ds.Time, ds.Waypoint, ds.Speed.MPH(), tick) }
func move(ue *UE, ds geo.DriveState) { ue.Move(ds.Time, ds.Waypoint) }

// benchSteps times advance over states on traffic tr, restarting with a
// fresh UE whenever the states run out.
func benchSteps(b *testing.B, m *deploy.Map, rng *simrand.Source, tr deploy.Traffic, states []geo.DriveState, advance func(*UE, geo.DriveState)) {
	fresh := func() *UE {
		ue := NewUE(UEConfig{Op: m.Op, Map: m}, rng)
		ue.SetTraffic(tr, states[0].Time, states[0].Waypoint)
		return ue
	}
	ue := fresh()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(states)
		if j == 0 && i > 0 {
			b.StopTimer()
			ue = fresh()
			b.StartTimer()
		}
		advance(ue, states[j])
	}
}
