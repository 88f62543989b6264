package ran

import (
	"testing"
	"time"

	"github.com/nuwins/cellwheels/internal/deploy"
	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/simrand"
)

// TestStepSteadyStateAllocs pins the hotalloc fixes on the per-tick RAN
// path: once a stationary UE has seen its serving cell (cellsSeen, the
// lazy OU load process, and the CA state are warm), Step must not
// allocate — hashNormal's inlined FNV, the UE-owned shadowing memo,
// drawCC's stack-array weights, and the closure-free deploy searches are
// what this guards.
func TestStepSteadyStateAllocs(t *testing.T) {
	route := geo.DefaultRoute()
	rng := simrand.New(11)
	m := deploy.NewMap(radio.Verizon, route, rng)
	ue := NewUE(UEConfig{Op: radio.Verizon, Map: m}, rng)

	now := time.Date(2022, 8, 12, 9, 0, 0, 0, time.UTC)
	wp := route.At(5 * 1000) // parked 5 km along the route
	for i := 0; i < 400; i++ {
		ue.Step(now, wp, 0, tick)
		now = now.Add(tick)
	}

	avg := testing.AllocsPerRun(500, func() {
		ue.Step(now, wp, 0, tick)
		now = now.Add(tick)
	})
	if avg != 0 {
		t.Errorf("steady-state UE.Step allocates %.2f objects per tick, want 0", avg)
	}
}

// TestMovingStepAllocs is the same guard for a UE on the move: over a
// stretch of driving without a handover, Step (the bounded A3 scan and
// its quiet-bucket certificate, shadow memo refills at bucket edges, the
// coverage span cache) must not allocate either, and neither may Move,
// the mobility half alone. A scouting UE finds the first such stretch
// after ten minutes of driving; identical UEs replay the drive up to it.
func TestMovingStepAllocs(t *testing.T) {
	const runs = 300
	warm := int(10 * time.Minute / tick)
	scout, drive := testUE(t, radio.Verizon, 11)
	var states []geo.DriveState
	quiet, hos := 0, 0 // first tick of the current handover-free run; handovers before it
	for i := 0; i-quiet < runs+1; i++ {
		if i == int(3*time.Hour/tick) {
			t.Fatalf("no stretch of %d moving ticks without a handover", runs+1)
		}
		ds := drive.Step(tick)
		states = append(states, ds)
		n := scout.HandoverCount()
		scout.Step(ds.Time, ds.Waypoint, ds.Speed.MPH(), tick)
		if i < warm || ds.Speed == 0 || scout.HandoverCount() != n {
			quiet, hos = i+1, scout.HandoverCount()
		}
	}

	for _, c := range []struct {
		name string
		step func(*UE, geo.DriveState)
	}{
		{"Step", step},
		{"Move", move},
	} {
		ue, _ := testUE(t, radio.Verizon, 11)
		for _, ds := range states[:quiet] {
			c.step(ue, ds)
		}
		if ue.HandoverCount() != hos {
			t.Fatalf("%s replay reached the stretch after %d handovers, scout after %d", c.name, ue.HandoverCount(), hos)
		}
		next := quiet
		avg := testing.AllocsPerRun(runs, func() {
			c.step(ue, states[next])
			next++
		})
		if avg != 0 {
			t.Errorf("moving UE.%s allocates %.2f objects per tick, want 0", c.name, avg)
		}
	}
}
