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
