package ran

import (
	"math"
	"testing"
	"time"

	"github.com/nuwins/cellwheels/internal/deploy"
	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/simrand"
	"github.com/nuwins/cellwheels/internal/ue"
	"github.com/nuwins/cellwheels/internal/unit"
)

// sameLinkBits reports whether two link states agree bit for bit.
func sameLinkBits(a, b LinkState) bool {
	bits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.Time.Equal(b.Time) && a.Tech == b.Tech && a.CellID == b.CellID &&
		a.MCS == b.MCS && a.CCDL == b.CCDL && a.CCUL == b.CCUL && a.InHandover == b.InHandover &&
		bits(float64(a.RSRP), float64(b.RSRP)) && bits(float64(a.SINR), float64(b.SINR)) &&
		bits(a.BLER, b.BLER) && bits(a.Load, b.Load) &&
		bits(float64(a.CapacityDL), float64(b.CapacityDL)) && bits(float64(a.CapacityUL), float64(b.CapacityUL))
}

// TestA3BoundMatchesExhaustiveScan drives, per operator, a UE with the
// bounded A3 scan and a reference UE with the exhaustive one through the
// same 300 km: traffic cycling through idle, heavy downlink and heavy
// uplink, a static hold every twenty minutes, and for T-Mobile a
// demand-driven crowd load backend. At every tick the two link states
// must agree bit for bit, and so must the handover logs.
func TestA3BoundMatchesExhaustiveScan(t *testing.T) {
	const (
		limit     = 300 * unit.Kilometer
		holdEvery = 20 * time.Minute / tick
		holdFor   = 3 * time.Minute / tick
		trafficAt = 90 * time.Second / tick
	)
	traffic := []deploy.Traffic{deploy.HeavyDL, deploy.Idle, deploy.HeavyUL, deploy.HeavyDL, deploy.Idle}
	route := geo.DefaultRoute()
	for _, op := range radio.Operators() {
		rng := simrand.New(31 + int64(op))
		m := deploy.NewMap(op, route, rng)
		var reg *ue.Registry
		cfg := UEConfig{Op: op, Map: m}
		if op == radio.TMobile {
			reg = ue.NewRegistry(ue.Config{Op: op, Map: m, Route: route, Size: 2000, Span: limit, Seed: 5, Tick: tick, HorizonTicks: 1 << 20})
			cfg.Load = reg
		}
		bounded := NewUE(cfg, rng.Fork("ue"))
		ref := NewUE(cfg, rng.Fork("ue"))
		ref.fullScan = true
		drive := geo.NewDrive(route, geo.DefaultDriveConfig(), rng.Fork("drive"))

		var lag time.Duration // simulated time spent in static holds
		var held, staticTicks, hoSeen int
		ds := drive.State()
		for i := 0; ds.Waypoint.Odometer < limit; i++ {
			hold := i%int(holdEvery) >= int(holdEvery-holdFor)
			if hold != bounded.staticMode {
				bounded.SetStaticMode(hold)
				ref.SetStaticMode(hold)
				if hold {
					held++
				}
			}
			if hold {
				lag += tick
				staticTicks++
			} else {
				ds = drive.Step(tick)
			}
			now := ds.Time.Add(lag)
			speed := ds.Speed.MPH()
			if hold {
				speed = 0
			}
			if i%int(trafficAt) == 0 {
				tr := traffic[(i/int(trafficAt))%len(traffic)]
				bounded.SetTraffic(tr, now, ds.Waypoint)
				ref.SetTraffic(tr, now, ds.Waypoint)
			}
			if reg != nil {
				reg.Advance(now)
			}
			got := bounded.Step(now, ds.Waypoint, speed, tick)
			want := ref.Step(now, ds.Waypoint, speed, tick)
			if !sameLinkBits(got, want) {
				t.Fatalf("%v tick %d (odometer %v): bounded scan %+v, exhaustive %+v", op, i, ds.Waypoint.Odometer, got, want)
			}
			if bounded.HandoverCount() != ref.HandoverCount() {
				t.Fatalf("%v tick %d: %d handovers, exhaustive %d", op, i, bounded.HandoverCount(), ref.HandoverCount())
			}
			if n := bounded.HandoverCount(); n > hoSeen {
				refNew := ref.HandoversFrom(hoSeen)
				for j, e := range bounded.HandoversFrom(hoSeen) {
					if e != refNew[j] {
						t.Fatalf("%v handover %d: bounded %+v, exhaustive %+v", op, hoSeen+j, e, refNew[j])
					}
				}
				hoSeen = n
			}
		}
		if bounded.UniqueCells() != ref.UniqueCells() {
			t.Errorf("%v: %d unique cells, exhaustive %d", op, bounded.UniqueCells(), ref.UniqueCells())
		}
		if held < 3 || hoSeen < 100 {
			t.Errorf("%v: %d static holds and %d handovers; the drive does not exercise the scan", op, held, hoSeen)
		}
		t.Logf("%v: %d handovers, %d static holds (%d ticks)", op, hoSeen, held, staticTicks)
	}
}

// TestBucketBoundCoversBucket checks the A3 bound directly: for cells
// around a stretch of route, the exact RSRP at odometers spread across
// each shadow bucket, including both edges ± 1 ulp, never exceeds the
// memo slot's bound.
func TestBucketBoundCoversBucket(t *testing.T) {
	u, _ := testUE(t, radio.Verizon, 12)
	m := u.cfg.Map
	checks := 0
	for bucket := int64(2000); bucket < 2400; bucket++ {
		lo, hi := float64(bucket)*float64(shadowBucket), float64(bucket+1)*float64(shadowBucket)
		odos := []float64{lo, math.Nextafter(lo, math.Inf(1)), math.Nextafter(hi, math.Inf(-1)), hi}
		for k := 1; k < 16; k++ {
			odos = append(odos, lo+float64(k)*(hi-lo)/16)
		}
		for _, tech := range radio.Technologies() {
			cl, ch := m.CellRange(unit.Meters(lo), tech, 3*radio.Band(tech).CellRadius)
			for j := cl; j < ch; j++ {
				c := m.CellAt(tech, j)
				for _, odo := range odos {
					o := unit.Meters(odo)
					b := int64(o / shadowBucket)
					if r, bound := float64(u.rsrpOf(c, o)), u.shadowSlot(c, b).bound; r > bound {
						t.Fatalf("%s at %v (bucket %d): RSRP %v above bound %v", c.ID, o, b, r, bound)
					}
					checks++
				}
			}
		}
	}
	t.Logf("%d (cell, odometer) pairs checked", checks)
}
