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

// a3Drive is one operator's 300 km test drive for a pair of UEs built
// from the same seed: traffic cycling through idle, heavy downlink and
// heavy uplink, a static hold every twenty minutes, and for T-Mobile a
// demand-driven crowd load backend. It sets both UEs' traffic and static
// mode and calls step once per tick, after the crowd has advanced. It
// reports the number of static holds.
func a3Drive(t *testing.T, op radio.Operator, step func(i int, a, b *UE, wp geo.Waypoint, now time.Time, speed float64)) (a, b *UE, held int) {
	t.Helper()
	const (
		limit     = 300 * unit.Kilometer
		holdEvery = 20 * time.Minute / tick
		holdFor   = 3 * time.Minute / tick
		trafficAt = 90 * time.Second / tick
	)
	traffic := []deploy.Traffic{deploy.HeavyDL, deploy.Idle, deploy.HeavyUL, deploy.HeavyDL, deploy.Idle}
	route := geo.DefaultRoute()
	rng := simrand.New(31 + int64(op))
	m := deploy.NewMap(op, route, rng)
	var reg *ue.Registry
	cfg := UEConfig{Op: op, Map: m}
	if op == radio.TMobile {
		reg = ue.NewRegistry(ue.Config{Op: op, Map: m, Route: route, Size: 2000, Span: limit, Seed: 5, Tick: tick, HorizonTicks: 1 << 20})
		cfg.Load = reg
	}
	a, b = NewUE(cfg, rng.Fork("ue")), NewUE(cfg, rng.Fork("ue"))
	drive := geo.NewDrive(route, geo.DefaultDriveConfig(), rng.Fork("drive"))

	var lag time.Duration // simulated time spent in static holds
	ds := drive.State()
	for i := 0; ds.Waypoint.Odometer < limit; i++ {
		hold := i%int(holdEvery) >= int(holdEvery-holdFor)
		if hold != a.staticMode {
			a.SetStaticMode(hold)
			b.SetStaticMode(hold)
			if hold {
				held++
			}
		}
		if hold {
			lag += tick
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
			a.SetTraffic(tr, now, ds.Waypoint)
			b.SetTraffic(tr, now, ds.Waypoint)
		}
		if reg != nil {
			reg.Advance(now)
		}
		step(i, a, b, ds.Waypoint, now, speed)
	}
	return a, b, held
}

// sameHandovers fails the test unless a's and b's handover logs agree
// from index *seen on, and advances *seen past them.
func sameHandovers(t *testing.T, op radio.Operator, i int, a, b *UE, seen *int) {
	t.Helper()
	if a.HandoverCount() != b.HandoverCount() {
		t.Fatalf("%v tick %d: %d handovers, reference %d", op, i, a.HandoverCount(), b.HandoverCount())
	}
	if n := a.HandoverCount(); n > *seen {
		ref := b.HandoversFrom(*seen)
		for j, e := range a.HandoversFrom(*seen) {
			if e != ref[j] {
				t.Fatalf("%v handover %d: %+v, reference %+v", op, *seen+j, e, ref[j])
			}
		}
		*seen = n
	}
}

// TestA3BoundMatchesExhaustiveScan drives, per operator, a UE with the
// bounded A3 scan and the quiet-bucket certificate and a reference UE
// with the exhaustive scan through a3Drive. At every tick the two link
// states must agree bit for bit, and so must the handover logs. The
// certificate must answer at least 90% of the moving A3 checks.
func TestA3BoundMatchesExhaustiveScan(t *testing.T) {
	for _, op := range radio.Operators() {
		var hoSeen int
		bounded, ref, held := a3Drive(t, op, func(i int, bounded, ref *UE, wp geo.Waypoint, now time.Time, speed float64) {
			if i == 0 {
				ref.fullScan = true // before its first Step
			}
			got := bounded.Step(now, wp, speed, tick)
			want := ref.Step(now, wp, speed, tick)
			if !sameLinkBits(got, want) {
				t.Fatalf("%v tick %d (odometer %v): bounded scan %+v, exhaustive %+v", op, i, wp.Odometer, got, want)
			}
			sameHandovers(t, op, i, bounded, ref, &hoSeen)
		})
		if bounded.UniqueCells() != ref.UniqueCells() {
			t.Errorf("%v: %d unique cells, exhaustive %d", op, bounded.UniqueCells(), ref.UniqueCells())
		}
		if held < 3 || hoSeen < 100 {
			t.Errorf("%v: %d static holds and %d handovers; the drive does not exercise the scan", op, held, hoSeen)
		}
		cover := float64(bounded.a3Quiet) / float64(bounded.a3Checks)
		if cover < 0.9 {
			t.Errorf("%v: the quiet-bucket certificate answered %d of %d moving A3 checks (%.1f%%), want at least 90%%",
				op, bounded.a3Quiet, bounded.a3Checks, 100*cover)
		}
		t.Logf("%v: %d handovers, %d static holds, certificate covers %.1f%% of %d moving A3 checks", op, hoSeen, held, 100*cover, bounded.a3Checks)
	}
}

// TestMoveMatchesStep drives, per operator, one UE with Step and one with
// Move through a3Drive. At every tick the two must agree on the serving
// technology, cell and handover window, and their handover logs must be
// equal: the link half draws nothing the mobility half reads.
func TestMoveMatchesStep(t *testing.T) {
	for _, op := range radio.Operators() {
		var hoSeen int
		_, _, held := a3Drive(t, op, func(i int, mover, stepper *UE, wp geo.Waypoint, now time.Time, speed float64) {
			tech, cell := mover.Move(now, wp)
			want := stepper.Step(now, wp, speed, tick)
			got := mover.State()
			if tech != want.Tech || cell != want.CellID || got.Tech != tech || got.CellID != cell || got.InHandover != want.InHandover {
				t.Fatalf("%v tick %d (odometer %v): Move %v/%q/%v (reported %v/%q), Step %v/%q/%v",
					op, i, wp.Odometer, got.Tech, got.CellID, got.InHandover, tech, cell, want.Tech, want.CellID, want.InHandover)
			}
			sameHandovers(t, op, i, mover, stepper, &hoSeen)
		})
		if held < 3 || hoSeen < 100 {
			t.Errorf("%v: %d static holds and %d handovers; the drive does not exercise mobility", op, held, hoSeen)
		}
	}
}

// TestQuietBucketSound checks the certificate directly. For every
// (serving cell, bucket) pair it accepts around a stretch of route, at
// odometers spread across the bucket, including both edges ± 1 ulp, no
// neighbour in the scan window may have an exact RSRP above the serving
// cell's plus the hysteresis.
func TestQuietBucketSound(t *testing.T) {
	u, _ := testUE(t, radio.Verizon, 12)
	m := u.cfg.Map
	accepted, checks := 0, 0
	for bucket := int64(2000); bucket < 2400; bucket++ {
		lo, hi := float64(bucket)*float64(shadowBucket), float64(bucket+1)*float64(shadowBucket)
		odos := []float64{math.Nextafter(lo, math.Inf(-1)), lo, math.Nextafter(lo, math.Inf(1)), math.Nextafter(hi, math.Inf(-1)), hi, math.Nextafter(hi, math.Inf(1))}
		for k := 1; k < 16; k++ {
			odos = append(odos, lo+float64(k)*(hi-lo)/16)
		}
		for _, tech := range radio.Technologies() {
			window := searchWindow(tech)
			sl, sh := m.CellRange(unit.Meters(lo), tech, window)
			for s := sl; s < sh; s++ {
				serving := m.CellAt(tech, s)
				if !u.bucketQuiet(serving, bucket) {
					continue
				}
				accepted++
				for _, odo := range odos {
					o := unit.Meters(odo)
					if int64(o/shadowBucket) != bucket {
						continue // the edge ulp belongs to the next or previous bucket
					}
					floor := float64(u.rsrpOf(serving, o)) + hysteresis
					cl, ch := m.CellRange(o, tech, window)
					for j := cl; j < ch; j++ {
						if j == s {
							continue
						}
						c := m.CellAt(tech, j)
						if r := float64(u.rsrpOf(c, o)); r > floor {
							t.Fatalf("bucket %d quiet for %s, but at %v %s has RSRP %v above %v", bucket, serving.ID, o, c.ID, r, floor)
						}
						checks++
					}
				}
			}
		}
	}
	if accepted == 0 {
		t.Fatal("the certificate accepted no (serving, bucket) pair")
	}
	t.Logf("%d accepted (serving, bucket) pairs, %d neighbour RSRPs checked", accepted, checks)
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
			cl, ch := m.CellRange(unit.Meters(lo), tech, searchWindow(tech))
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
