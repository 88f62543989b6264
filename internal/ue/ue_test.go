package ue

import (
	"math/rand"
	"testing"
	"time"

	"github.com/nuwins/cellwheels/internal/deploy"
	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/simrand"
	"github.com/nuwins/cellwheels/internal/unit"
)

// testMap builds one operator's deployment for registry tests.
func testMap(t *testing.T) (*geo.Route, *deploy.Map) {
	t.Helper()
	route := geo.DefaultRoute()
	return route, deploy.NewMap(radio.Verizon, route, simrand.New(7))
}

// anchor is the fixed instant tests advance at; the registry never reads
// a wall clock.
func anchor() time.Time { return time.Date(2022, 8, 12, 9, 0, 0, 0, time.UTC) }

// checkInvariants cross-checks the SoA store against itself: shard
// membership, swap-remove position indices, attached accounting, and the
// demand aggregates CellLoad serves from.
func checkInvariants(t *testing.T, r *Registry) {
	t.Helper()
	attached := 0
	for tech := 0; tech < radio.NumTechnologies; tech++ {
		for ci := range r.shards[tech] {
			sh := &r.shards[tech][ci]
			var demand int64
			for i, slot := range sh.slots {
				if r.state[slot] != stAttached {
					t.Fatalf("shard (%d,%d) holds detached slot %d", tech, ci, slot)
				}
				if int(r.tech[slot]) != tech || r.cell[slot] != int32(ci) {
					t.Fatalf("slot %d thinks it serves (%d,%d), shard is (%d,%d)",
						slot, r.tech[slot], r.cell[slot], tech, ci)
				}
				if r.pos[slot] != int32(i) {
					t.Fatalf("slot %d pos=%d, actual index %d", slot, r.pos[slot], i)
				}
				demand += int64(r.session[slot] + r.measure[slot])
			}
			if sh.demand != demand {
				t.Fatalf("shard (%d,%d) aggregate %d, per-slot sum %d", tech, ci, sh.demand, demand)
			}
			attached += len(sh.slots)
		}
	}
	if attached != r.attached {
		t.Fatalf("shards hold %d slots, attached counter says %d", attached, r.attached)
	}
}

// refUE is the naive reference model's per-UE record.
type refUE struct {
	tech   radio.Technology
	cell   int32
	demand int32
}

// TestRegistryMatchesReferenceModel drives the low-level SoA operations
// with a pseudorandom op sequence while mirroring every step in a naive
// map-of-structs model, then compares membership and aggregates. This is
// the property test pinning the sharded store against the obvious
// implementation.
func TestRegistryMatchesReferenceModel(t *testing.T) {
	route, m := testMap(t)
	const n = 300
	r := NewRegistry(Config{Op: radio.Verizon, Map: m, Route: route, Size: n, Seed: 11})
	// Start from a blank slate: the constructor scheduled attach events,
	// but this test drives the store directly instead of via the wheel.
	ref := map[int32]*refUE{}

	rng := rand.New(rand.NewSource(42))
	techs := []radio.Technology{radio.LTE, radio.LTEA, radio.NRLow, radio.NRMid, radio.NRMmWave}
	randomCell := func(tech radio.Technology) int32 {
		if c := m.CellCount(tech); c > 0 {
			return int32(rng.Intn(c))
		}
		return -1
	}

	for step := 0; step < 20000; step++ {
		slot := int32(rng.Intn(n))
		u, attached := ref[slot]
		switch op := rng.Intn(4); {
		case op == 0 && !attached: // attach
			tech := techs[rng.Intn(len(techs))]
			ci := randomCell(tech)
			if ci < 0 {
				continue
			}
			r.attachSlot(slot, tech, ci)
			ref[slot] = &refUE{tech: tech, cell: ci}
		case op == 1 && attached: // detach
			r.detachSlot(slot)
			delete(ref, slot)
		case op == 2 && attached: // move
			tech := techs[rng.Intn(len(techs))]
			ci := randomCell(tech)
			if ci < 0 {
				continue
			}
			r.moveSlot(slot, tech, ci)
			u.tech, u.cell = tech, ci
		case op == 3 && attached: // toggle session demand
			if r.session[slot] == 0 {
				d := int32(1 + rng.Intn(30))
				r.session[slot] = d
				r.addDemand(slot, d)
				u.demand = d
			} else {
				r.addDemand(slot, -r.session[slot])
				r.session[slot] = 0
				u.demand = 0
			}
		}
	}

	checkInvariants(t, r)
	if len(ref) != r.attached {
		t.Fatalf("reference model has %d attached, registry %d", len(ref), r.attached)
	}
	// Aggregate the reference model per cell and compare every shard.
	type cellKey struct {
		tech radio.Technology
		cell int32
	}
	wantDemand := map[cellKey]int64{}
	wantCount := map[cellKey]int{}
	for slot, u := range ref {
		if int(r.tech[slot]) != int(u.tech) || r.cell[slot] != u.cell {
			t.Fatalf("slot %d: registry serves (%d,%d), reference (%d,%d)",
				slot, r.tech[slot], r.cell[slot], u.tech, u.cell)
		}
		k := cellKey{u.tech, u.cell}
		wantDemand[k] += int64(u.demand)
		wantCount[k]++
	}
	for tech := 0; tech < radio.NumTechnologies; tech++ {
		for ci := range r.shards[tech] {
			k := cellKey{radio.Technology(tech), int32(ci)}
			sh := &r.shards[tech][ci]
			if sh.demand != wantDemand[k] {
				t.Fatalf("shard (%d,%d): demand %d, reference %d", tech, ci, sh.demand, wantDemand[k])
			}
			if len(sh.slots) != wantCount[k] {
				t.Fatalf("shard (%d,%d): %d slots, reference %d", tech, ci, len(sh.slots), wantCount[k])
			}
		}
	}
}

// TestRegistryInvariantsUnderAdvance runs the full event-driven engine and
// re-checks the store invariants periodically — the wheel, the handlers,
// and the SoA ops all have to agree.
func TestRegistryInvariantsUnderAdvance(t *testing.T) {
	route, m := testMap(t)
	r := NewRegistry(Config{
		Op: radio.Verizon, Map: m, Route: route,
		Size: 2000, Span: 50 * unit.Kilometer, Seed: 3,
		HorizonTicks: 20000,
		SessionMean:  5 * time.Second,
		ActiveMean:   2 * time.Second,
		ReselectMean: 10 * time.Second,
		DetachMean:   30 * time.Second,
		ReattachMean: 5 * time.Second,
		MeasureSlots: 8, MeasureTicks: 100, MeasureUnits: 30,
	})
	now := anchor()
	for i := 0; i < 20000; i++ {
		r.Advance(now)
		now = now.Add(50 * time.Millisecond)
		if i%2500 == 0 {
			checkInvariants(t, r)
		}
	}
	checkInvariants(t, r)
	if r.attached == 0 {
		t.Fatal("no UEs attached after 20k ticks")
	}
	if r.started == 0 {
		t.Fatal("no measurements started")
	}
}

// TestRegistryDeterministic pins positional identity: two registries with
// the same config, advanced independently, hold byte-equal state.
func TestRegistryDeterministic(t *testing.T) {
	route, m := testMap(t)
	cfg := Config{
		Op: radio.Verizon, Map: m, Route: route,
		Size: 1000, Span: 40 * unit.Kilometer, Seed: 99,
		HorizonTicks: 8000,
		SessionMean:  5 * time.Second, ActiveMean: 2 * time.Second,
		DetachMean: 20 * time.Second, ReattachMean: 4 * time.Second,
		MeasureSlots: 4, MeasureTicks: 50, MeasureUnits: 30,
	}
	a, b := NewRegistry(cfg), NewRegistry(cfg)
	now := anchor()
	for i := 0; i < 8000; i++ {
		a.Advance(now)
		b.Advance(now)
		now = now.Add(50 * time.Millisecond)
	}
	if a.attached != b.attached || a.processed != b.processed {
		t.Fatalf("diverged: attached %d vs %d, events %d vs %d",
			a.attached, b.attached, a.processed, b.processed)
	}
	for slot := range a.state {
		if a.state[slot] != b.state[slot] || a.cell[slot] != b.cell[slot] ||
			a.tech[slot] != b.tech[slot] || a.session[slot] != b.session[slot] ||
			a.seq[slot] != b.seq[slot] {
			t.Fatalf("slot %d state diverged", slot)
		}
	}
	for tech := 0; tech < radio.NumTechnologies; tech++ {
		for ci := range a.shards[tech] {
			if a.shards[tech][ci].demand != b.shards[tech][ci].demand {
				t.Fatalf("shard (%d,%d) demand diverged", tech, ci)
			}
		}
	}
}

// TestEventDrivenCostIsSubLinear pins the point of the event wheel: an
// attached-but-quiet crowd costs O(events), not O(UEs × ticks). With
// hour-scale dwell means, 10k UEs over 10k ticks must process far fewer
// events than the 100M a polling loop would spend.
func TestEventDrivenCostIsSubLinear(t *testing.T) {
	route, m := testMap(t)
	const size, ticks = 10000, 10000
	r := NewRegistry(Config{
		Op: radio.Verizon, Map: m, Route: route,
		Size: size, Span: 50 * unit.Kilometer, Seed: 5,
		HorizonTicks: ticks,
		SessionMean:  time.Hour, ActiveMean: time.Hour,
		ReselectMean: time.Hour, DetachMean: 24 * time.Hour,
	})
	now := anchor()
	for i := 0; i < ticks; i++ {
		r.Advance(now)
		now = now.Add(50 * time.Millisecond)
	}
	naive := int64(size) * int64(ticks)
	if r.processed*100 > naive {
		t.Fatalf("processed %d events for a quiet crowd; want < 1%% of the %d naive polls",
			r.processed, naive)
	}
	if r.attached < size/2 {
		t.Fatalf("only %d/%d attached — the quiet crowd should be nearly fully attached", r.attached, size)
	}
}

// TestMeasurementCallbacks pins the measuring crowd: every designated slot
// fires OnMeasure exactly once, in deterministic order, with its demand
// landing after the callback (a measurement never sees its own load).
func TestMeasurementCallbacks(t *testing.T) {
	route, m := testMap(t)
	const samples = 6
	r := NewRegistry(Config{
		Op: radio.Verizon, Map: m, Route: route,
		Size: 600, Span: 30 * unit.Kilometer, Seed: 21,
		HorizonTicks: 6000, MeasureSlots: samples,
		MeasureTicks: 40, MeasureUnits: 25,
	})
	var slots []int
	r.OnMeasure = func(slot int, odo unit.Meters, now time.Time) {
		if r.measure[slot] != 0 {
			t.Fatalf("slot %d already carries measurement demand during its own callback", slot)
		}
		slots = append(slots, slot)
	}
	now := anchor()
	for i := 0; i < 6000; i++ {
		r.Advance(now)
		now = now.Add(50 * time.Millisecond)
	}
	if len(slots) != samples {
		t.Fatalf("OnMeasure fired %d times, want %d (slots %v)", len(slots), samples, slots)
	}
	if r.started != samples {
		t.Fatalf("measurements started = %d, want %d", r.started, samples)
	}
	seen := map[int]bool{}
	for _, s := range slots {
		if seen[s] {
			t.Fatalf("slot %d measured twice", s)
		}
		seen[s] = true
	}
	checkInvariants(t, r)
	// All measurement windows (40 ticks) ended long before tick 6000, so
	// no measurement demand may remain parked anywhere.
	for tech := 0; tech < radio.NumTechnologies; tech++ {
		for ci := range r.shards[tech] {
			for _, slot := range r.shards[tech][ci].slots {
				if r.measure[slot] != 0 {
					t.Fatalf("slot %d still carries measurement demand after its window", slot)
				}
			}
		}
	}
}

// TestCellLoadBounds pins the demand→load mapping: empty cells sit at the
// base floor and loaded cells never exceed the stand-in's ceiling.
func TestCellLoadBounds(t *testing.T) {
	route, m := testMap(t)
	r := NewRegistry(Config{Op: radio.Verizon, Map: m, Route: route, Size: 50, Seed: 1})
	c := m.CellAt(radio.LTE, 0)
	if got := r.CellLoad(c, anchor()); got != baseLoad {
		t.Fatalf("empty cell load = %v, want base %v", got, baseLoad)
	}
	// Pile implausible demand onto one cell and check the clamp.
	for slot := int32(0); slot < 50; slot++ {
		r.attachSlot(slot, radio.LTE, 0)
		r.session[slot] = 10000
		r.addDemand(slot, 10000)
	}
	if got := r.CellLoad(c, anchor()); got != maxLoad {
		t.Fatalf("saturated cell load = %v, want clamp %v", got, maxLoad)
	}
}

// TestWheelFarEvents pins the overflow path: events scheduled beyond the
// ring's horizon fire on exactly their due tick.
func TestWheelFarEvents(t *testing.T) {
	var w wheel
	w.init()
	ringSize := int64(len(w.ring))
	due := []int64{1, 2, ringSize - 1, ringSize, ringSize + 1, 3 * ringSize, 10*ringSize + 7}
	for i, at := range due {
		w.schedule(at, eventKey(evSession, int32(i), 0), 0)
	}
	if w.depth != len(due) {
		t.Fatalf("depth = %d after scheduling, want %d", w.depth, len(due))
	}
	got := map[int64][]int32{}
	for tick := int64(1); tick <= 10*ringSize+8; tick++ {
		for _, k := range w.take(tick) {
			_, slot, _ := unpackKey(k)
			got[tick] = append(got[tick], slot)
		}
	}
	if w.depth != 0 {
		t.Fatalf("depth = %d after draining, want 0", w.depth)
	}
	for i, at := range due {
		found := false
		for _, s := range got[at] {
			if s == int32(i) {
				found = true
			}
		}
		if !found {
			t.Fatalf("event %d (due %d) did not fire on its tick; fired: %v", i, at, got[at])
		}
	}
}

// TestStaleEventsDropped pins generation fencing: events scheduled before
// a detach must not fire after it.
func TestStaleEventsDropped(t *testing.T) {
	route, m := testMap(t)
	r := NewRegistry(Config{Op: radio.Verizon, Map: m, Route: route, Size: 1, Seed: 8})
	// Manually attach and schedule a session, then detach: the session
	// event carries the old generation and must be dropped.
	r.attachSlot(0, radio.LTE, 0)
	r.schedule(evSession, 0, 1)
	r.detachSlot(0)
	r.gen[0]++
	r.Advance(anchor())
	// The stale session event is skipped before dispatch; the slot must
	// not have opened a session.
	if r.session[0] != 0 {
		t.Fatal("stale session event fired after detach")
	}
	checkInvariants(t, r)
}
