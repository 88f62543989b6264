package geo

import (
	"time"

	"github.com/nuwins/cellwheels/internal/simrand"
	"github.com/nuwins/cellwheels/internal/unit"
)

// TickState is one instant of the shared drive timeline: the vehicle state
// plus the hold annotations phone lanes react to. The timeline is pure
// mobility — it knows when the vehicle parks for a static battery and for
// how long, but nothing about phones, tests, or operators.
type TickState struct {
	DriveState
	// Hold marks a tick inside a static-battery hold window: the vehicle
	// is parked and simulated time advances with the odometer frozen.
	Hold bool
	// HoldFirst and HoldLast mark the window's first and last tick, so a
	// consumer can set up and tear down static state without tracking the
	// previous tick.
	HoldFirst bool
	HoldLast  bool
	// HoldCity names the city that triggered the window.
	HoldCity string
}

// HoldRule decides where the timeline inserts static-battery hold windows
// and how long they last. The budget is fixed up front — derived from the
// configured test rotation, not from any phone's runtime progress — so
// every consumer of the timeline sees identical hold windows and lanes
// never need to wait for each other.
type HoldRule struct {
	// MaxCityDistance is how close to a major city's center the vehicle
	// must be (in an urban region) to trigger that city's one-time hold.
	MaxCityDistance unit.Meters
	// Budget is the hold duration. Zero disables holds entirely.
	Budget time.Duration
}

// TimelineConfig parameterizes a Timeline.
type TimelineConfig struct {
	// Tick is the simulation step.
	Tick time.Duration
	// Limit truncates the trip after this driven distance; zero or
	// out-of-range values mean the full route.
	Limit unit.Meters
	// Hold inserts per-city static hold windows.
	Hold HoldRule
}

// Timeline is the drive schedule of a campaign: the deterministic
// sequence of tick states every phone lane replays. It is a cheap value —
// the route, drive config, root stream and timeline config — and the
// sequence itself is never materialized: a Cursor regenerates it on
// demand from the same forked random stream, so any number of replays
// observe byte-identical states in O(1) memory each.
type Timeline struct {
	route *Route
	dcfg  DriveConfig
	rng   *simrand.Source // parent stream; every cursor forks "drive" off it
	cfg   TimelineConfig
}

// NewTimeline describes the drive schedule without stepping it. The rng
// is the campaign's root stream: cursors fork the same "drive" child the
// serial engine used, so the mobility trace is a pure function of
// (route, config, seed).
func NewTimeline(route *Route, dcfg DriveConfig, rng *simrand.Source, cfg TimelineConfig) *Timeline {
	if cfg.Tick <= 0 {
		cfg.Tick = 50 * time.Millisecond
	}
	if cfg.Limit <= 0 || cfg.Limit > route.Total() {
		cfg.Limit = route.Total()
	}
	return &Timeline{route: route, dcfg: dcfg, rng: rng, cfg: cfg}
}

// holdTicks is the hold budget in whole ticks, rounded up.
func (t *Timeline) holdTicks() int {
	if t.cfg.Hold.Budget <= 0 {
		return 0
	}
	return int((t.cfg.Hold.Budget + t.cfg.Tick - 1) / t.cfg.Tick)
}

// Ticks counts the tick states a cursor produces by replaying one to the
// end: a whole drive pass, for callers that must know the length before
// the trip runs.
func (t *Timeline) Ticks() int {
	cur := t.Cursor()
	n := 0
	for {
		if _, ok := cur.Next(); !ok {
			return n
		}
		n++
	}
}

// Cursor returns a fresh replay of the timeline from its first tick.
// Cursors are independent: each owns a private Drive seeded from the same
// forked stream, so concurrent cursors produce identical sequences without
// sharing any mutable state.
func (t *Timeline) Cursor() *Cursor {
	return &Cursor{
		t:          t,
		drive:      NewDrive(t.route, t.dcfg, t.rng),
		citiesDone: map[string]bool{},
	}
}

// Cursor iterates one replay of a Timeline.
type Cursor struct {
	t     *Timeline
	drive *Drive

	citiesDone map[string]bool
	holdLeft   int
	holdTotal  int
	holdCity   string
	endPending bool // limit reached; finish the open hold, then stop
	ended      bool
}

// Next produces the next tick state, or ok=false once the trip is over.
func (c *Cursor) Next() (TickState, bool) {
	if c.ended {
		return TickState{}, false
	}
	if c.holdLeft > 0 {
		ds := c.drive.Hold(c.t.cfg.Tick)
		c.holdLeft--
		ts := TickState{
			DriveState: ds,
			Hold:       true,
			HoldFirst:  c.holdLeft == c.holdTotal-1,
			HoldLast:   c.holdLeft == 0,
			HoldCity:   c.holdCity,
		}
		if ts.HoldLast {
			c.holdCity = ""
			if c.endPending {
				c.ended = true
			}
		}
		return ts, true
	}

	ds := c.drive.Step(c.t.cfg.Tick)
	ts := TickState{DriveState: ds}

	// First arrival at a major city's core schedules a hold window that
	// begins on the next tick, mirroring the serial engine's "tick, then
	// park" order.
	wp := ds.Waypoint
	if budget := c.t.holdTicks(); budget > 0 &&
		wp.Region == Urban && wp.CityDistance < c.t.cfg.Hold.MaxCityDistance && !c.citiesDone[wp.City] {
		c.citiesDone[wp.City] = true
		c.holdLeft = budget
		c.holdTotal = budget
		c.holdCity = wp.City
	}

	if ds.Done || ds.Odometer >= c.t.cfg.Limit {
		if c.holdLeft > 0 {
			c.endPending = true
		} else {
			c.ended = true
		}
	}
	return ts, true
}
