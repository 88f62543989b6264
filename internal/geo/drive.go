package geo

import (
	"time"

	"github.com/nuwins/cellwheels/internal/simrand"
	"github.com/nuwins/cellwheels/internal/unit"
)

// DriveConfig parameterizes the multi-day drive schedule.
type DriveConfig struct {
	// Days the trip is split across. The paper drove 8 days.
	Days int
	// DailyStartLocal is the local wall-clock hour each day's driving
	// begins.
	DailyStartLocal int
	// StartUTC is the UTC instant of the first day's departure. The
	// paper's trip started 2022-08-08 09:00 Pacific.
	StartUTC time.Time
	// Speed targets by region, in mph. Zero values take paper-plausible
	// defaults.
	UrbanMPH    float64
	SuburbanMPH float64
	HighwayMPH  float64
}

// DefaultDriveConfig mirrors the paper's 8-day August 2022 schedule.
func DefaultDriveConfig() DriveConfig {
	return DriveConfig{
		Days:            8,
		DailyStartLocal: 9,
		StartUTC:        time.Date(2022, 8, 8, 16, 0, 0, 0, time.UTC), // 09:00 PDT
		UrbanMPH:        14,
		SuburbanMPH:     45,
		HighwayMPH:      68,
	}
}

func (c *DriveConfig) applyDefaults() {
	d := DefaultDriveConfig()
	if c.Days <= 0 {
		c.Days = d.Days
	}
	if c.DailyStartLocal <= 0 {
		c.DailyStartLocal = d.DailyStartLocal
	}
	if c.StartUTC.IsZero() {
		c.StartUTC = d.StartUTC
	}
	if c.UrbanMPH <= 0 {
		c.UrbanMPH = d.UrbanMPH
	}
	if c.SuburbanMPH <= 0 {
		c.SuburbanMPH = d.SuburbanMPH
	}
	if c.HighwayMPH <= 0 {
		c.HighwayMPH = d.HighwayMPH
	}
}

// DriveState is the vehicle state at one simulated instant.
type DriveState struct {
	Time     time.Time // UTC
	Odometer unit.Meters
	Speed    unit.MetersPerSecond
	Waypoint Waypoint
	Day      int // 0-based trip day
	Done     bool
}

// LocalTime renders the state's instant in the local timezone of the
// vehicle's position.
func (s DriveState) LocalTime() time.Time {
	return s.Time.In(s.Waypoint.Timezone.Location())
}

// Drive advances a vehicle along a route with a region-dependent speed
// process: smooth wander around the region's target speed, full stops at
// urban lights, and overnight jumps between trip days.
type Drive struct {
	route *Route
	cfg   DriveConfig
	rng   *simrand.Source

	state     DriveState
	dayQuota  unit.Meters
	speedVar  simrand.OU
	stopUntil time.Time
}

// NewDrive starts a drive at the route origin.
func NewDrive(r *Route, cfg DriveConfig, rng *simrand.Source) *Drive {
	cfg.applyDefaults()
	d := &Drive{
		route: r,
		cfg:   cfg,
		rng:   rng.Fork("drive"),
		speedVar: simrand.OU{
			Mean: 1.0, Revert: 0.02, Sigma: 0.02, Min: 0.55, Max: 1.25,
		},
	}
	d.dayQuota = unit.Meters(float64(r.Total()) / float64(cfg.Days))
	d.state = DriveState{
		Time:     cfg.StartUTC,
		Waypoint: r.At(0),
	}
	return d
}

// State reports the current state without advancing.
func (d *Drive) State() DriveState { return d.state }

// Hold advances simulated time by dt with the vehicle stationary, for
// static baseline tests in cities.
func (d *Drive) Hold(dt time.Duration) DriveState {
	d.state.Time = d.state.Time.Add(dt)
	d.state.Speed = 0
	return d.state
}

// targetSpeed reports the mean speed for a region.
func (d *Drive) targetSpeed(r Region) unit.MetersPerSecond {
	switch r {
	case Urban:
		return unit.SpeedFromMPH(d.cfg.UrbanMPH)
	case Suburban:
		return unit.SpeedFromMPH(d.cfg.SuburbanMPH)
	default:
		return unit.SpeedFromMPH(d.cfg.HighwayMPH)
	}
}

// Step advances the drive by dt and returns the new state. Once the
// route is exhausted the returned state has Done set and no longer
// changes.
func (d *Drive) Step(dt time.Duration) DriveState {
	if d.state.Done {
		return d.state
	}

	// Day boundary: once the day's quota is covered, jump to the next
	// morning at the configured local start hour.
	doneDays := unit.Meters(float64(d.state.Day+1)) * d.dayQuota
	if d.state.Odometer >= doneDays && d.state.Day < d.cfg.Days-1 {
		d.state.Day++
		local := d.state.Time.In(d.state.Waypoint.Timezone.Location())
		next := time.Date(local.Year(), local.Month(), local.Day()+1,
			d.cfg.DailyStartLocal, 0, 0, 0, local.Location())
		d.state.Time = next.UTC()
		d.state.Speed = 0
	}

	d.state.Time = d.state.Time.Add(dt)

	// Urban stop lights: while stopped, speed is zero. The odometer has
	// not moved since the waypoint was last set, so the waypoint stands.
	if d.state.Time.Before(d.stopUntil) {
		d.state.Speed = 0
		return d.state
	}
	region := d.state.Waypoint.Region
	if region == Urban && d.rng.Bool(dt.Seconds()/180) {
		// Roughly one stop per ~3 urban minutes, 15–45 s long.
		d.stopUntil = d.state.Time.Add(time.Duration(d.rng.Uniform(15, 45) * float64(time.Second)))
		d.state.Speed = 0
		return d.state
	}

	// Smooth speed around the regional target.
	target := float64(d.targetSpeed(region)) * d.speedVar.Step(d.rng)
	cur := float64(d.state.Speed)
	// Limit acceleration to ±2.5 m/s² so speed traces look vehicular.
	maxDelta := 2.5 * dt.Seconds()
	cur += unit.Clamp(target-cur, -maxDelta, maxDelta)
	if cur < 0 {
		cur = 0
	}
	d.state.Speed = unit.MetersPerSecond(cur)
	d.state.Odometer += d.state.Speed.DistanceIn(dt)

	if d.state.Odometer >= d.route.Total() {
		d.state.Odometer = d.route.Total()
		d.state.Done = true
		d.state.Speed = 0
	}
	d.state.Waypoint = d.route.At(d.state.Odometer)
	return d.state
}
