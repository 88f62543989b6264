package core

import (
	"github.com/nuwins/cellwheels/internal/dataset"
	"github.com/nuwins/cellwheels/internal/deploy"
	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/obs"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/speedtest"
	"github.com/nuwins/cellwheels/internal/ue"
	"github.com/nuwins/cellwheels/internal/xcal"
)

// lane is one operator's measurement rig: the active phone, its passive
// handover logger, the operator's deployment map, and (when enabled) the
// background-UE crowd registry. A lane replays the shared timeline
// independently of the other lanes — all its mutable state (UE,
// recorder, random streams, registry) is private, and the structures it
// shares (route, map, fleet) are read-only after construction — so lanes
// are safe to run on separate goroutines.
type lane struct {
	cfg    *Config
	op     radio.Operator
	phone  *phone
	logger *xcal.HandoverLogger
	m      *deploy.Map

	// passive is the logger's log as coverage samples, converted at the
	// end of every block.
	passive []dataset.CoverageSample

	// reg is the lane's crowd; nil without one. crowdResults collects the
	// measuring crowd UEs' speedtest results in deterministic event order.
	reg          *ue.Registry
	crowdResults []speedtest.Result

	// Replay state carried from one block to the next: whether a static
	// battery is running, and the last tick's drive state.
	inStatic bool
	last     geo.DriveState

	// Observability side channel (write-only; nil-safe when obs is off).
	obsTicks *obs.Counter
	obsOdoKm *obs.Gauge
}

// step replays one block of the shared timeline through this lane's
// instruments, carrying its static-battery state across blocks. This
// loop is Campaign.Run's per-tick body — every 50 ms simulated step of
// every drive goes through it — so it reads each tick in place and
// hands the drive state on by pointer.
//
//lint:hotroot — the campaign tick loop; everything it reaches runs per 50 ms step
func (l *lane) step(blk []geo.TickState) {
	p := l.phone
	for i := range blk {
		ts := &blk[i]
		ds := &ts.DriveState
		// The crowd moves first, so the phone and logger read this tick's
		// demand aggregates. The lane owns the clock: tick→time is not
		// linear (overnight jumps between trip days), so the registry is
		// handed the timeline's instant rather than deriving its own.
		if l.reg != nil {
			l.reg.Advance(ds.Time)
		}
		if ts.HoldFirst {
			// Static baseline battery: carriers without high-speed 5G
			// near the stop are skipped, as the paper skipped
			// operator-city combinations without mmWave/midband.
			avail := l.m.AvailableWithin(ds.Odometer, staticSearchWindow)
			if avail.Has(radio.NRMmWave) || avail.Has(radio.NRMid) {
				if p.rec.Recording() {
					p.finishTest(ds)
				}
				p.static = true
				p.ue.SetStaticMode(true)
				p.specIdx = 0
				p.gapLeft = testGap
				l.inStatic = true
			}
		}

		p.tick(l.cfg, ts)
		if l.logger != nil {
			l.logger.Step(ds.Time, ds.Waypoint, ds.Speed.MPH(), Tick)
		}

		if ts.HoldLast && l.inStatic {
			if p.rec.Recording() {
				p.finishTest(ds)
			}
			p.static = false
			p.ue.SetStaticMode(false)
			l.inStatic = false
		}
	}
	if n := len(blk); n > 0 {
		l.last = blk[n-1].DriveState
		l.obsTicks.Add(int64(n))
		l.obsOdoKm.Set(l.last.Odometer.Km())
	}
	l.convertPassive()
}

// convertPassive turns the rows the passive logger logged since the last
// call into coverage samples, so the raw rows never outlive their block.
//
//lint:cold — runs once per 4,096-tick block, not per tick; the row conversion and sample growth are amortized over the block
func (l *lane) convertPassive() {
	if l.logger != nil {
		l.passive = l.phone.norm.Passive(l.passive, l.op, l.logger.Rows())
	}
}

// finish closes any file still open at trip end.
func (l *lane) finish() {
	if l.phone.rec.Recording() {
		l.phone.finishTest(&l.last)
	}
	l.convertPassive()
}
