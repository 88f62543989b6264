package core

import (
	"github.com/nuwins/cellwheels/internal/deploy"
	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/logsync"
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

	// cells is the logger's column of the passive log: its (technology,
	// cell) at each logged second, stored at the end of every block.
	// seconds holds those seconds' shared facts; only the campaign's
	// first lane keeps them, for every logger (logsync.PassiveSecond).
	cells   chunked[logsync.PassiveCell]
	seconds *chunked[logsync.PassiveSecond]

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
func (l *lane) step(blk *tickBlock) {
	p := l.phone
	ticks, wire := blk.ticks, blk.wire[:len(blk.ticks)]
	for i := range ticks {
		ts := &ticks[i]
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

		p.tick(l.cfg, ts, wire[i])
		if l.logger != nil {
			l.logger.StepDrive(ds, Tick)
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
	if n := len(ticks); n > 0 {
		l.last = ticks[n-1].DriveState
		l.obsTicks.Add(int64(n))
		l.obsOdoKm.Set(l.last.Odometer.Km())
	}
	if l.logger != nil {
		l.convertPassive(l.logger.Rows())
	}
}

// convertPassive stores the rows the passive logger logged since the
// last call, so the raw rows never outlive their block and the logger
// logs the next block into the same buffer.
//
//lint:cold — runs once per 4,096-tick block, not per tick; the row conversion and chunk allocations are amortized over the block
func (l *lane) convertPassive(rows []xcal.LoggerRow) {
	for i := range rows {
		r := &rows[i]
		l.cells.add(logsync.PassiveCell{Tech: r.Tech, CellID: r.CellID})
		if l.seconds != nil {
			l.seconds.add(l.phone.norm.Second(r))
		}
	}
}

// finish closes any file still open at trip end, and the passive log.
func (l *lane) finish() {
	if l.phone.rec.Recording() {
		l.phone.finishTest(&l.last)
	}
	l.phone.rec.Release()
	if l.logger != nil {
		l.convertPassive(l.logger.Close())
	}
}

// The chunks of a passive log double in size from the first, 256 rows,
// to the largest, 16 Ki rows: a short run, such as a fleet's, reserves
// little it does not fill, and a full route's ~250 k logged seconds take
// about twenty chunks per column.
const (
	firstPassiveChunk = 1 << 8
	maxPassiveChunk   = 1 << 14
)

// chunked holds a log in chunks, in log order, which the merge reads
// where they are. A slice grown by append would copy the whole log at
// every regrowth, holding the old and the new array at once.
type chunked[T any] struct {
	chunks [][]T // the last one is being filled
}

// add appends v.
func (s *chunked[T]) add(v T) {
	n := len(s.chunks)
	if n == 0 || len(s.chunks[n-1]) == cap(s.chunks[n-1]) {
		size := firstPassiveChunk
		if n > 0 {
			size = min(2*cap(s.chunks[n-1]), maxPassiveChunk)
		}
		s.chunks = append(s.chunks, make([]T, 0, size))
		n++
	}
	s.chunks[n-1] = append(s.chunks[n-1], v)
}
