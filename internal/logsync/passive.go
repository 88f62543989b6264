package logsync

import (
	"fmt"
	"slices"
	"time"

	"github.com/nuwins/cellwheels/internal/dataset"
	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/unit"
	"github.com/nuwins/cellwheels/internal/xcal"
)

// PassiveSecond is what every passive logger logged at one second. The
// loggers ride in one car and step the same ticks, so they log on the
// same ticks, at the same instant, zone, GPS fix and speed; one record
// serves them all, its fix already joined to the route.
type PassiveSecond struct {
	Unix     int64 // the logged instant, in whole seconds since the Unix epoch
	Odometer unit.Meters
	SpeedMPH float64
	Timezone geo.Timezone
}

// PassiveCell is what one operator's logger logged at one second: all
// that differs between the loggers.
type PassiveCell struct {
	Tech   radio.Technology
	CellID string
}

// PassiveLog is the passive loggers' log. Seconds holds the logged
// seconds in log order, and Columns one operator's cells, the i-th of
// them logged at the i-th second. Both come as consecutive chunks: a
// lane stores its log in fixed-size chunks, and the merge reads them
// where they are instead of joining them first.
type PassiveLog struct {
	Seconds [][]PassiveSecond
	Columns map[radio.Operator][][]PassiveCell
}

// Second normalises what r shares with every logger's row of its
// second: its instant, zone and speed, and its GPS fix joined to the
// route. r.Time is whole seconds, as the logger logs it.
func (n *Normalizer) Second(r *xcal.LoggerRow) PassiveSecond {
	return PassiveSecond{Unix: r.Time.Unix(), Odometer: n.route.OdometerOf(r.Loc), SpeedMPH: r.SpeedMPH, Timezone: r.Zone}
}

// check reports the operators with a column, in operator order, and how
// many seconds the log holds. It fails, reading the log only, when a
// column's length differs from the seconds' or the seconds do not
// strictly increase: expand would then cut a column short or break the
// table's order.
func (p *PassiveLog) check() ([]radio.Operator, int, error) {
	n := 0
	last := int64(0)
	for _, c := range p.Seconds {
		for i := range c {
			if n > 0 && c[i].Unix <= last {
				return nil, 0, fmt.Errorf("logsync: passive second %d (%v) does not follow second %d (%v)",
					n, time.Unix(c[i].Unix, 0).UTC(), n-1, time.Unix(last, 0).UTC())
			}
			last = c[i].Unix
			n++
		}
	}
	ops := make([]radio.Operator, 0, len(p.Columns))
	for op, col := range p.Columns {
		rows := 0
		for _, c := range col {
			rows += len(c)
		}
		if rows != n {
			return nil, 0, fmt.Errorf("logsync: %v passive log has %d rows for %d logged seconds", op, rows, n)
		}
		ops = append(ops, op)
	}
	slices.Sort(ops)
	return ops, n, nil
}

// expand builds the passive table from a log check accepted, n seconds
// with a column for each of ops, and consumes the log, dropping each
// chunk as it reads it. Rows go second by second, one per operator in
// operator order, so the table is ordered by (time, operator): the
// seconds strictly increase. It returns nil for an empty table, as
// appending to a nil table would.
func (p *PassiveLog) expand(ops []radio.Operator, n int) []dataset.CoverageSample {
	if n == 0 || len(ops) == 0 {
		return nil
	}
	out := make([]dataset.CoverageSample, n*len(ops))
	seconds := chunkReader[PassiveSecond]{chunks: p.Seconds}
	cols := make([]chunkReader[PassiveCell], len(ops))
	for i, op := range ops {
		cols[i].chunks = p.Columns[op]
	}
	for k := 0; k < n; k++ {
		s := seconds.next()
		at := time.Unix(s.Unix, 0).UTC()
		row := out[k*len(ops) : (k+1)*len(ops)]
		for i := range cols {
			c := cols[i].next()
			row[i] = dataset.CoverageSample{
				Time: at, Op: ops[i], Tech: c.Tech, CellID: c.CellID,
				Odometer: s.Odometer, Timezone: s.Timezone, SpeedMPH: s.SpeedMPH,
			}
		}
	}
	return out
}

// chunkReader reads a log's chunks in order, dropping each from the log
// as it starts on it.
type chunkReader[T any] struct {
	chunks [][]T
	head   []T // the unread rest of the current chunk
}

// next returns the next row; the log must have one.
func (r *chunkReader[T]) next() *T {
	for len(r.head) == 0 {
		r.head = r.chunks[0]
		r.chunks[0] = nil
		r.chunks = r.chunks[1:]
	}
	v := &r.head[0]
	r.head = r.head[1:]
	return v
}
