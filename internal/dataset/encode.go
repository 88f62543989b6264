package dataset

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"sync"
	"time"
)

// flushAt is the size at which the encoder hands its buffer to the
// writer: the document streams out in chunks of about this many bytes
// instead of being built whole first.
const flushAt = 32 << 10

// chunkRows is the number of rows a table is cut into chunks of, to be
// encoded on GOMAXPROCS goroutines. Tests lower it to cut tables down
// to single rows.
var chunkRows = 512

// WriteJSON serializes the whole database: exactly the bytes
// json.NewEncoder(w).Encode(db) writes, trailing newline included, but
// without reflection and without holding the document. Each table is
// cut into chunks of chunkRows rows, encoded on GOMAXPROCS goroutines
// with at most two chunks per goroutine in flight, and written in
// order; w takes writes of at most flushAt bytes, from the calling
// goroutine only.
//
// It fails where encoding/json fails: on a NaN or infinite float, and
// on a time that RFC 3339 cannot hold, with the error of the first such
// row in document order. Unlike encoding/json, it may have written a
// prefix of the document to w by then, though nothing from that row
// on. A caller that must not leave a partial dataset behind writes
// through atomicio, as Study.WriteJSONFile does, or discards w on error.
func (db *DB) WriteJSON(w io.Writer) error {
	e := encoder{w: w}
	meta, err := json.Marshal(db.Meta)
	if err != nil {
		return fmt.Errorf("dataset: encode: %w", err)
	}
	e.buf = append(e.buf, `{"Meta":`...)
	e.buf = append(e.buf, meta...)
	encodeTable(&e, `,"Tests":`, db.Tests, (*encoder).test)
	encodeTable(&e, `,"Throughput":`, db.Throughput, (*encoder).throughput)
	encodeTable(&e, `,"RTT":`, db.RTT, (*encoder).rtt)
	encodeTable(&e, `,"Handovers":`, db.Handovers, (*encoder).handover)
	encodeTable(&e, `,"AppRuns":`, db.AppRuns, (*encoder).appRun)
	encodeTable(&e, `,"Passive":`, db.Passive, (*encoder).coverage)
	e.buf = append(e.buf, "}\n"...)
	e.flush()
	return e.err
}

// encoder appends canonical dataset JSON to buf. The first error
// sticks: later output is still appended but never written.
type encoder struct {
	w   io.Writer
	buf []byte
	err error
}

func (e *encoder) fail(err error) {
	if e.err == nil {
		e.err = fmt.Errorf("dataset: encode: %w", err)
	}
}

// flush writes the buffer to w in writes of at most flushAt bytes,
// unless an error came first, and empties it.
func (e *encoder) flush() {
	for p := e.buf; len(p) > 0 && e.err == nil; p = p[min(len(p), flushAt):] {
		if _, err := e.w.Write(p[:min(len(p), flushAt)]); err != nil {
			e.err = fmt.Errorf("dataset: write: %w", err)
		}
	}
	e.buf = e.buf[:0]
}

// encodeTable writes the array under key with one row function per
// element: a nil table is null and an empty one [], as with
// encoding/json.
func encodeTable[T any](e *encoder, key string, rows []T, row func(*encoder, *T)) {
	e.buf = append(e.buf, key...)
	if rows == nil {
		e.buf = append(e.buf, "null"...)
		return
	}
	e.buf = append(e.buf, '[')
	if len(rows) > 0 {
		encodeChunks(e, rows, row)
	}
	e.buf = append(e.buf, ']')
}

// A chunk is the encoding of rows i·chunkRows up to (i+1)·chunkRows, or
// the error of its first row that has no JSON form.
type chunk struct {
	i   int
	buf []byte
	err error
}

// encodeChunks writes the non-empty rows, cut into chunks. Workers take
// chunks from jobs and pass chunk i back through slot i mod 2×workers.
// The caller writes the chunks in order while later ones are encoded,
// and only once it has written chunk i does it queue chunk
// i+2×workers, with chunk i's buffer to reuse. So at most two chunks
// per worker are in flight, and writing stops at the first chunk that
// failed: its error is that of the first failing row in document order.
func encodeChunks[T any](e *encoder, rows []T, row func(*encoder, *T)) {
	if e.flush(); e.err != nil {
		return
	}
	chunks := (len(rows) + chunkRows - 1) / chunkRows
	workers := min(chunks, runtime.GOMAXPROCS(0))
	slots := make([]chan chunk, min(2*workers, chunks))
	for k := range slots {
		slots[k] = make(chan chunk, 1)
	}
	// At most one queued chunk per slot, so sends to jobs never block,
	// and a chunk is queued only once its slot is empty, so neither do
	// sends to a slot.
	jobs := make(chan chunk, len(slots))
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range jobs {
				ce := encoder{buf: c.buf[:0]}
				for r := c.i * chunkRows; r < min((c.i+1)*chunkRows, len(rows)); r++ {
					if r > 0 {
						ce.buf = append(ce.buf, ',')
					}
					row(&ce, &rows[r])
				}
				slots[c.i%len(slots)] <- chunk{c.i, ce.buf, ce.err}
			}
		}()
	}
	defer func() {
		close(jobs)
		wg.Wait()
	}()
	for i := range slots {
		jobs <- chunk{i: i}
	}
	for i := range chunks {
		c := <-slots[i%len(slots)]
		if c.err != nil {
			e.err = c.err
			return
		}
		e.buf, c.buf = c.buf, e.buf
		if e.flush(); e.err != nil {
			return
		}
		if next := i + len(slots); next < chunks {
			jobs <- chunk{i: next, buf: c.buf}
		}
	}
}

func (e *encoder) key(s string) { e.buf = append(e.buf, s...) }

func (e *encoder) int(n int) { e.buf = strconv.AppendInt(e.buf, int64(n), 10) }

func (e *encoder) bool(b bool) { e.buf = strconv.AppendBool(e.buf, b) }

// float formats f as encoding/json does: like ES6's number to string,
// 'f' format unless the magnitude needs an exponent, and exponents
// without a leading zero. NaN and the infinities have no JSON form.
func (e *encoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		e.fail(fmt.Errorf("unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64)))
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.buf = strconv.AppendFloat(e.buf, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		b := e.buf
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			e.buf = b[:n-1]
		}
	}
}

// plainByte marks the bytes encoding/json copies into a string literal
// unescaped: printable ASCII other than the quote, the backslash and
// the HTML-sensitive <, > and &.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < 0x7f; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// str writes s as a string literal. A string with any byte that needs
// escaping, or any non-ASCII byte, goes through encoding/json.
func (e *encoder) str(s string) {
	for i := 0; i < len(s); i++ {
		if !plainByte[s[i]] {
			lit, _ := json.Marshal(s) // a string always marshals
			e.buf = append(e.buf, lit...)
			return
		}
	}
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, s...)
	e.buf = append(e.buf, '"')
}

// time writes t as time.Time.MarshalJSON does. A UTC time is formatted
// in place when its year has four digits, the one check MarshalJSON
// makes on a UTC time; any other time goes through MarshalJSON, errors
// included.
func (e *encoder) time(t time.Time) {
	if t.Location() == time.UTC {
		n := len(e.buf)
		e.buf = append(e.buf, '"')
		e.buf = t.AppendFormat(e.buf, time.RFC3339Nano)
		if e.buf[n+1+len("9999")] == '-' {
			e.buf = append(e.buf, '"')
			return
		}
		e.buf = e.buf[:n]
	}
	lit, err := t.MarshalJSON()
	if err != nil {
		e.fail(err)
		return
	}
	e.buf = append(e.buf, lit...)
}

// The row functions below write each struct's fields in declaration
// order, the order decode.go's row functions expect.

func (e *encoder) test(t *Test) {
	e.key(`{"ID":`)
	e.int(t.ID)
	e.key(`,"Kind":`)
	e.int(int(t.Kind))
	e.key(`,"Op":`)
	e.int(int(t.Op))
	e.key(`,"Start":`)
	e.time(t.Start)
	e.key(`,"End":`)
	e.time(t.End)
	e.key(`,"StartOdo":`)
	e.float(float64(t.StartOdo))
	e.key(`,"EndOdo":`)
	e.float(float64(t.EndOdo))
	e.key(`,"Server":`)
	e.str(t.Server)
	e.key(`,"Edge":`)
	e.bool(t.Edge)
	e.key(`,"Static":`)
	e.bool(t.Static)
	e.key(`,"Timezone":`)
	e.int(int(t.Timezone))
	e.key(`}`)
}

func (e *encoder) throughput(s *ThroughputSample) {
	e.key(`{"TestID":`)
	e.int(s.TestID)
	e.key(`,"Time":`)
	e.time(s.Time)
	e.key(`,"Op":`)
	e.int(int(s.Op))
	e.key(`,"Dir":`)
	e.int(int(s.Dir))
	e.key(`,"Mbps":`)
	e.float(s.Mbps)
	e.key(`,"Tech":`)
	e.int(int(s.Tech))
	e.key(`,"RSRP":`)
	e.float(s.RSRP)
	e.key(`,"SINR":`)
	e.float(s.SINR)
	e.key(`,"MCS":`)
	e.int(s.MCS)
	e.key(`,"CC":`)
	e.int(s.CC)
	e.key(`,"BLER":`)
	e.float(s.BLER)
	e.key(`,"Load":`)
	e.float(s.Load)
	e.key(`,"SpeedMPH":`)
	e.float(s.SpeedMPH)
	e.key(`,"Odometer":`)
	e.float(float64(s.Odometer))
	e.key(`,"Timezone":`)
	e.int(int(s.Timezone))
	e.key(`,"Region":`)
	e.int(int(s.Region))
	e.key(`,"Handovers":`)
	e.int(s.Handovers)
	e.key(`,"CellID":`)
	e.str(s.CellID)
	e.key(`,"Edge":`)
	e.bool(s.Edge)
	e.key(`,"Static":`)
	e.bool(s.Static)
	e.key(`}`)
}

func (e *encoder) rtt(s *RTTSample) {
	e.key(`{"TestID":`)
	e.int(s.TestID)
	e.key(`,"Time":`)
	e.time(s.Time)
	e.key(`,"Op":`)
	e.int(int(s.Op))
	e.key(`,"RTTMS":`)
	e.float(s.RTTMS)
	e.key(`,"Lost":`)
	e.bool(s.Lost)
	e.key(`,"Tech":`)
	e.int(int(s.Tech))
	e.key(`,"SpeedMPH":`)
	e.float(s.SpeedMPH)
	e.key(`,"Odometer":`)
	e.float(float64(s.Odometer))
	e.key(`,"Timezone":`)
	e.int(int(s.Timezone))
	e.key(`,"Edge":`)
	e.bool(s.Edge)
	e.key(`,"Static":`)
	e.bool(s.Static)
	e.key(`}`)
}

func (e *encoder) handover(h *Handover) {
	e.key(`{"TestID":`)
	e.int(h.TestID)
	e.key(`,"Time":`)
	e.time(h.Time)
	e.key(`,"Op":`)
	e.int(int(h.Op))
	e.key(`,"DurationMS":`)
	e.float(h.DurationMS)
	e.key(`,"FromTech":`)
	e.int(int(h.FromTech))
	e.key(`,"ToTech":`)
	e.int(int(h.ToTech))
	e.key(`,"Odometer":`)
	e.float(float64(h.Odometer))
	e.key(`}`)
}

func (e *encoder) appRun(r *AppRun) {
	e.key(`{"TestID":`)
	e.int(r.TestID)
	e.key(`,"Kind":`)
	e.int(int(r.Kind))
	e.key(`,"Op":`)
	e.int(int(r.Op))
	e.key(`,"Start":`)
	e.time(r.Start)
	e.key(`,"Compressed":`)
	e.bool(r.Compressed)
	e.key(`,"E2EMS":`)
	e.float(r.E2EMS)
	e.key(`,"OffloadFPS":`)
	e.float(r.OffloadFPS)
	e.key(`,"MAP":`)
	e.float(r.MAP)
	e.key(`,"QoE":`)
	e.float(r.QoE)
	e.key(`,"AvgBitrate":`)
	e.float(r.AvgBitrate)
	e.key(`,"RebufferFrac":`)
	e.float(r.RebufferFrac)
	e.key(`,"SendBitrate":`)
	e.float(r.SendBitrate)
	e.key(`,"NetLatencyMS":`)
	e.float(r.NetLatencyMS)
	e.key(`,"FrameDropFrac":`)
	e.float(r.FrameDropFrac)
	e.key(`,"HighSpeedFrac":`)
	e.float(r.HighSpeedFrac)
	e.key(`,"Edge":`)
	e.bool(r.Edge)
	e.key(`,"Handovers":`)
	e.int(r.Handovers)
	e.key(`,"Static":`)
	e.bool(r.Static)
	e.key(`}`)
}

func (e *encoder) coverage(s *CoverageSample) {
	e.key(`{"Time":`)
	e.time(s.Time)
	e.key(`,"Op":`)
	e.int(int(s.Op))
	e.key(`,"Tech":`)
	e.int(int(s.Tech))
	e.key(`,"CellID":`)
	e.str(s.CellID)
	e.key(`,"Odometer":`)
	e.float(float64(s.Odometer))
	e.key(`,"Timezone":`)
	e.int(int(s.Timezone))
	e.key(`,"SpeedMPH":`)
	e.float(s.SpeedMPH)
	e.key(`}`)
}
