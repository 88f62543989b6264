package dataset

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"strconv"
	"time"

	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/unit"
)

// ReadJSON loads a database written by WriteJSON. It reads r to EOF.
//
// Input in the exact layout WriteJSON emits is decoded without
// reflection; anything else goes through encoding/json, which defines
// the result: the same DB, or an error, for every input. As with a
// json.Decoder, bytes after the top-level value are ignored.
func ReadJSON(r io.Reader) (*DB, error) {
	// io.Copy lets a bytes or strings reader hand over its bytes in one
	// write, where io.ReadAll would regrow its buffer many times. A file
	// reports its size, so the buffer is grown once to hold it all.
	var buf bytes.Buffer
	if f, ok := r.(interface{ Stat() (fs.FileInfo, error) }); ok {
		if fi, err := f.Stat(); err == nil && fi.Mode().IsRegular() {
			buf.Grow(int(fi.Size()) + bytes.MinRead)
		}
	}
	if _, err := io.Copy(&buf, r); err != nil {
		return nil, fmt.Errorf("dataset: read: %w", err)
	}
	b := buf.Bytes()
	if db, ok := decodeCanonical(b); ok {
		return db, nil
	}
	var db DB
	if err := json.NewDecoder(bytes.NewReader(b)).Decode(&db); err != nil {
		return nil, fmt.Errorf("dataset: decode: %w", err)
	}
	return &db, nil
}

// decodeCanonical decodes b when it holds WriteJSON's layout: keys in
// struct-field order, no whitespace. It reports false, and no DB, on
// the first byte it does not expect, so that the caller can fall back
// to encoding/json. Whatever it accepts, encoding/json accepts with
// the same result.
func decodeCanonical(b []byte) (*DB, bool) {
	c := cursor{b: b, ok: true, ids: map[string]string{}}
	var db DB
	c.key(`{"Meta":`)
	if meta := c.object(); !c.ok || json.Unmarshal(meta, &db.Meta) != nil {
		return nil, false
	}
	db.Tests = table(&c, `,"Tests":`, (*cursor).test)
	db.Throughput = table(&c, `,"Throughput":`, (*cursor).throughput)
	db.RTT = table(&c, `,"RTT":`, (*cursor).rtt)
	db.Handovers = table(&c, `,"Handovers":`, (*cursor).handover)
	db.AppRuns = table(&c, `,"AppRuns":`, (*cursor).appRun)
	db.Passive = table(&c, `,"Passive":`, (*cursor).coverage)
	c.key(`}`)
	if !c.ok {
		return nil, false
	}
	return &db, true
}

// cursor walks canonical dataset JSON. Any unexpected byte clears ok;
// later calls then only produce values the caller discards.
type cursor struct {
	b   []byte
	i   int
	ok  bool
	ids map[string]string // interned cell IDs and server names
}

func (c *cursor) fail() { c.ok = false }

// accept consumes the literal s if it comes next.
func (c *cursor) accept(s string) bool {
	if len(c.b)-c.i >= len(s) && string(c.b[c.i:c.i+len(s)]) == s {
		c.i += len(s)
		return true
	}
	return false
}

// key consumes the literal s, which must come next.
func (c *cursor) key(s string) {
	if !c.accept(s) {
		c.fail()
	}
}

// object returns the bytes of the object starting at the cursor,
// matching brackets outside strings. It does not validate them.
func (c *cursor) object() []byte {
	if !c.ok || c.i >= len(c.b) || c.b[c.i] != '{' {
		c.fail()
		return nil
	}
	depth := 0
	for i := c.i; i < len(c.b); i++ {
		switch c.b[i] {
		case '"':
			for i++; i < len(c.b) && c.b[i] != '"'; i++ {
				if c.b[i] == '\\' {
					i++
				}
			}
		case '{', '[':
			depth++
		case '}', ']':
			if depth--; depth == 0 {
				v := c.b[c.i : i+1]
				c.i = i + 1
				return v
			}
		}
	}
	c.fail()
	return nil
}

// table decodes the array under key with one row function per element:
// null gives a nil slice and [] an empty one, as with encoding/json.
func table[T any](c *cursor, key string, row func(*cursor, *T)) []T {
	c.key(key)
	if !c.ok || c.accept("null") {
		return nil
	}
	c.key("[")
	if !c.ok || c.accept("]") {
		return []T{}
	}
	// Size the table once from its row separators up to the first ']',
	// which ends it unless a string holds one: a miscount only costs
	// append growth. Capacity stays within one row per three input
	// bytes, the bound encoding/json has for "[{},{},…]".
	rest := c.b[c.i:]
	if end := bytes.IndexByte(rest, ']'); end >= 0 {
		rest = rest[:end]
	}
	out := make([]T, 0, bytes.Count(rest, []byte("},{"))+1)
	for c.ok {
		var zero T
		out = append(out, zero)
		row(c, &out[len(out)-1])
		if !c.accept(",") {
			c.key("]")
			break
		}
	}
	return out
}

// number consumes a JSON number and returns its bytes.
func (c *cursor) number() []byte {
	b, i := c.b, c.i
	digits := func() bool {
		start := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case !digits():
		c.fail()
		return nil
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			c.fail()
			return nil
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			c.fail()
			return nil
		}
	}
	num := b[c.i:i]
	c.i = i
	return num
}

func (c *cursor) float() float64 {
	num := c.number()
	if !c.ok {
		return 0
	}
	f, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		c.fail()
	}
	return f
}

func (c *cursor) int() int {
	num := c.number()
	if !c.ok {
		return 0
	}
	n, err := strconv.ParseInt(string(num), 10, 64)
	if err != nil || int64(int(n)) != n {
		c.fail()
	}
	return int(n)
}

func (c *cursor) bool() bool {
	if c.accept("true") {
		return true
	}
	if !c.accept("false") {
		c.fail()
	}
	return false
}

// literal consumes a string literal, quotes included, and reports
// whether it holds only printable ASCII without escapes.
func (c *cursor) literal() (lit []byte, plain bool) {
	b := c.b
	if c.i >= len(b) || b[c.i] != '"' {
		c.fail()
		return nil, false
	}
	plain = true
	for i := c.i + 1; i < len(b); i++ {
		switch ch := b[i]; {
		case ch == '"':
			lit = b[c.i : i+1]
			c.i = i + 1
			return lit, plain
		case ch == '\\':
			plain = false
			i++
		case ch < 0x20 || ch >= 0x80:
			plain = false
		}
	}
	c.fail()
	return nil, false
}

// id decodes a string that repeats across rows, such as a cell ID or
// a server name, sharing one copy per distinct value. Escapes and
// non-ASCII bytes go through encoding/json so they decode exactly as
// before.
func (c *cursor) id() string {
	lit, plain := c.literal()
	if !c.ok {
		return ""
	}
	if !plain {
		var s string
		if json.Unmarshal(lit, &s) != nil {
			c.fail()
		}
		return s
	}
	raw := lit[1 : len(lit)-1]
	if s, ok := c.ids[string(raw)]; ok {
		return s
	}
	s := string(raw)
	c.ids[s] = s
	return s
}

// time decodes a timestamp with (*time.Time).UnmarshalJSON, as
// encoding/json does; any other literal falls back.
func (c *cursor) time() time.Time {
	var t time.Time
	lit, plain := c.literal()
	if !c.ok || !plain || t.UnmarshalJSON(lit) != nil {
		c.fail()
	}
	return t
}

// The row functions below expect each struct's fields in declaration
// order, as WriteJSON emits them.

func (c *cursor) test(t *Test) {
	c.key(`{"ID":`)
	t.ID = c.int()
	c.key(`,"Kind":`)
	t.Kind = TestKind(c.int())
	c.key(`,"Op":`)
	t.Op = radio.Operator(c.int())
	c.key(`,"Start":`)
	t.Start = c.time()
	c.key(`,"End":`)
	t.End = c.time()
	c.key(`,"StartOdo":`)
	t.StartOdo = unit.Meters(c.float())
	c.key(`,"EndOdo":`)
	t.EndOdo = unit.Meters(c.float())
	c.key(`,"Server":`)
	t.Server = c.id()
	c.key(`,"Edge":`)
	t.Edge = c.bool()
	c.key(`,"Static":`)
	t.Static = c.bool()
	c.key(`,"Timezone":`)
	t.Timezone = geo.Timezone(c.int())
	c.key(`}`)
}

func (c *cursor) throughput(s *ThroughputSample) {
	c.key(`{"TestID":`)
	s.TestID = c.int()
	c.key(`,"Time":`)
	s.Time = c.time()
	c.key(`,"Op":`)
	s.Op = radio.Operator(c.int())
	c.key(`,"Dir":`)
	s.Dir = radio.Direction(c.int())
	c.key(`,"Mbps":`)
	s.Mbps = c.float()
	c.key(`,"Tech":`)
	s.Tech = radio.Technology(c.int())
	c.key(`,"RSRP":`)
	s.RSRP = c.float()
	c.key(`,"SINR":`)
	s.SINR = c.float()
	c.key(`,"MCS":`)
	s.MCS = c.int()
	c.key(`,"CC":`)
	s.CC = c.int()
	c.key(`,"BLER":`)
	s.BLER = c.float()
	c.key(`,"Load":`)
	s.Load = c.float()
	c.key(`,"SpeedMPH":`)
	s.SpeedMPH = c.float()
	c.key(`,"Odometer":`)
	s.Odometer = unit.Meters(c.float())
	c.key(`,"Timezone":`)
	s.Timezone = geo.Timezone(c.int())
	c.key(`,"Region":`)
	s.Region = geo.Region(c.int())
	c.key(`,"Handovers":`)
	s.Handovers = c.int()
	c.key(`,"CellID":`)
	s.CellID = c.id()
	c.key(`,"Edge":`)
	s.Edge = c.bool()
	c.key(`,"Static":`)
	s.Static = c.bool()
	c.key(`}`)
}

func (c *cursor) rtt(s *RTTSample) {
	c.key(`{"TestID":`)
	s.TestID = c.int()
	c.key(`,"Time":`)
	s.Time = c.time()
	c.key(`,"Op":`)
	s.Op = radio.Operator(c.int())
	c.key(`,"RTTMS":`)
	s.RTTMS = c.float()
	c.key(`,"Lost":`)
	s.Lost = c.bool()
	c.key(`,"Tech":`)
	s.Tech = radio.Technology(c.int())
	c.key(`,"SpeedMPH":`)
	s.SpeedMPH = c.float()
	c.key(`,"Odometer":`)
	s.Odometer = unit.Meters(c.float())
	c.key(`,"Timezone":`)
	s.Timezone = geo.Timezone(c.int())
	c.key(`,"Edge":`)
	s.Edge = c.bool()
	c.key(`,"Static":`)
	s.Static = c.bool()
	c.key(`}`)
}

func (c *cursor) handover(h *Handover) {
	c.key(`{"TestID":`)
	h.TestID = c.int()
	c.key(`,"Time":`)
	h.Time = c.time()
	c.key(`,"Op":`)
	h.Op = radio.Operator(c.int())
	c.key(`,"DurationMS":`)
	h.DurationMS = c.float()
	c.key(`,"FromTech":`)
	h.FromTech = radio.Technology(c.int())
	c.key(`,"ToTech":`)
	h.ToTech = radio.Technology(c.int())
	c.key(`,"Odometer":`)
	h.Odometer = unit.Meters(c.float())
	c.key(`}`)
}

func (c *cursor) appRun(r *AppRun) {
	c.key(`{"TestID":`)
	r.TestID = c.int()
	c.key(`,"Kind":`)
	r.Kind = TestKind(c.int())
	c.key(`,"Op":`)
	r.Op = radio.Operator(c.int())
	c.key(`,"Start":`)
	r.Start = c.time()
	c.key(`,"Compressed":`)
	r.Compressed = c.bool()
	c.key(`,"E2EMS":`)
	r.E2EMS = c.float()
	c.key(`,"OffloadFPS":`)
	r.OffloadFPS = c.float()
	c.key(`,"MAP":`)
	r.MAP = c.float()
	c.key(`,"QoE":`)
	r.QoE = c.float()
	c.key(`,"AvgBitrate":`)
	r.AvgBitrate = c.float()
	c.key(`,"RebufferFrac":`)
	r.RebufferFrac = c.float()
	c.key(`,"SendBitrate":`)
	r.SendBitrate = c.float()
	c.key(`,"NetLatencyMS":`)
	r.NetLatencyMS = c.float()
	c.key(`,"FrameDropFrac":`)
	r.FrameDropFrac = c.float()
	c.key(`,"HighSpeedFrac":`)
	r.HighSpeedFrac = c.float()
	c.key(`,"Edge":`)
	r.Edge = c.bool()
	c.key(`,"Handovers":`)
	r.Handovers = c.int()
	c.key(`,"Static":`)
	r.Static = c.bool()
	c.key(`}`)
}

func (c *cursor) coverage(s *CoverageSample) {
	c.key(`{"Time":`)
	s.Time = c.time()
	c.key(`,"Op":`)
	s.Op = radio.Operator(c.int())
	c.key(`,"Tech":`)
	s.Tech = radio.Technology(c.int())
	c.key(`,"CellID":`)
	s.CellID = c.id()
	c.key(`,"Odometer":`)
	s.Odometer = unit.Meters(c.float())
	c.key(`,"Timezone":`)
	s.Timezone = geo.Timezone(c.int())
	c.key(`,"SpeedMPH":`)
	s.SpeedMPH = c.float()
	c.key(`}`)
}
