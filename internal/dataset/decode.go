package dataset

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/bits"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/unit"
)

// ReadJSON loads a database written by WriteJSON. It reads r to EOF.
//
// Input in the exact layout WriteJSON emits is decoded without
// reflection, each long table in ranges on GOMAXPROCS goroutines;
// anything else goes through encoding/json, which defines the result:
// the same DB, or an error, for every input. As with a json.Decoder,
// bytes after the top-level value are ignored.
//
// A row whose operator, direction, technology or timezone is not one of
// the study's is an error, as the CSV readers reject a name they do not
// know: the analysis indexes its tables by these fields.
func ReadJSON(r io.Reader) (*DB, error) {
	b, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("dataset: read: %w", err)
	}
	db, ok := decodeCanonical(b)
	if !ok {
		db = new(DB)
		if err := json.NewDecoder(bytes.NewReader(b)).Decode(db); err != nil {
			return nil, fmt.Errorf("dataset: decode: %w", err)
		}
	}
	if err := db.checkEnums(); err != nil {
		return nil, fmt.Errorf("dataset: decode: %w", err)
	}
	return db, nil
}

// checkEnums returns an error naming the first row, table by table,
// whose operator, direction, technology or timezone lies outside the
// study's.
func (db *DB) checkEnums() error {
	var err error
	check := func(table string, row int, field string, v, n int) {
		if err == nil && (v < 0 || v >= n) {
			err = fmt.Errorf("%s row %d: %s %d is not one of the study's", table, row, field, v)
		}
	}
	const ops, dirs, techs, zones = radio.NumOperators, radio.NumDirections, radio.NumTechnologies, geo.NumTimezones
	for i := range db.Tests {
		t := &db.Tests[i]
		check("Tests", i, "operator", int(t.Op), ops)
		check("Tests", i, "timezone", int(t.Timezone), zones)
	}
	for i := range db.Throughput {
		s := &db.Throughput[i]
		check("Throughput", i, "operator", int(s.Op), ops)
		check("Throughput", i, "direction", int(s.Dir), dirs)
		check("Throughput", i, "technology", int(s.Tech), techs)
		check("Throughput", i, "timezone", int(s.Timezone), zones)
	}
	for i := range db.RTT {
		s := &db.RTT[i]
		check("RTT", i, "operator", int(s.Op), ops)
		check("RTT", i, "technology", int(s.Tech), techs)
		check("RTT", i, "timezone", int(s.Timezone), zones)
	}
	for i := range db.Handovers {
		h := &db.Handovers[i]
		check("Handovers", i, "operator", int(h.Op), ops)
		check("Handovers", i, "technology", int(h.FromTech), techs)
		check("Handovers", i, "technology", int(h.ToTech), techs)
	}
	for i := range db.AppRuns {
		check("AppRuns", i, "operator", int(db.AppRuns[i].Op), ops)
	}
	for i := range db.Passive {
		s := &db.Passive[i]
		check("Passive", i, "operator", int(s.Op), ops)
		check("Passive", i, "technology", int(s.Tech), techs)
		check("Passive", i, "timezone", int(s.Timezone), zones)
	}
	return err
}

// readAll returns the rest of r's bytes. A reader that can read at an
// offset and knows where it is and how long it is (a *bytes.Reader, a
// *strings.Reader, a regular *os.File) is read into one buffer by
// GOMAXPROCS concurrent ReadAt calls, each filling its own stretch, and
// left at its end, as a copy would leave it. Any other reader is copied
// once: io.Copy lets a reader with a WriteTo hand over its bytes in one
// write, where io.ReadAll would regrow its buffer many times.
func readAll(r io.Reader) ([]byte, error) {
	if ra, ok := r.(readerAtSeeker); ok {
		if size, ok := sizeOf(r); ok {
			if at, err := ra.Seek(0, io.SeekCurrent); err == nil && at <= size {
				return readAt(ra, at, size)
			}
		}
	}
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, r); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

type readerAtSeeker interface {
	io.ReaderAt
	io.Seeker
}

// sizeOf reports the length of a reader that knows it: a Size method,
// or a regular file's Stat.
func sizeOf(r io.Reader) (int64, bool) {
	switch f := r.(type) {
	case interface{ Size() int64 }:
		return f.Size(), true
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := f.Stat(); err == nil && fi.Mode().IsRegular() {
			return fi.Size(), true
		}
	}
	return 0, false
}

// readAt reads r's bytes from offset at up to size into one buffer, in
// stretches of at least splitBytes on up to GOMAXPROCS goroutines, and
// then seeks r to size. A stretch that reads short is an error.
func readAt(r readerAtSeeker, at, size int64) ([]byte, error) {
	b := make([]byte, size-at)
	parts := min(max(len(b)/splitBytes, 1), runtime.GOMAXPROCS(0))
	errs := make([]error, parts)
	parallel(parts, func(i int) bool {
		lo, hi := len(b)*i/parts, len(b)*(i+1)/parts
		n, err := r.ReadAt(b[lo:hi], at+int64(lo))
		if n < hi-lo {
			if err == nil || err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			errs[i] = err
			return false
		}
		return true
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if _, err := r.Seek(size, io.SeekStart); err != nil {
		return nil, err
	}
	return b, nil
}

// decodeCanonical decodes b when it holds WriteJSON's layout: keys in
// struct-field order, no whitespace. It reports false, and no DB, on
// the first byte it does not expect, so that the caller can fall back
// to encoding/json. Whatever it accepts, encoding/json accepts with
// the same result.
func decodeCanonical(b []byte) (*DB, bool) {
	db, tables, ok := splitCanonical(b)
	if !ok || !parseTables(tables) {
		return nil, false
	}
	return db, true
}

// splitCanonical decodes b's Meta into a new DB, and finds each table
// and cuts it into ranges without parsing a row.
func splitCanonical(b []byte) (*DB, []rangeSet, bool) {
	c := cursor{b: b, ok: true}
	var db DB
	c.key(`{"Meta":`)
	if meta := c.object(); !c.ok || json.Unmarshal(meta, &db.Meta) != nil {
		return nil, nil, false
	}
	tables := []rangeSet{
		table(&c, &db.Tests, `,"Tests":`, `{"ID":`, (*cursor).test),
		table(&c, &db.Throughput, `,"Throughput":`, `{"TestID":`, (*cursor).throughput),
		table(&c, &db.RTT, `,"RTT":`, `{"TestID":`, (*cursor).rtt),
		table(&c, &db.Handovers, `,"Handovers":`, `{"TestID":`, (*cursor).handover),
		table(&c, &db.AppRuns, `,"AppRuns":`, `{"TestID":`, (*cursor).appRun),
		table(&c, &db.Passive, `,"Passive":`, `{"Time":`, (*cursor).coverage),
	}
	c.key(`}`)
	return &db, tables, c.ok
}

// parseTables counts the rows of every table's ranges, allocates the
// tables, and parses the ranges into them. The ranges of all tables
// share one pool of workers, so that a short table runs beside the long
// ones. It reports whether every range parsed.
func parseTables(tables []rangeSet) bool {
	type job struct {
		t rangeSet
		r int
	}
	var jobs []job
	for _, t := range tables {
		for r := range t.ranges() {
			jobs = append(jobs, job{t, r})
		}
	}
	parallel(len(jobs), func(j int) bool {
		jobs[j].t.count(jobs[j].r)
		return true
	})
	for _, t := range tables {
		t.alloc()
	}
	return parallel(len(jobs), func(j int) bool { return jobs[j].t.parse(jobs[j].r) })
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

// splitBytes is the least extent, in bytes, of a range that a table is
// cut into for parsing on its own goroutine; a shorter table is one
// range.
const splitBytes = 64 << 10

// rangeCount is the number of ranges a table whose extent is n bytes is
// cut into: one per GOMAXPROCS, each of at least splitBytes. Tests
// replace it to cut tables down to single rows.
var rangeCount = func(n int) int { return min(max(n/splitBytes, 1), runtime.GOMAXPROCS(0)) }

// table finds the array under key, whose rows each start with the
// literal first, and cuts it into ranges for parsing into *dst with one
// row function per element. null gives a nil slice and [] an empty one,
// as with encoding/json; then, and on a malformed table, it returns an
// empty rangeSet.
//
// The table's extent runs to its first ']'. It is cut into ranges just
// after a "}," that first follows: a separator "},"+first. Each range
// holds one row more than the separators inside it, and is parsed with
// its own cursor and intern map. A cut inside a string, or a ']' inside
// a string that ends the extent early, makes some range stop short of
// its end, run past it, or parse a different number of rows than its
// separators promise; that fails the whole input over to encoding/json.
func table[T any](c *cursor, dst *[]T, key, first string, row func(*cursor, *T)) rangeSet {
	c.key(key)
	if !c.ok || c.accept("null") {
		return &rowRanges[T]{}
	}
	c.key("[")
	if !c.ok || c.accept("]") {
		*dst = []T{}
		return &rowRanges[T]{}
	}
	end := bytes.IndexByte(c.b[c.i:], ']')
	if end < 0 {
		c.fail()
		return &rowRanges[T]{}
	}
	end += c.i
	sep := []byte("}," + first)
	t := &rowRanges[T]{b: c.b[:end], cuts: cutRanges(c.b[:end], c.i, sep), sep: sep, dst: dst, row: row}
	t.offs = make([]int, len(t.cuts))
	c.i = end
	c.key("]")
	return t
}

// A rangeSet is one table, cut into ranges that can be counted, and
// then parsed, each on its own goroutine.
type rangeSet interface {
	ranges() int
	count(r int)      // counts the rows of range r
	alloc()           // allocates the table once the ranges are counted
	parse(r int) bool // decodes range r into its rows of the table
}

// rowRanges is the rangeSet of a table of Ts. Range r is
// b[cuts[r]:cuts[r+1]]; after alloc its rows are
// (*dst)[offs[r]:offs[r+1]].
type rowRanges[T any] struct {
	b    []byte
	cuts []int
	sep  []byte
	offs []int
	dst  *[]T
	row  func(*cursor, *T)
}

func (t *rowRanges[T]) ranges() int { return max(len(t.cuts)-1, 0) }

func (t *rowRanges[T]) count(r int) {
	t.offs[r+1] = bytes.Count(t.b[t.cuts[r]:t.cuts[r+1]], t.sep) + 1
}

// alloc sizes the table at its exact row count: at most one row per
// eight input bytes, within encoding/json's one per three for
// "[{},{},…]".
func (t *rowRanges[T]) alloc() {
	if t.ranges() == 0 {
		return
	}
	for r := 1; r < len(t.offs); r++ {
		t.offs[r] += t.offs[r-1]
	}
	*t.dst = make([]T, t.offs[len(t.offs)-1])
}

func (t *rowRanges[T]) parse(r int) bool {
	c := cursor{b: t.b[:t.cuts[r+1]], i: t.cuts[r], ok: true, ids: map[string]string{}}
	rows := (*t.dst)[t.offs[r]:t.offs[r+1]]
	last := r == t.ranges()-1
	for j := range rows {
		t.row(&c, &rows[j])
		if !last || j < len(rows)-1 {
			c.key(",")
		}
	}
	return c.ok && c.i == len(c.b)
}

// cutRanges returns the bounds of the rangeCount ranges that b[start:]
// is parsed in: start, then the index just past the "}," of the first
// sep at or after each even share of the extent, then len(b).
func cutRanges(b []byte, start int, sep []byte) []int {
	n := rangeCount(len(b) - start)
	cuts := make([]int, 1, n+1)
	cuts[0] = start
	for k := 1; k < n; k++ {
		from := max(start+k*(len(b)-start)/n, cuts[len(cuts)-1])
		at := bytes.Index(b[from:], sep)
		if at < 0 {
			break
		}
		cuts = append(cuts, from+at+len("},"))
	}
	return append(cuts, len(b))
}

// parallel calls fn(0) … fn(n-1) on up to GOMAXPROCS goroutines, the
// calling one included, and reports whether every call returned true.
// After the first false it starts no further calls.
func parallel(n int, fn func(int) bool) bool {
	var next atomic.Int64
	var failed atomic.Bool
	work := func() {
		for !failed.Load() {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			if !fn(i) {
				failed.Store(true)
			}
		}
	}
	var wg sync.WaitGroup
	for range min(n, runtime.GOMAXPROCS(0)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return !failed.Load()
}

// number consumes a JSON number and returns its bytes. When the number
// has no exponent and at most 19 digits, plain is true, mant holds its
// digits read as one integer and frac the count of them after the
// point: the number is ±mant/10^frac.
func (c *cursor) number() (num []byte, mant uint64, frac int, plain bool) {
	b, i := c.b, c.i
	digits := func() int {
		start := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			mant = mant*10 + uint64(b[i]-'0')
			i++
		}
		return i - start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	nd := 0
	switch {
	case i < len(b) && b[i] == '0':
		i++
		nd = 1
	default:
		if nd = digits(); nd == 0 {
			c.fail()
			return nil, 0, 0, false
		}
	}
	if i < len(b) && b[i] == '.' {
		i++
		if frac = digits(); frac == 0 {
			c.fail()
			return nil, 0, 0, false
		}
	}
	plain = nd+frac <= 19
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if digits() == 0 {
			c.fail()
			return nil, 0, 0, false
		}
		plain = false
	}
	num = b[c.i:i]
	c.i = i
	return num, mant, frac, plain
}

func (c *cursor) float() float64 {
	num, mant, frac, plain := c.number()
	if !c.ok {
		return 0
	}
	if plain {
		f := decimal(mant, frac)
		if num[0] == '-' {
			f = -f
		}
		return f
	}
	f, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		c.fail()
	}
	return f
}

func (c *cursor) int() int {
	num, mant, frac, plain := c.number()
	if !c.ok {
		return 0
	}
	if plain && frac == 0 && mant <= math.MaxInt {
		n := int(mant)
		if num[0] == '-' {
			n = -n
		}
		return n
	}
	n, err := strconv.ParseInt(string(num), 10, 64)
	if err != nil || int64(int(n)) != n {
		c.fail()
	}
	return int(n)
}

// pow10 holds the powers of ten a uint64 holds, 10^0 to 10^19.
var pow10 = func() (t [20]uint64) {
	t[0] = 1
	for k := 1; k < len(t); k++ {
		t[k] = 10 * t[k-1]
	}
	return t
}()

// decimal returns mant/10^frac, for frac ≤ 19, rounded to the nearest
// float64 with ties to even: the value strconv.ParseFloat gives, which
// rounds correctly. It divides mant, shifted left so that the 128-bit
// quotient has 63 or 64 bits, by 10^frac, and rounds the quotient to
// 53 bits with its remainder as the sticky bit.
func decimal(mant uint64, frac int) float64 {
	if mant == 0 {
		return 0
	}
	d := pow10[frac]
	s := 63 + bits.Len64(d) - bits.Len64(mant) // 0 ≤ s ≤ 126
	var hi, lo uint64
	if s < 64 {
		hi, lo = mant>>(64-s), mant<<s
	} else {
		hi = mant << (s - 64)
	}
	// mant·2^s < 2^(63+len(d)) ≤ d·2^64, so hi < d and the quotient
	// fits; it is at least 2^62.
	q, r := bits.Div64(hi, lo, d)
	shift := bits.Len64(q) - 53
	m, rest, half := q>>shift, q&(1<<shift-1), uint64(1)<<(shift-1)
	if rest > half || rest == half && (r != 0 || m&1 == 1) {
		m++
		if m == 1<<53 {
			m >>= 1
			shift++
		}
	}
	// The value is m·2^(shift-s), with 2^52 ≤ m < 2^53.
	return math.Float64frombits(uint64(shift-s+52+1023)<<52 | m&(1<<52-1))
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

// time decodes a timestamp as encoding/json does, with
// (*time.Time).UnmarshalJSON. The UTC stamps WriteJSON writes take a
// shortcut with the same result; any other literal falls back.
func (c *cursor) time() time.Time {
	lit, plain := c.literal()
	if !c.ok || !plain {
		c.fail()
		return time.Time{}
	}
	if t, ok := utcStamp(lit[1 : len(lit)-1]); ok {
		return t
	}
	var t time.Time
	if t.UnmarshalJSON(lit) != nil {
		c.fail()
	}
	return t
}

// utcStamp parses s when it has the layout "YYYY-MM-DDTHH:MM:SS[.f]Z",
// with one to nine fractional digits, and holds a valid date and time.
// The result is == to what (*time.Time).UnmarshalJSON gives for it: the
// same instant, in time.UTC. Any other s reports false.
func utcStamp(s []byte) (time.Time, bool) {
	n := len(s)
	if n < len("2006-01-02T15:04:05Z") || n > len("2006-01-02T15:04:05.999999999Z") || s[n-1] != 'Z' ||
		s[4] != '-' || s[7] != '-' || s[10] != 'T' || s[13] != ':' || s[16] != ':' {
		return time.Time{}, false
	}
	ok := true
	num := func(b []byte) int {
		v := 0
		for _, ch := range b {
			if ch < '0' || ch > '9' {
				ok = false
			}
			v = v*10 + int(ch-'0')
		}
		return v
	}
	year, month, day := num(s[0:4]), num(s[5:7]), num(s[8:10])
	hour, minute, sec := num(s[11:13]), num(s[14:16]), num(s[17:19])
	nsec := 0
	if frac := s[19 : n-1]; len(frac) > 0 {
		if len(frac) < 2 || frac[0] != '.' {
			return time.Time{}, false
		}
		nsec = num(frac[1:])
		for range len("999999999") + 1 - len(frac) {
			nsec *= 10
		}
	}
	if !ok || month < 1 || month > 12 || day < 1 || day > daysIn(month, year) ||
		hour > 23 || minute > 59 || sec > 59 {
		return time.Time{}, false
	}
	return time.Date(year, time.Month(month), day, hour, minute, sec, nsec, time.UTC), true
}

// daysIn is the number of days in month of the proleptic Gregorian year.
func daysIn(month, year int) int {
	switch month {
	case 2:
		if year%4 == 0 && (year%100 != 0 || year%400 == 0) {
			return 29
		}
		return 28
	case 4, 6, 9, 11:
		return 30
	}
	return 31
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
