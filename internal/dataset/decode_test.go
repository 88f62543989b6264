package dataset

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/unit"
)

// referenceDecode is encoding/json's decode followed by the check of
// every row's enumerated fields, which defines ReadJSON's results.
func referenceDecode(b []byte) (*DB, error) {
	var db DB
	if err := json.NewDecoder(bytes.NewReader(b)).Decode(&db); err != nil {
		return nil, err
	}
	if err := db.checkEnums(); err != nil {
		return nil, err
	}
	return &db, nil
}

func encode(t testing.TB, db *DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeVariants are sampleDB variants that WriteJSON can produce: each
// must take the canonical path.
func decodeVariants() map[string]*DB {
	nilTables := sampleDB()
	nilTables.Tests, nilTables.Throughput, nilTables.RTT = nil, nil, nil
	nilTables.Handovers, nilTables.AppRuns, nilTables.Passive = nil, nil, nil

	empty := sampleDB()
	empty.Tests, empty.Throughput, empty.RTT = []Test{}, []ThroughputSample{}, []RTTSample{}
	empty.Handovers, empty.AppRuns, empty.Passive = []Handover{}, []AppRun{}, []CoverageSample{}

	escaped := sampleDB()
	escaped.Throughput[0].CellID = `A&T<>"é`
	escaped.Passive[0].CellID = "tab\there "
	escaped.Tests[0].Server = `back\slash`

	zones := sampleDB()
	zones.Tests[0].Start = zones.Tests[0].Start.In(time.FixedZone("PDT", -7*3600))
	zones.Throughput[1].Time = zones.Throughput[1].Time.In(time.FixedZone("IST", 5*3600+1800))
	zones.Passive[0].Time = time.Date(1969, 12, 31, 23, 59, 59, 999_999_999, time.FixedZone("", -30*60))

	extremes := sampleDB()
	extremes.Throughput[0].Mbps = 1e300
	extremes.Throughput[0].RSRP = -5e-324
	extremes.Throughput[0].MCS = math.MinInt
	extremes.Throughput[1].Handovers = math.MaxInt

	return map[string]*DB{
		"sample": sampleDB(), "nil-tables": nilTables, "empty-tables": empty,
		"escaped": escaped, "zones": zones, "extremes": extremes,
	}
}

// TestDecodeCanonical pins that WriteJSON output takes the fast path
// with the reference result, and that WriteJSON writes the reference
// encoder's bytes. A decoder that always fell back would pass
// FuzzReadJSON; it fails here.
func TestDecodeCanonical(t *testing.T) {
	for name, db := range decodeVariants() {
		checkEncode(t, name, db)
		b := encode(t, db)
		got, ok := decodeCanonical(b)
		if !ok {
			t.Errorf("%s: WriteJSON output fell back to encoding/json", name)
			continue
		}
		want, err := referenceDecode(b)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: canonical decode differs from encoding/json:\n got %+v\nwant %+v", name, got, want)
		}
	}
}

// fuzzSeeds are the FuzzReadJSON corpus: the canonical variants plus
// inputs that must fall back to encoding/json or fail.
func fuzzSeeds(t testing.TB) [][]byte {
	canon := encode(t, sampleDB())
	var seeds [][]byte
	for _, db := range decodeVariants() {
		seeds = append(seeds, encode(t, db))
	}

	var indented bytes.Buffer
	if err := json.Indent(&indented, canon, "", "  "); err != nil {
		t.Fatal(err)
	}
	// Re-encoding through maps sorts every object's keys.
	var generic map[string]any
	if err := json.Unmarshal(canon, &generic); err != nil {
		t.Fatal(err)
	}
	reordered, err := json.Marshal(generic)
	if err != nil {
		t.Fatal(err)
	}
	seeds = append(seeds, indented.Bytes(), reordered,
		append(append([]byte{}, canon...), "}garbage{"...),
		[]byte(" "+string(canon)), []byte("null"), []byte("{}"), []byte(""))
	for _, n := range []int{1, 9, len(canon) / 3, len(canon) / 2, len(canon) - 3, len(canon) - 2} {
		seeds = append(seeds, canon[:n])
	}
	edit := func(old, new string) {
		if !bytes.Contains(canon, []byte(old)) {
			t.Fatalf("seed edit: %q not in the sample encoding", old)
		}
		seeds = append(seeds, []byte(strings.Replace(string(canon), old, new, 1)))
	}
	// The integers at the edges of a 32- and a 64-bit int decode, or
	// overflow, as encoding/json has them on the host's int.
	for _, num := range []string{"1.e5", "01", "1e400", "-", "1E+2", "-0", "0.5e-3", "2.5",
		"2147483648", "-2147483649", "9223372036854775807", "-9223372036854775808", "9223372036854775808"} {
		edit(`"Mbps":42.5`, `"Mbps":`+num)
		edit(`"MCS":15`, `"MCS":`+num)
	}
	edit(`"Time":"2022-08-08T16:00:00Z"`, `"Time":null`)
	edit(`"Edge":false`, `"Edge":null`)
	edit(`"ID":1`, `"id":1`)
	edit(`"CellID":"V-5G-mid-0001"`, "\"CellID\":\"V-5G-\x01\"")
	edit(`"CellID":"V-5G-mid-0001"`, "\"CellID\":\"\xff\xfe\"")
	edit(`"CellID":"V-5G-mid-0001"`, `"CellID":"\u00e9\ud800"`)
	edit(`"Passive":[`, `"Passive":[null,`)
	edit(`,"Static":true}`, `,"Static":true,"Extra":1}`)
	return seeds
}

// splitSizes are the range sizes, in bytes, and chunk sizes, in rows,
// that the codec tests run the decoder and the encoder at: a range or
// chunk per row, odd sizes, one range or chunk per table, and, as 0, the
// defaults.
var splitSizes = [][2]int{{1, 1}, {7, 2}, {333, 3}, {1 << 30, 1 << 30}, {0, 0}}

// atSplit runs fn with tables cut into ranges of size[0] bytes and
// chunks of size[1] rows, whatever GOMAXPROCS is; 0 keeps the default.
func atSplit(size [2]int, fn func()) {
	defer func(f func(int) int, r int) { rangeCount, chunkRows = f, r }(rangeCount, chunkRows)
	if size[0] > 0 {
		rangeCount = func(n int) int { return max(n/size[0], 1) }
	}
	if size[1] > 0 {
		chunkRows = size[1]
	}
	fn()
}

// checkDecode requires ReadJSON, at every split size, to give the
// encoding/json reference's DB for b, or to fail where it fails, and to
// give no more rows than b has bytes.
func checkDecode(t *testing.T, name string, b []byte) {
	t.Helper()
	want, wantErr := referenceDecode(b)
	for _, size := range splitSizes {
		atSplit(size, func() {
			got, err := ReadJSON(bytes.NewReader(b))
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%s at %v: ReadJSON error %v, encoding/json error %v", name, size, err, wantErr)
			}
			if err != nil {
				return
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s at %v: ReadJSON differs from encoding/json:\n got %+v\nwant %+v", name, size, got, want)
			}
			rows := len(got.Tests) + len(got.Throughput) + len(got.RTT) +
				len(got.Handovers) + len(got.AppRuns) + len(got.Passive)
			if rows > len(b) {
				t.Fatalf("%s at %v: %d rows from %d bytes", name, size, rows, len(b))
			}
		})
	}
}

// FuzzReadJSON checks ReadJSON against the encoding/json reference: the
// same DB or an error for every input, and no more rows than bytes,
// with tables split down to single rows and not split at all.
func FuzzReadJSON(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) { checkDecode(t, "input", b) })
}

// longDB is sampleDB with twelve rows in every table but AppRuns, each
// a little different, so that small ranges and chunks cut each table
// many times.
func longDB() *DB {
	db := sampleDB()
	for i := 1; len(db.Passive) < 12; i++ {
		step := time.Duration(i) * time.Second
		db.Tests = append(db.Tests, db.Tests[i%2])
		db.Tests[len(db.Tests)-1].ID += i
		db.Throughput = append(db.Throughput, db.Throughput[i%2])
		db.Throughput[len(db.Throughput)-1].Time = db.Throughput[i%2].Time.Add(step)
		db.RTT = append(db.RTT, db.RTT[i%2])
		db.RTT[len(db.RTT)-1].RTTMS += float64(i) / 3
		db.Handovers = append(db.Handovers, db.Handovers[0])
		db.Handovers[len(db.Handovers)-1].Odometer += unit.Meters(i)
		db.Passive = append(db.Passive, db.Passive[0])
		db.Passive[len(db.Passive)-1].Time = db.Passive[0].Time.Add(step)
	}
	return db
}

// TestDecodeSplitBoundaries feeds the decoder tables whose strings hold
// the text a range cut looks for (escaped, as JSON requires, or raw in
// an invalid document), a ']' that ends a table's extent early, or
// escapes, and tables whose row count is off by one from their
// separators. At every split size each must give the reference result,
// through the fallback where a range fails.
func TestDecodeSplitBoundaries(t *testing.T) {
	for name, edit := range map[string]func(*DB){
		"separator in CellID":     func(db *DB) { db.Passive[5].CellID = `x},{"Time":"2022-08-08T16:00:00Z"` },
		"separator in Server":     func(db *DB) { db.Tests[3].Server = `},{"ID":7,` },
		"separator at CellID end": func(db *DB) { db.Throughput[6].CellID = `},{"TestID":` },
		"bracket in CellID":       func(db *DB) { db.Throughput[3].CellID = "]" },
		"brackets in Server":      func(db *DB) { db.Tests[1].Server = "[]]}" },
		"escapes":                 func(db *DB) { db.Passive[7].CellID = "a\\\"},{\"Time\":\u00e9\t<&>" },
	} {
		db := longDB()
		edit(db)
		checkEncode(t, name, db)
		checkDecode(t, name, encode(t, db))
	}
	canon := string(encode(t, longDB()))
	for name, edit := range map[string][2]string{
		"separator missing its comma": {`},{"Time":`, `}{"Time":`},
		"separator doubled":           {`},{"TestID":`, `},{"TestID":1},{"TestID":`},
		"empty row":                   {`},{"Time":`, `},{},{"Time":`},
		"trailing comma":              {`}],"RTT":`, `},],"RTT":`},
		"row cut short":               {`,"Static":true},{"TestID":`, `},{"TestID":`},
		"raw separator in a string":   {`"CellID":"A-LTE-A-0001"`, `"CellID":"x},{"Time":"y"`},
	} {
		if !strings.Contains(canon, edit[0]) {
			t.Fatalf("%s: %q not in the encoding", name, edit[0])
		}
		checkDecode(t, name, []byte(strings.Replace(canon, edit[0], edit[1], 1)))
		checkDecode(t, name+" everywhere", []byte(strings.ReplaceAll(canon, edit[0], edit[1])))
	}
}

// TestDecimal checks the decoder's float fast path against
// strconv.ParseFloat: random digit strings of every length it takes,
// shortest forms of random floats, and exact halfway points between two
// floats, where rounding ties to even.
func TestDecimal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var inputs []string
	for range 20_000 {
		nd := 1 + rng.Intn(19)
		digits := strconv.FormatUint(1+rng.Uint64()%(pow10[nd]-1), 10)
		if frac := rng.Intn(len(digits) + 1); frac > 0 {
			digits = strings.TrimPrefix(digits[:len(digits)-frac], "0")
			if digits == "" {
				digits = "0"
			}
			digits += "." + strconv.FormatUint(rng.Uint64()%pow10[frac], 10)
		}
		inputs = append(inputs, digits)
		if x := math.Float64frombits(rng.Uint64() &^ (1 << 63)); !math.IsInf(x, 0) && !math.IsNaN(x) {
			inputs = append(inputs, strconv.FormatFloat(x, 'f', -1, 64))
		}
		// (2m+1)·2^(e-1) lies halfway between m·2^e and (m+1)·2^e.
		m := big.NewInt(0).SetUint64(1<<52 | rng.Uint64()&(1<<52-1))
		half := new(big.Rat).SetInt(m.Add(m.Lsh(m, 1), big.NewInt(1)))
		if e := rng.Intn(14) - 12; e < 0 {
			half.Quo(half, new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), uint(-e))))
		} else {
			half.Mul(half, new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), uint(e))))
		}
		inputs = append(inputs, strings.TrimSuffix(strings.TrimRight(half.FloatString(19), "0"), "."))
	}
	inputs = append(inputs, "0", "9007199254740993", "9007199254740995", "18446744073709551615",
		"9999999999999999999", "0.000000000000000001", "1.7976931348623157", "2.2250738585072014")
	plain := 0
	for _, s := range inputs {
		c := cursor{b: []byte(s), ok: true}
		_, mant, frac, ok := c.number()
		if !c.ok || c.i != len(s) {
			t.Fatalf("%q is not a JSON number", s)
		}
		if !ok {
			continue
		}
		plain++
		want, err := strconv.ParseFloat(s, 64)
		if got := decimal(mant, frac); err != nil || got != want {
			t.Fatalf("decimal(%q) = %v, strconv.ParseFloat = %v (%v)", s, got, want, err)
		}
	}
	if plain < len(inputs)/3 {
		t.Errorf("only %d of %d inputs took the fast path", plain, len(inputs))
	}
}

// brokenReaderAt is a bytes.Reader whose ReadAt fails from offset bad
// on: with err, or, when err is nil, by reading short with no error.
type brokenReaderAt struct {
	*bytes.Reader
	bad int64
	err error
}

func (r brokenReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off+int64(len(p)) <= r.bad {
		return r.Reader.ReadAt(p, off)
	}
	n := 0
	if off < r.bad {
		n, _ = r.Reader.ReadAt(p[:r.bad-off], off)
	}
	return n, r.err
}

// TestReadJSONReaderAt pins ReadJSON's ReadAt path to its io.Copy
// path: the same DB from a bytes.Reader read partway, and from a file,
// each left at its end; and a ReaderAt that fails or reads short in the
// middle of a stretch gives a read error.
func TestReadJSONReaderAt(t *testing.T) {
	db := sampleDB()
	for len(db.Passive) < 8000 {
		db.Passive = append(db.Passive, db.Passive...)
	}
	b := encode(t, db)
	want, err := ReadJSON(struct{ io.Reader }{bytes.NewReader(b)})
	if err != nil {
		t.Fatal(err)
	}

	r := bytes.NewReader(append([]byte("xy"), b...))
	if _, err := r.Seek(2, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(r)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("bytes.Reader at offset 2: ReadJSON = %v, want the copied read's DB", err)
	}
	if r.Len() != 0 {
		t.Errorf("bytes.Reader left with %d bytes unread", r.Len())
	}

	path := filepath.Join(t.TempDir(), "db.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err = ReadJSON(f)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("file: ReadJSON = %v, want the copied read's DB", err)
	}
	if at, err := f.Seek(0, io.SeekCurrent); err != nil || at != int64(len(b)) {
		t.Errorf("file left at %d (%v), want %d", at, err, len(b))
	}

	errBroken := errors.New("broken disk")
	for _, tc := range []struct {
		name string
		err  error
		want error
	}{
		{"fails", errBroken, errBroken},
		{"short", nil, io.ErrUnexpectedEOF},
	} {
		r := brokenReaderAt{bytes.NewReader(b), int64(len(b))/2 + 1000, tc.err}
		_, err := ReadJSON(r)
		if err == nil || !strings.HasPrefix(err.Error(), "dataset: read: ") || !errors.Is(err, tc.want) {
			t.Errorf("%s: ReadJSON error %v, want a dataset: read: error wrapping %v", tc.name, err, tc.want)
		}
	}
}

// TestReadJSONRejectsOutOfRange requires ReadJSON to reject a row whose
// operator, direction, technology or timezone lies outside the study's,
// naming the row, in WriteJSON's layout and through encoding/json.
func TestReadJSONRejectsOutOfRange(t *testing.T) {
	for _, tc := range []struct {
		edit func(*DB)
		want string
	}{
		{func(db *DB) { db.Throughput[1].Tech = radio.Technology(radio.NumTechnologies) }, "Throughput row 1: technology 5 "},
		{func(db *DB) { db.Throughput[0].Dir = -1 }, "Throughput row 0: direction -1 "},
		{func(db *DB) { db.RTT[0].Op = radio.Operator(radio.NumOperators) }, "RTT row 0: operator 3 "},
		{func(db *DB) { db.Passive[0].Timezone = geo.Timezone(geo.NumTimezones) }, "Passive row 0: timezone 4 "},
		{func(db *DB) { db.Handovers[0].ToTech = -2 }, "Handovers row 0: technology -2 "},
	} {
		db := sampleDB()
		tc.edit(db)
		b := encode(t, db)
		var indented bytes.Buffer
		if err := json.Indent(&indented, b, "", " "); err != nil {
			t.Fatal(err)
		}
		for _, in := range [][]byte{b, indented.Bytes()} {
			_, err := ReadJSON(bytes.NewReader(in))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("ReadJSON error %v, want one naming %q", err, tc.want)
			}
		}
	}
}
