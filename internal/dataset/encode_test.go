package dataset

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"testing"
	"time"
)

// referenceEncode is what WriteJSON did before the canonical encoder,
// and what defines its output.
func referenceEncode(db *DB) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(db)
	return buf.Bytes(), err
}

// checkEncode requires WriteJSON to write exactly the reference bytes,
// or to fail where the reference fails.
func checkEncode(t *testing.T, name string, db *DB) {
	t.Helper()
	want, wantErr := referenceEncode(db)
	var got bytes.Buffer
	err := db.WriteJSON(&got)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%s: WriteJSON error %v, encoding/json error %v", name, err, wantErr)
	}
	if err != nil {
		return
	}
	if g := got.Bytes(); !bytes.Equal(g, want) {
		i := 0
		for i < len(g) && i < len(want) && g[i] == want[i] {
			i++
		}
		lo := max(0, i-40)
		t.Fatalf("%s: WriteJSON differs from encoding/json at byte %d:\n got …%q\nwant …%q",
			name, i, g[lo:min(len(g), i+40)], want[lo:min(len(want), i+40)])
	}
}

// plant writes one float, one time and one string into db's first
// throughput sample, adding one when there is none, and the string into
// the first test's server name.
func plant(db *DB, x float64, at time.Time, s string) {
	if len(db.Throughput) == 0 {
		db.Throughput = append(db.Throughput, ThroughputSample{})
	}
	db.Throughput[0].Mbps = x
	db.Throughput[0].Time = at
	db.Throughput[0].CellID = s
	if len(db.Tests) > 0 {
		db.Tests[0].Server = s
	}
}

// FuzzWriteJSON checks WriteJSON against the encoding/json reference:
// the same bytes, or an error from both. Each input is FuzzReadJSON's
// kind of document, checked as it decodes, and then again with a float,
// a time and a string planted into it, which reach values no JSON
// document decodes to (NaN, years beyond 9999, zones other than UTC).
func FuzzWriteJSON(f *testing.F) {
	t0 := time.Date(2022, 8, 8, 16, 0, 0, 0, time.UTC)
	for _, s := range fuzzSeeds(f) {
		f.Add(s, 42.5, t0.Unix(), int64(0), true, 0, "V-5G-mid-0001")
	}
	canon := encode(f, sampleDB())
	for _, x := range []float64{
		1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1),
		1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)),
		-1e-6, -1e21, 1e-7, 1e20, 123456789e-15,
		math.Copysign(0, -1), 5e-324, -5e-324, 1e300, math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		f.Add(canon, x, t0.Unix(), int64(0), true, 0, "V-5G-mid-0001")
	}
	for _, year := range []int{-1, 0, 1, 1969, 9999, 10000} {
		sec := time.Date(year, 12, 31, 23, 59, 59, 0, time.UTC).Unix()
		for _, zone := range []struct {
			utc    bool
			offset int
		}{{true, 0}, {false, 0}, {false, -7 * 3600}, {false, 5*3600 + 1800}, {false, 14 * 3600}, {false, 24 * 3600}, {false, -25 * 3600}} {
			f.Add(canon, 42.5, sec, int64(999_999_999), zone.utc, zone.offset, "V-5G-mid-0001")
		}
	}
	for _, s := range []string{
		"", "<>&", `"`, `\`, `A&T<>"é`, "tab\there", "\x00\x01\x1f\x7f", "\n\r",
		"\xff\xfe", "a\xc3", "\u2028\u2029", "é", "\U0001F4F6", "\xed\xa0\x80",
	} {
		f.Add(canon, 42.5, t0.Unix(), int64(0), true, 0, s)
	}
	f.Fuzz(func(t *testing.T, b []byte, x float64, sec, nsec int64, utc bool, offset int, s string) {
		db, err := ReadJSON(bytes.NewReader(b))
		if err != nil {
			return
		}
		at := time.Unix(sec, nsec).UTC()
		if !utc {
			at = at.In(time.FixedZone("Z", offset))
		}
		planted, _ := ReadJSON(bytes.NewReader(b))
		plant(planted, x, at, s)
		for _, size := range splitSizes {
			atSplit(size, func() {
				checkEncode(t, "decoded", db)
				checkEncode(t, "planted", planted)
			})
		}
	})
}

// TestWriteJSONChunkError pins the parallel encoder's error: with a
// table cut into many chunks, a NaN in one chunk and an infinity in a
// later one, WriteJSON returns the error of the first failing row in
// document order, the one a single chunk returns, and writes nothing
// from that row on.
func TestWriteJSONChunkError(t *testing.T) {
	db := sampleDB()
	for len(db.Throughput) < 4000 {
		db.Throughput = append(db.Throughput, db.Throughput[len(db.Throughput)%2])
	}
	const bad = 2345
	// The rows before the bad one end where a table of bad rows ends.
	head := *db
	head.Throughput = db.Throughput[:bad]
	before := bytes.Index(encode(t, &head), []byte(`],"RTT":`))
	good := encode(t, db)
	db.Throughput[bad].Mbps = math.NaN()
	db.Throughput[len(db.Throughput)-1].RSRP = math.Inf(1)

	var whole error
	atSplit([2]int{1 << 30, 1 << 30}, func() { whole = db.WriteJSON(io.Discard) })
	if whole == nil {
		t.Fatal("WriteJSON encoded a NaN")
	}
	for _, rows := range []int{1, 7, 100, chunkRows} {
		atSplit([2]int{0, rows}, func() {
			var w bytes.Buffer
			err := db.WriteJSON(&w)
			if err == nil || err.Error() != whole.Error() {
				t.Errorf("%d-row chunks: error %v, want %v", rows, err, whole)
			}
			if !bytes.HasPrefix(good, w.Bytes()) || w.Len() > before+1 {
				t.Errorf("%d-row chunks: wrote %d bytes, want a prefix of the document ending before byte %d, where the NaN row starts", rows, w.Len(), before+1)
			}
		})
	}
}

// chunkWriter records the size of every write, and fails once it has
// taken failAfter writes when failAfter is positive.
type chunkWriter struct {
	sizes     []int
	total     int
	failAfter int
}

var errChunk = errors.New("chunkWriter: full")

func (w *chunkWriter) Write(p []byte) (int, error) {
	if w.failAfter > 0 && len(w.sizes) == w.failAfter {
		return 0, errChunk
	}
	w.sizes = append(w.sizes, len(p))
	w.total += len(p)
	return len(p), nil
}

// TestWriteJSONStreams pins that WriteJSON hands its output over in
// chunks of about flushAt bytes rather than as one document, and that
// it stops at, and returns, the first write error.
func TestWriteJSONStreams(t *testing.T) {
	db := sampleDB()
	row := db.Throughput[0]
	for len(db.Throughput) < 5000 {
		db.Throughput = append(db.Throughput, row)
	}
	want, err := referenceEncode(db)
	if err != nil {
		t.Fatal(err)
	}
	var w chunkWriter
	if err := db.WriteJSON(&w); err != nil {
		t.Fatal(err)
	}
	if w.total != len(want) || len(w.sizes) < len(want)/(2*flushAt) {
		t.Fatalf("%d bytes in %d writes, want %d bytes in chunks of about %d", w.total, len(w.sizes), len(want), flushAt)
	}
	for i, n := range w.sizes {
		if n > flushAt+1024 {
			t.Errorf("write %d holds %d bytes, want at most a row past %d", i, n, flushAt)
		}
	}

	failing := chunkWriter{failAfter: 2}
	if err := db.WriteJSON(&failing); !errors.Is(err, errChunk) {
		t.Errorf("WriteJSON after a failed write = %v, want %v", err, errChunk)
	}
	if len(failing.sizes) != 2 {
		t.Errorf("WriteJSON went on to %d writes after the failure", len(failing.sizes)-2)
	}
}
