package dataset

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// referenceDecode is what ReadJSON did before the canonical decoder,
// and what defines its results.
func referenceDecode(b []byte) (*DB, error) {
	var db DB
	if err := json.NewDecoder(bytes.NewReader(b)).Decode(&db); err != nil {
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
	for _, num := range []string{"1.e5", "01", "1e400", "-", "1E+2", "-0", "0.5e-3", "2.5"} {
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

// FuzzReadJSON checks ReadJSON against the encoding/json reference: the
// same DB or an error for every input, and no more rows than bytes.
func FuzzReadJSON(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := ReadJSON(bytes.NewReader(b))
		want, wantErr := referenceDecode(b)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("ReadJSON error %v, encoding/json error %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ReadJSON differs from encoding/json:\n got %+v\nwant %+v", got, want)
		}
		rows := len(got.Tests) + len(got.Throughput) + len(got.RTT) +
			len(got.Handovers) + len(got.AppRuns) + len(got.Passive)
		if rows > len(b) {
			t.Fatalf("%d rows from %d bytes", rows, len(b))
		}
	})
}
