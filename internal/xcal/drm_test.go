package xcal

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/ran"
	"github.com/nuwins/cellwheels/internal/unit"
)

func sampleFile() File {
	at := time.Date(2022, 8, 8, 16, 0, 0, 0, time.UTC)
	return File{
		Name:  "V_DL_20220808_090000.drm",
		Op:    "V",
		Label: "DL",
		Rows: []Row{
			{
				Time: at, Tech: radio.NRMid, CellID: "V-5G-mid-0001",
				RSRP: -95.5, SINR: 12.25, MCS: 15, CCDL: 2, CCUL: 1,
				BLER: 0.05, Load: 0.4, AppMbps: 42.5, InHandover: false,
				Lat: 34.05, Lon: -118.24, SpeedMPH: 65,
			},
			{
				Time: at.Add(500 * time.Millisecond), Tech: radio.LTEA, CellID: "",
				RSRP: -101, InHandover: true,
			},
		},
		Signals: []Signal{
			{Time: at.Add(200 * time.Millisecond), Event: "HO",
				FromTech: radio.NRMid, ToTech: radio.LTEA,
				FromCell: "V-5G-mid-0001", ToCell: "V-LTE-A-0033", DurationMS: 53},
		},
	}
}

func TestDRMRoundTrip(t *testing.T) {
	f := sampleFile()
	var buf bytes.Buffer
	if err := f.WriteDRM(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDRM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f, back) {
		t.Errorf("round trip changed file:\n got %+v\nwant %+v", back, f)
	}
}

func TestDRMRoundTripEmpty(t *testing.T) {
	f := File{Name: "T_RTT_20220810_110000.drm", Op: "T", Label: "RTT"}
	var buf bytes.Buffer
	if err := f.WriteDRM(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDRM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != f.Name || len(back.Rows) != 0 || len(back.Signals) != 0 {
		t.Errorf("round trip = %+v", back)
	}
}

func TestDRMBadMagic(t *testing.T) {
	_, err := ReadDRM(strings.NewReader("NOPE...."))
	if !errors.Is(err, ErrBadDRM) {
		t.Errorf("err = %v, want ErrBadDRM", err)
	}
}

// TestDRMRejectsBadText: the codec reads content stamps and technology
// names back only when they are what WriteDRM renders.
func TestDRMRejectsBadText(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleFile().WriteDRM(&buf); err != nil {
		t.Fatal(err)
	}
	str := func(s string) string { return string(binary.LittleEndian.AppendUint32(nil, uint32(len(s)))) + s }
	for _, tc := range []struct{ name, old, new string }{
		{"row stamp with a decimal comma", "08/08/2022 12:00:00.000", "08/08/2022 12:00:00,000"},
		{"signal stamp past midnight", "08/08/2022 12:00:00.200", "08/08/2022 24:00:00.200"},
		{"unknown technology", str("LTE-A"), str("LTE-B")},
	} {
		data := bytes.ReplaceAll(buf.Bytes(), []byte(tc.old), []byte(tc.new))
		if bytes.Equal(data, buf.Bytes()) {
			t.Fatalf("%s: %q is not in the encoding", tc.name, tc.old)
		}
		if _, err := ReadDRM(bytes.NewReader(data)); !errors.Is(err, ErrBadDRM) {
			t.Errorf("%s: err = %v, want ErrBadDRM", tc.name, err)
		}
	}
}

func TestDRMTruncated(t *testing.T) {
	f := sampleFile()
	var buf bytes.Buffer
	if err := f.WriteDRM(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every truncation point must fail cleanly, never panic.
	for cut := 0; cut < len(full)-1; cut += 7 {
		if _, err := ReadDRM(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestDRMCorruptedLengths(t *testing.T) {
	f := sampleFile()
	var buf bytes.Buffer
	if err := f.WriteDRM(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Blow up the first string length field (bytes 4..8).
	data[4], data[5], data[6], data[7] = 0xff, 0xff, 0xff, 0xff
	if _, err := ReadDRM(bytes.NewReader(data)); !errors.Is(err, ErrBadDRM) {
		t.Errorf("corrupted length: err = %v", err)
	}
}

func TestDRMFuzzRandomBytes(t *testing.T) {
	// Arbitrary byte soup never panics and (except for the vanishingly
	// unlikely valid container) returns an error.
	f := func(data []byte) bool {
		_, err := ReadDRM(bytes.NewReader(data))
		return err != nil || len(data) >= 16
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDRMRecorderIntegration(t *testing.T) {
	// A file produced by the Recorder round-trips through the container.
	rec := NewRecorder(opForTest())
	now := testStart()
	rec.StartFile("UL", now, zoneForTest())
	st := stateForTest()
	for i := 0; i < 20; i++ {
		st.Time = now
		rec.Observe(tickForTest(), st, wpForTest(), 55, 4096)
		now = now.Add(tickForTest())
	}
	f := rec.CloseFile()
	var buf bytes.Buffer
	if err := f.WriteDRM(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDRM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f, back) {
		t.Error("recorder file did not round trip")
	}
}

// Test fixtures shared with the recorder integration test.

func opForTest() radio.Operator  { return radio.TMobile }
func zoneForTest() geo.Timezone  { return geo.Mountain }
func tickForTest() time.Duration { return 50 * time.Millisecond }
func testStart() time.Time       { return time.Date(2022, 8, 10, 18, 0, 0, 0, time.UTC) }
func wpForTest() geo.Waypoint    { return geo.DefaultRoute().At(1200 * unit.Kilometer) }
func stateForTest() ran.LinkState {
	return ran.LinkState{Tech: radio.LTEA, CellID: "T-LTE-A-0100", RSRP: -98, SINR: 14, MCS: 17, CCDL: 3, CCUL: 1, BLER: 0.04, Load: 0.5}
}

// goldenCapture is a recorder-produced capture with rows on two
// technologies and one handover between them. Its instants carry
// sub-millisecond fractions, which the content stamps truncate.
func goldenCapture() File {
	rec := NewRecorder(opForTest())
	now := testStart().Add(123_456_789)
	rec.StartFile("DL", now, zoneForTest())
	st := stateForTest()
	for i := 0; i < 40; i++ {
		if i == 20 {
			rec.LogHandover(ran.HandoverEvent{
				Start: now, Duration: 41 * time.Millisecond,
				FromTech: st.Tech, ToTech: radio.NRMid,
				FromCell: st.CellID, ToCell: "T-5G-mid-0007",
			})
			st.Tech, st.CellID = radio.NRMid, "T-5G-mid-0007"
		}
		st.Time = now
		rec.Observe(tickForTest(), st, wpForTest(), 55, unit.Bytes(4096+i))
		now = now.Add(tickForTest())
	}
	return rec.CloseFile()
}

// TestDRMGolden pins the .drm bytes of a recorder-produced capture: the
// container, the EDT content stamps and the technology names.
func TestDRMGolden(t *testing.T) {
	f := goldenCapture()
	if len(f.Signals) != 1 || len(f.Rows) < 2 || f.Rows[0].Tech == f.Rows[len(f.Rows)-1].Tech {
		t.Fatalf("golden capture has %d signals and rows on one technology", len(f.Signals))
	}
	var buf bytes.Buffer
	if err := f.WriteDRM(&buf); err != nil {
		t.Fatal(err)
	}
	const want = "f4fa2348d1a1e9c4c59ede655f518774596164ae00ae5050499fe877dabf3b08"
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Errorf("sha256 of the golden .drm = %s, want %s", got, want)
	}
}
