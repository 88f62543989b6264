package xcal

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"
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
		Op:    radio.Verizon,
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

// Test fixtures shared with the recorder tests.

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

// TestDRMGolden pins the .drm bytes WriteDRM renders for a hand-built
// file and for a recorder-produced capture: the container, the EDT
// content stamps and the technology names.
func TestDRMGolden(t *testing.T) {
	capture := goldenCapture()
	if len(capture.Signals) != 1 || len(capture.Rows) < 2 || capture.Rows[0].Tech == capture.Rows[len(capture.Rows)-1].Tech {
		t.Fatalf("golden capture has %d signals and rows on one technology", len(capture.Signals))
	}
	for _, tc := range []struct {
		name string
		file File
		want string
	}{
		{"sampleFile", sampleFile(), "582c0c0e462a72bb5c0423160fa5a340589700704c578a6310e18e9d3b1b0618"},
		{"goldenCapture", capture, "f4fa2348d1a1e9c4c59ede655f518774596164ae00ae5050499fe877dabf3b08"},
	} {
		var buf bytes.Buffer
		if err := tc.file.WriteDRM(&buf); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != tc.want {
			t.Errorf("sha256 of the %s .drm = %s, want %s", tc.name, got, tc.want)
		}
	}
}
