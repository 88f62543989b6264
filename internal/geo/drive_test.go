package geo

import (
	"testing"
	"time"

	"github.com/nuwins/cellwheels/internal/simrand"
	"github.com/nuwins/cellwheels/internal/unit"
)

func testDrive(t *testing.T, seed int64) *Drive {
	t.Helper()
	return NewDrive(DefaultRoute(), DefaultDriveConfig(), simrand.New(seed))
}

func TestDriveCompletesRoute(t *testing.T) {
	d := testDrive(t, 1)
	const dt = time.Second
	steps := 0
	for !d.State().Done {
		d.Step(dt)
		steps++
		if steps > 60*60*24*20 { // 20 simulated days of 1 s steps
			t.Fatal("drive never finished")
		}
	}
	if got := d.State().Odometer; got != DefaultRoute().Total() {
		t.Errorf("final odometer = %v, want %v", got, DefaultRoute().Total())
	}
}

func TestDriveOdometerMonotone(t *testing.T) {
	d := testDrive(t, 2)
	prev := unit.Meters(0)
	for i := 0; i < 100000 && !d.State().Done; i++ {
		s := d.Step(time.Second)
		if s.Odometer < prev {
			t.Fatalf("odometer went backwards: %v after %v", s.Odometer, prev)
		}
		prev = s.Odometer
	}
}

func TestDriveTimeMonotone(t *testing.T) {
	d := testDrive(t, 3)
	prev := d.State().Time
	for i := 0; i < 100000 && !d.State().Done; i++ {
		s := d.Step(time.Second)
		if s.Time.Before(prev) {
			t.Fatalf("time went backwards: %v after %v", s.Time, prev)
		}
		prev = s.Time
	}
}

func TestDriveSpansConfiguredDays(t *testing.T) {
	d := testDrive(t, 4)
	maxDay := 0
	for !d.State().Done {
		s := d.Step(2 * time.Second)
		if s.Day > maxDay {
			maxDay = s.Day
		}
	}
	if maxDay != 7 {
		t.Errorf("max day index = %d, want 7 (8-day trip)", maxDay)
	}
}

func TestDriveSpeedsPlausible(t *testing.T) {
	d := testDrive(t, 5)
	var regionMax = map[Region]float64{}
	sawHighwayFast := false
	for !d.State().Done {
		s := d.Step(time.Second)
		mph := s.Speed.MPH()
		if mph < 0 || mph > 95 {
			t.Fatalf("implausible speed %v mph", mph)
		}
		if mph > regionMax[s.Waypoint.Region] {
			regionMax[s.Waypoint.Region] = mph
		}
		if s.Waypoint.Region == Highway && mph > 60 {
			sawHighwayFast = true
		}
	}
	if !sawHighwayFast {
		t.Error("never exceeded 60 mph on highway")
	}
	// Transitional samples entering a city may still carry highway speed,
	// but sustained urban driving stays moderate.
	if regionMax[Urban] > 62 {
		t.Errorf("urban max speed %v mph too high", regionMax[Urban])
	}
}

func TestDriveUrbanStopsHappen(t *testing.T) {
	d := testDrive(t, 6)
	stops := 0
	for i := 0; i < 3600*4 && !d.State().Done; i++ { // first ~4 h covers LA + Vegas
		s := d.Step(time.Second)
		if s.Waypoint.Region == Urban && s.Speed == 0 && s.Odometer > 0 {
			stops++
		}
	}
	if stops == 0 {
		t.Error("no urban stops observed")
	}
}

func TestDriveHold(t *testing.T) {
	d := testDrive(t, 7)
	d.Step(time.Second)
	before := d.State()
	d.hold(30 * time.Second)
	after := d.State()
	if got := after.Time.Sub(before.Time); got != 30*time.Second {
		t.Errorf("hold advanced %v, want 30s", got)
	}
	if after.Odometer != before.Odometer {
		t.Error("hold moved the vehicle")
	}
	if after.Speed != 0 {
		t.Error("hold left nonzero speed")
	}
}

func TestDriveDeterministicPerSeed(t *testing.T) {
	a, b := testDrive(t, 42), testDrive(t, 42)
	for i := 0; i < 5000; i++ {
		sa, sb := a.Step(time.Second), b.Step(time.Second)
		if sa.Odometer != sb.Odometer || sa.Speed != sb.Speed || !sa.Time.Equal(sb.Time) {
			t.Fatalf("step %d: drives diverged", i)
		}
	}
}

func TestDriveSeedsDiffer(t *testing.T) {
	a, b := testDrive(t, 1), testDrive(t, 2)
	same := true
	for i := 0; i < 1000; i++ {
		if a.Step(time.Second).Speed != b.Step(time.Second).Speed {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical speed traces")
	}
}

func TestDriveDoneIsSticky(t *testing.T) {
	d := testDrive(t, 8)
	for !d.State().Done {
		d.Step(5 * time.Second)
	}
	end := d.State()
	after := d.Step(time.Second)
	if !after.Done || after.Odometer != end.Odometer {
		t.Errorf("state changed after Done: %+v", after)
	}
}

func TestDriveLocalTime(t *testing.T) {
	d := testDrive(t, 9)
	s := d.Step(time.Second)
	local := s.Time.In(s.Waypoint.Timezone.Location())
	if local.Hour() != 9 {
		t.Errorf("local start hour = %d, want 9", local.Hour())
	}
	if name, _ := local.Zone(); name != "Pacific" {
		t.Errorf("zone = %q, want Pacific", name)
	}
}

func TestDriveDailyRestartHour(t *testing.T) {
	d := testDrive(t, 10)
	prevDay := 0
	for !d.State().Done {
		s := d.Step(2 * time.Second)
		if s.Day != prevDay {
			local := s.Time.In(s.Waypoint.Timezone.Location())
			if local.Hour() != 9 {
				t.Errorf("day %d restart at local hour %d, want 9", s.Day, local.Hour())
			}
			prevDay = s.Day
		}
	}
}

func TestDriveConfigDefaults(t *testing.T) {
	var cfg DriveConfig
	cfg.applyDefaults()
	if cfg.Days != 8 || cfg.DailyStartLocal != 9 {
		t.Errorf("defaults = %+v", cfg)
	}
	if cfg.StartUTC.IsZero() {
		t.Error("StartUTC not defaulted")
	}
}
