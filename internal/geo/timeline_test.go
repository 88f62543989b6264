package geo

import (
	"testing"
	"time"

	"github.com/nuwins/cellwheels/internal/simrand"
	"github.com/nuwins/cellwheels/internal/unit"
)

func testTimeline(seed int64, limit unit.Meters, hold HoldRule) *Timeline {
	return NewTimeline(DefaultRoute(), DriveConfig{}, simrand.New(seed), TimelineConfig{
		Tick:  50 * time.Millisecond,
		Limit: limit,
		Hold:  hold,
	})
}

// holdWindow is one static hold as a cursor replay shows it.
type holdWindow struct {
	city  string
	ticks int
}

// replay steps one cursor of tl to the end and returns its hold windows
// in trip order (each from its HoldFirst to its HoldLast tick) and the
// final vehicle state.
func replay(tl *Timeline) (holds []holdWindow, final DriveState) {
	cur := tl.Cursor()
	for {
		ts, ok := cur.Next()
		if !ok {
			return holds, final
		}
		if ts.HoldFirst {
			holds = append(holds, holdWindow{city: ts.HoldCity})
		}
		if ts.Hold && len(holds) > 0 {
			holds[len(holds)-1].ticks++
		}
		final = ts.DriveState
	}
}

func TestTimelineCursorsIdentical(t *testing.T) {
	tl := testTimeline(11, 150*unit.Kilometer, HoldRule{MaxCityDistance: 8 * unit.Kilometer, Budget: 2 * time.Minute})
	a, b := tl.Cursor(), tl.Cursor()
	n := 0
	for {
		sa, oka := a.Next()
		sb, okb := b.Next()
		if oka != okb {
			t.Fatalf("cursors disagree on length at tick %d", n)
		}
		if !oka {
			break
		}
		if sa != sb {
			t.Fatalf("tick %d differs:\n  a=%+v\n  b=%+v", n, sa, sb)
		}
		n++
	}
	if got := tl.Ticks(); n != got {
		t.Fatalf("cursor produced %d ticks, Ticks() = %d", n, got)
	}
}

func TestTimelineMatchesPlainDrive(t *testing.T) {
	// Without holds the timeline must replay exactly what a bare Drive
	// from the same root rng produces.
	route := DefaultRoute()
	tl := NewTimeline(route, DriveConfig{}, simrand.New(5), TimelineConfig{
		Tick:  50 * time.Millisecond,
		Limit: 60 * unit.Kilometer,
	})
	drive := NewDrive(route, DriveConfig{}, simrand.New(5))
	cur := tl.Cursor()
	for i := 0; ; i++ {
		ts, ok := cur.Next()
		if !ok {
			break
		}
		if ts.Hold {
			t.Fatalf("hold tick %d without a hold rule", i)
		}
		ds := drive.Step(50 * time.Millisecond)
		if ts.DriveState != ds {
			t.Fatalf("tick %d: timeline %+v, drive %+v", i, ts.DriveState, ds)
		}
	}
}

func TestTimelineHoldWindows(t *testing.T) {
	const budget = 90 * time.Second
	tick := 50 * time.Millisecond
	tl := testTimeline(3, 700*unit.Kilometer, HoldRule{MaxCityDistance: 8 * unit.Kilometer, Budget: budget})
	holds, _ := replay(tl)
	if len(holds) == 0 {
		t.Fatal("no hold windows over 700 km (expected at least Los Angeles)")
	}
	wantTicks := int((budget + tick - 1) / tick)
	for _, h := range holds {
		if h.ticks != wantTicks {
			t.Errorf("city %s: %d hold ticks, want %d", h.city, h.ticks, wantTicks)
		}
		if h.city == "" {
			t.Error("hold window without a city")
		}
	}

	// Replay again and check the annotations: odometer frozen, speed
	// zero, first/last flags bracketing exactly the windows above, and
	// at most one hold per city.
	cur := tl.Cursor()
	seen := map[string]int{}
	var inHold bool
	var holdOdo unit.Meters
	var holdTicks int
	for i := 0; ; i++ {
		ts, ok := cur.Next()
		if !ok {
			break
		}
		if !ts.Hold {
			if inHold {
				t.Fatalf("tick %d: hold ended without HoldLast", i)
			}
			continue
		}
		if ts.Speed != 0 {
			t.Fatalf("tick %d: moving at %v during hold", i, ts.Speed)
		}
		if ts.HoldFirst {
			if inHold {
				t.Fatalf("tick %d: nested hold", i)
			}
			inHold = true
			holdOdo = ts.Odometer
			holdTicks = 0
			seen[ts.HoldCity]++
		}
		if !inHold {
			t.Fatalf("tick %d: hold tick outside a window", i)
		}
		if ts.Odometer != holdOdo {
			t.Fatalf("tick %d: odometer moved during hold (%v -> %v)", i, holdOdo, ts.Odometer)
		}
		holdTicks++
		if ts.HoldLast {
			if holdTicks != wantTicks {
				t.Fatalf("window closed after %d ticks, want %d", holdTicks, wantTicks)
			}
			inHold = false
		}
	}
	if inHold {
		t.Fatal("timeline ended mid-hold")
	}
	if len(seen) != len(holds) {
		t.Fatalf("second replay visited %d cities, first saw %d", len(seen), len(holds))
	}
	for city, n := range seen {
		if n != 1 {
			t.Errorf("city %s held %d times", city, n)
		}
	}
}

func TestTimelineRespectsLimit(t *testing.T) {
	limit := 40 * unit.Kilometer
	tl := testTimeline(7, limit, HoldRule{})
	_, final := replay(tl)
	if final.Odometer < limit {
		t.Fatalf("final odometer %v below limit %v", final.Odometer, limit)
	}
	// One tick of slack: the limit check runs after the step.
	if over := final.Odometer - limit; over > 200*unit.Meter {
		t.Fatalf("overshot limit by %v", over)
	}
}

// TestCursorNextDrivingAllocs pins the per-tick drive path at zero
// allocations: Route.At's candidate scan and town search, Drive.Step, and
// the cursor's hold bookkeeping all run on every tick of every lane.
func TestCursorNextDrivingAllocs(t *testing.T) {
	cur := testTimeline(3, 30*unit.Kilometer, HoldRule{}).Cursor()
	for i := 0; i < 2000; i++ {
		cur.Next()
	}
	avg := testing.AllocsPerRun(2000, func() {
		if _, ok := cur.Next(); !ok {
			t.Fatal("timeline ended")
		}
	})
	if avg != 0 {
		t.Errorf("Cursor.Next allocates %.2f objects per driving tick, want 0", avg)
	}
}
