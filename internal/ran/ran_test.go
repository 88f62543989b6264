package ran

import (
	"testing"
	"time"

	"github.com/nuwins/cellwheels/internal/deploy"
	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/simrand"
	"github.com/nuwins/cellwheels/internal/unit"
)

func testUE(t *testing.T, op radio.Operator, seed int64) (*UE, *geo.Drive) {
	t.Helper()
	route := geo.DefaultRoute()
	rng := simrand.New(seed)
	m := deploy.NewMap(op, route, rng)
	ue := NewUE(UEConfig{Op: op, Map: m}, rng)
	drive := geo.NewDrive(route, geo.DefaultDriveConfig(), rng)
	return ue, drive
}

const tick = 50 * time.Millisecond

// runFor advances the UE along the drive for the given simulated span.
func runFor(ue *UE, drive *geo.Drive, span time.Duration) []LinkState {
	n := int(span / tick)
	states := make([]LinkState, 0, n)
	for i := 0; i < n; i++ {
		ds := drive.Step(tick)
		states = append(states, ue.Step(ds.Time, ds.Waypoint, ds.Speed.MPH(), tick))
	}
	return states
}

func TestKindOf(t *testing.T) {
	cases := []struct {
		from, to radio.Technology
		want     HandoverKind
	}{
		{radio.LTE, radio.LTEA, Horizontal4G},
		{radio.NRMid, radio.NRMmWave, Horizontal5G},
		{radio.LTEA, radio.NRLow, Up},
		{radio.NRMid, radio.LTE, Down},
	}
	for _, c := range cases {
		if got := KindOf(c.from, c.to); got != c.want {
			t.Errorf("KindOf(%v,%v) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
	want := map[HandoverKind]string{
		Horizontal4G: "4G->4G", Horizontal5G: "5G->5G", Up: "4G->5G", Down: "5G->4G",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("String(%v) = %q", int(k), k.String())
		}
	}
}

func TestUEAttachesAndServes(t *testing.T) {
	ue, drive := testUE(t, radio.Verizon, 1)
	ue.SetTraffic(deploy.HeavyDL, drive.State().Time, drive.State().Waypoint)
	states := runFor(ue, drive, 2*time.Minute)
	withCell, withCap := 0, 0
	for _, s := range states {
		if s.CellID != "" {
			withCell++
		}
		if s.CapacityDL > 0 {
			withCap++
		}
	}
	if float64(withCell) < 0.9*float64(len(states)) {
		t.Errorf("attached in %d/%d ticks", withCell, len(states))
	}
	if float64(withCap) < 0.8*float64(len(states)) {
		t.Errorf("nonzero DL capacity in %d/%d ticks", withCap, len(states))
	}
}

func TestLinkStateFieldsSane(t *testing.T) {
	ue, drive := testUE(t, radio.TMobile, 2)
	ue.SetTraffic(deploy.HeavyDL, drive.State().Time, drive.State().Waypoint)
	for _, s := range runFor(ue, drive, 5*time.Minute) {
		if s.MCS < 0 || s.MCS > radio.MaxMCS {
			t.Fatalf("MCS out of range: %d", s.MCS)
		}
		if s.BLER < 0 || s.BLER > 0.6 {
			t.Fatalf("BLER out of range: %v", s.BLER)
		}
		if s.Load < 0 || s.Load > 0.92 {
			t.Fatalf("load out of range: %v", s.Load)
		}
		if s.CapacityDL < 0 || s.CapacityUL < 0 {
			t.Fatal("negative capacity")
		}
		if s.CCDL < 1 || s.CCUL < 1 {
			t.Fatalf("CC below 1: %d/%d", s.CCDL, s.CCUL)
		}
		if s.CellID != "" && (s.RSRP > -40 || s.RSRP < -140) {
			t.Fatalf("implausible RSRP %v", s.RSRP)
		}
	}
}

func TestHandoversHappenAndInterrupt(t *testing.T) {
	ue, drive := testUE(t, radio.Verizon, 3)
	ue.SetTraffic(deploy.HeavyDL, drive.State().Time, drive.State().Waypoint)
	states := runFor(ue, drive, 20*time.Minute)
	hos := ue.Handovers()
	if len(hos) == 0 {
		t.Fatal("no handovers in 20 minutes of driving")
	}
	// During handover execution the link carries nothing.
	sawInHO := false
	for _, s := range states {
		if s.InHandover {
			sawInHO = true
			if s.CapacityDL != 0 || s.CapacityUL != 0 {
				t.Fatal("capacity nonzero during handover")
			}
		}
	}
	if !sawInHO {
		t.Error("no tick observed inside a handover window")
	}
}

func TestHandoverDurationsMatchPaperScale(t *testing.T) {
	for _, op := range radio.Operators() {
		ue, drive := testUE(t, op, 4)
		ue.SetTraffic(deploy.HeavyDL, drive.State().Time, drive.State().Waypoint)
		runFor(ue, drive, 30*time.Minute)
		hos := ue.Handovers()
		if len(hos) < 5 {
			t.Fatalf("%v: only %d handovers", op, len(hos))
		}
		var durs []float64
		for _, h := range hos {
			ms := unit.Milliseconds(h.Duration)
			if ms <= 5 || ms > 2000 {
				t.Fatalf("%v: handover duration %v ms implausible", op, ms)
			}
			durs = append(durs, ms)
		}
		med := median(durs)
		// Fig 11b: medians 53/76/58 ms. Allow wide sampling tolerance.
		if med < 25 || med > 160 {
			t.Errorf("%v: median HO duration %.0f ms, want paper scale", op, med)
		}
	}
}

func TestTMobileHandoversSlowerThanVerizon(t *testing.T) {
	if hoMedian(radio.TMobile) <= hoMedian(radio.Verizon) {
		t.Error("T-Mobile HO median should exceed Verizon's (Fig 11b)")
	}
}

func TestHandoverEventsWellFormed(t *testing.T) {
	ue, drive := testUE(t, radio.ATT, 5)
	ue.SetTraffic(deploy.HeavyDL, drive.State().Time, drive.State().Waypoint)
	runFor(ue, drive, 20*time.Minute)
	prev := time.Time{}
	for _, h := range ue.Handovers() {
		if h.Start.Before(prev) {
			t.Fatal("handover events out of order")
		}
		prev = h.Start
		if h.ToCell == "" {
			t.Error("handover with empty target cell")
		}
		if h.Duration <= 0 {
			t.Error("non-positive handover duration")
		}
	}
}

func TestVerticalHandoversOccur(t *testing.T) {
	// T-Mobile's fragmented midband forces 4G<->5G transitions once the
	// drive leaves the contiguous urban 5G blanket.
	ue, drive := testUE(t, radio.TMobile, 6)
	ue.SetTraffic(deploy.HeavyDL, drive.State().Time, drive.State().Waypoint)
	runFor(ue, drive, 3*time.Hour)
	kinds := map[HandoverKind]int{}
	for _, h := range ue.Handovers() {
		kinds[h.Kind()]++
	}
	if kinds[Up] == 0 && kinds[Down] == 0 {
		t.Errorf("no vertical handovers: %v", kinds)
	}
}

func TestHandoversSince(t *testing.T) {
	ue, drive := testUE(t, radio.Verizon, 7)
	ue.SetTraffic(deploy.HeavyDL, drive.State().Time, drive.State().Waypoint)
	runFor(ue, drive, 10*time.Minute)
	all := ue.Handovers()
	if len(all) < 2 {
		t.Skip("not enough handovers for slicing test")
	}
	cut := all[len(all)/2].Start
	since := ue.HandoversSince(cut)
	for _, h := range since {
		if h.Start.Before(cut) {
			t.Fatal("HandoversSince returned early event")
		}
	}
	if len(since) == 0 || len(since) >= len(all) {
		t.Errorf("HandoversSince returned %d of %d", len(since), len(all))
	}
}

func TestUniqueCellsGrow(t *testing.T) {
	ue, drive := testUE(t, radio.Verizon, 8)
	ue.SetTraffic(deploy.HeavyDL, drive.State().Time, drive.State().Waypoint)
	runFor(ue, drive, 10*time.Minute)
	early := ue.UniqueCells()
	runFor(ue, drive, 30*time.Minute)
	late := ue.UniqueCells()
	if early == 0 {
		t.Fatal("no cells seen")
	}
	if late <= early {
		t.Errorf("unique cells did not grow: %d -> %d", early, late)
	}
}

func TestTrafficElevationChangesTech(t *testing.T) {
	// AT&T idle never uses 5G; heavy DL in a 5G fragment does.
	route := geo.DefaultRoute()
	rng := simrand.New(9)
	m := deploy.NewMap(radio.ATT, route, rng)
	// Find a 5G-low fragment midpoint.
	frags := m.Fragments(radio.NRLow)
	if len(frags) == 0 {
		t.Skip("no 5G-low coverage generated")
	}
	mid := (frags[0].Start + frags[0].End) / 2
	wp := route.At(mid)
	ue := NewUE(UEConfig{Op: radio.ATT, Map: m}, rng)
	now := time.Date(2022, 8, 10, 12, 0, 0, 0, time.UTC)

	ue.Step(now, wp, 30, tick)
	if ue.Tech().Is5G() {
		t.Fatalf("idle AT&T UE on %v", ue.Tech())
	}
	ue.SetTraffic(deploy.HeavyDL, now, wp)
	st := ue.Step(now.Add(tick), wp, 30, tick)
	if !st.Tech.Is5G() {
		t.Errorf("heavy DL in 5G-low fragment served by %v", st.Tech)
	}
}

func TestStateAccessors(t *testing.T) {
	s := LinkState{CapacityDL: 100 * unit.Mbps, CapacityUL: 10 * unit.Mbps, CCDL: 3, CCUL: 1}
	if s.Capacity(radio.Downlink) != 100*unit.Mbps || s.Capacity(radio.Uplink) != 10*unit.Mbps {
		t.Error("Capacity accessor wrong")
	}
	if s.CC(radio.Downlink) != 3 || s.CC(radio.Uplink) != 1 {
		t.Error("CC accessor wrong")
	}
}

func TestUEDeterministic(t *testing.T) {
	mkrun := func() []LinkState {
		ue, drive := testUE(t, radio.TMobile, 42)
		ue.SetTraffic(deploy.HeavyDL, drive.State().Time, drive.State().Waypoint)
		return runFor(ue, drive, 5*time.Minute)
	}
	a, b := mkrun(), mkrun()
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("tick %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestFadesReduceCapacity(t *testing.T) {
	ue, drive := testUE(t, radio.Verizon, 10)
	ue.SetTraffic(deploy.HeavyDL, drive.State().Time, drive.State().Waypoint)
	states := runFor(ue, drive, 30*time.Minute)
	var sum float64
	var n int
	lows := 0
	for _, s := range states {
		if s.CellID == "" || s.InHandover {
			continue
		}
		sum += s.CapacityDL.Mbps()
		n++
		if s.CapacityDL < 5*unit.Mbps {
			lows++
		}
	}
	if n == 0 {
		t.Fatal("no attached ticks")
	}
	if lows == 0 {
		t.Error("no deep-fade ticks below 5 Mbps — the paper sees 35% of samples there")
	}
}

func median(xs []float64) float64 {
	cp := append([]float64(nil), xs...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	return cp[len(cp)/2]
}

// TestShadowMemoMatchesHashNormal drives a UE across many shadowing
// buckets and checks every memoized draw — for the serving cell and every
// neighbour a handover scan visits — against a direct hashNormal.
func TestShadowMemoMatchesHashNormal(t *testing.T) {
	ue, drive := testUE(t, radio.TMobile, 21)
	m := ue.cfg.Map
	checks, buckets := 0, map[int64]bool{}
	for i := 0; i < int(90*time.Minute/tick); i++ {
		ds := drive.Step(tick)
		ue.Step(ds.Time, ds.Waypoint, ds.Speed.MPH(), tick)
		if i%4 != 0 {
			continue
		}
		odo := ds.Waypoint.Odometer
		bucket := int64(odo / shadowBucket)
		buckets[bucket] = true
		for _, tech := range radio.Technologies() {
			lo, hi := m.CellRange(odo, tech, searchWindow(tech))
			for j := lo; j < hi; j++ {
				c := m.CellAt(tech, j)
				if got, want := ue.shadowSlot(c, bucket).draw, hashNormal(c.ID, bucket); got != want {
					t.Fatalf("tick %d: shadowSlot(%s, %d).draw = %v, hashNormal %v", i, c.ID, bucket, got, want)
				}
				checks++
			}
		}
	}
	if len(buckets) < 300 {
		t.Fatalf("drive crossed only %d buckets", len(buckets))
	}
	t.Logf("%d draws checked over %d buckets", checks, len(buckets))
}

// TestShadowMemoCollisions alternates keys that share a memo slot, so
// every lookup evicts the previous key, and checks each draw stays exact.
func TestShadowMemoCollisions(t *testing.T) {
	ue, _ := testUE(t, radio.Verizon, 4)
	m := ue.cfg.Map
	type key struct {
		c      *deploy.Cell
		bucket int64
	}
	// slot reports the memo slot a lookup of k leaves it in.
	slot := func(k key) int {
		ue.shadowSlot(k.c, k.bucket)
		for i, e := range ue.shadow {
			if e.cell == k.c && e.bucket == k.bucket {
				return i
			}
		}
		t.Fatalf("(%s, %d) not in the memo after a lookup", k.c.ID, k.bucket)
		return -1
	}
	bySlot := make([][]key, len(ue.shadow))
	for j := 0; j < 40 && j < m.CellCount(radio.LTE); j++ {
		for b := int64(0); b < 40; b++ {
			k := key{m.CellAt(radio.LTE, j), b}
			s := slot(k)
			bySlot[s] = append(bySlot[s], k)
		}
	}
	shared := 0
	for _, keys := range bySlot {
		if len(keys) < 2 {
			continue
		}
		shared++
		for round := 0; round < 3; round++ {
			for _, k := range keys {
				if got, want := ue.shadowSlot(k.c, k.bucket).draw, hashNormal(k.c.ID, k.bucket); got != want {
					t.Fatalf("(%s, %d): memo %v, hashNormal %v", k.c.ID, k.bucket, got, want)
				}
			}
		}
	}
	if shared == 0 {
		t.Fatal("no two keys shared a slot; collisions untested")
	}
}
