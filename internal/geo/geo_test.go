package geo

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/nuwins/cellwheels/internal/unit"
)

func TestHaversineKnownDistance(t *testing.T) {
	la := LatLon{34.0522, -118.2437}
	boston := LatLon{42.3601, -71.0589}
	d := Haversine(la, boston)
	// LA–Boston great circle is ≈ 4,170 km.
	if d.Km() < 4100 || d.Km() > 4250 {
		t.Errorf("LA-Boston = %.0f km, want ≈4170", d.Km())
	}
}

func TestHaversineProperties(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := LatLon{math.Mod(lat1, 90), math.Mod(lon1, 180)}
		b := LatLon{math.Mod(lat2, 90), math.Mod(lon2, 180)}
		if math.IsNaN(a.Lat) || math.IsNaN(a.Lon) || math.IsNaN(b.Lat) || math.IsNaN(b.Lon) {
			return true
		}
		ab, ba := Haversine(a, b), Haversine(b, a)
		if ab < 0 {
			return false
		}
		if math.Abs(float64(ab-ba)) > 1e-6 {
			return false // symmetry
		}
		return Haversine(a, a) < 1e-6 // identity
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTimezoneAt(t *testing.T) {
	cases := []struct {
		lon  float64
		want Timezone
	}{
		{-118.24, Pacific}, // LA
		{-115.14, Pacific}, // Las Vegas
		{-111.89, Mountain},
		{-104.99, Mountain}, // Denver
		{-95.93, Central},   // Omaha
		{-87.63, Central},   // Chicago
		{-86.16, Eastern},   // Indianapolis (EDT)
		{-71.06, Eastern},   // Boston
	}
	for _, c := range cases {
		if got := TimezoneAt(c.lon); got != c.want {
			t.Errorf("TimezoneAt(%v) = %v, want %v", c.lon, got, c.want)
		}
	}
}

func TestTimezoneOffsets(t *testing.T) {
	if Pacific.UTCOffset() != -7*time.Hour {
		t.Errorf("Pacific offset = %v", Pacific.UTCOffset())
	}
	if Eastern.UTCOffset() != -4*time.Hour {
		t.Errorf("Eastern offset = %v", Eastern.UTCOffset())
	}
	// Offsets ascend west to east by one hour.
	for z := Pacific; z < Eastern; z++ {
		if (z+1).UTCOffset()-z.UTCOffset() != time.Hour {
			t.Errorf("offset step at %v", z)
		}
	}
}

func TestTimezoneStrings(t *testing.T) {
	for z, want := range map[Timezone]string{
		Pacific: "Pacific", Mountain: "Mountain", Central: "Central", Eastern: "Eastern",
	} {
		if z.String() != want {
			t.Errorf("String(%d) = %q", int(z), z.String())
		}
	}
}

func TestMajorCities(t *testing.T) {
	cities := MajorCities()
	if len(cities) != 10 {
		t.Fatalf("city count = %d, want 10", len(cities))
	}
	if cities[0].Name != "Los Angeles" || cities[9].Name != "Boston" {
		t.Errorf("endpoints = %q, %q", cities[0].Name, cities[9].Name)
	}
	edges := 0
	for _, c := range cities {
		if c.HasEdge {
			edges++
		}
	}
	if edges != 5 {
		t.Errorf("edge cities = %d, want 5 (§3)", edges)
	}
	// Cities should run roughly west to east.
	for i := 1; i < len(cities); i++ {
		if cities[i].Loc.Lon < cities[i-1].Loc.Lon-3 {
			t.Errorf("city %q is far west of its predecessor", cities[i].Name)
		}
	}
}

func TestNewRouteValidation(t *testing.T) {
	if _, err := NewRoute(MajorCities()[:1], PaperRouteLength); err == nil {
		t.Error("single-city route not rejected")
	}
	if _, err := NewRoute(MajorCities(), 100*unit.Kilometer); err == nil {
		t.Error("road shorter than great-circle not rejected")
	}
}

func TestDefaultRouteLength(t *testing.T) {
	r := DefaultRoute()
	if got := r.Total(); got != PaperRouteLength {
		t.Errorf("Total = %v, want %v", got, PaperRouteLength)
	}
}

func TestRouteAtEndpoints(t *testing.T) {
	r := DefaultRoute()
	start := r.At(0)
	if start.City != "Los Angeles" || start.Region != Urban {
		t.Errorf("start = %+v", start)
	}
	end := r.At(r.Total())
	if end.City != "Boston" || end.Region != Urban {
		t.Errorf("end = %+v", end)
	}
	if start.Timezone != Pacific || end.Timezone != Eastern {
		t.Errorf("timezones = %v, %v", start.Timezone, end.Timezone)
	}
}

func TestRouteAtClamps(t *testing.T) {
	r := DefaultRoute()
	if got := r.At(-5 * unit.Kilometer).Odometer; got != 0 {
		t.Errorf("negative odometer clamped to %v", got)
	}
	if got := r.At(r.Total() + unit.Kilometer).Odometer; got != r.Total() {
		t.Errorf("overlong odometer clamped to %v", got)
	}
}

func TestRouteTimezonesMonotone(t *testing.T) {
	r := DefaultRoute()
	prev := Pacific
	for odo := unit.Meters(0); odo <= r.Total(); odo += 10 * unit.Kilometer {
		z := r.At(odo).Timezone
		if z < prev {
			t.Fatalf("timezone went backwards at %v: %v after %v", odo, z, prev)
		}
		prev = z
	}
	if prev != Eastern {
		t.Errorf("final timezone = %v, want Eastern", prev)
	}
}

func TestRouteVisitsAllTimezones(t *testing.T) {
	r := DefaultRoute()
	seen := map[Timezone]bool{}
	for odo := unit.Meters(0); odo <= r.Total(); odo += 10 * unit.Kilometer {
		seen[r.At(odo).Timezone] = true
	}
	if len(seen) != 4 {
		t.Errorf("visited %d timezones, want 4 (Table 1)", len(seen))
	}
}

func TestRouteRegionShares(t *testing.T) {
	// Shares of route length, counted over the route grid.
	g := DefaultRoute().Grid()
	counts := map[Region]int{}
	for i := 0; i < g.Len(); i++ {
		counts[g.Region(i)]++
	}
	shares := map[Region]float64{}
	for k, c := range counts {
		shares[k] = float64(c) / float64(g.Len())
	}
	// Most of the paper's data comes from highways (§5.5); cities are a
	// small fraction.
	if shares[Highway] < 0.55 {
		t.Errorf("highway share = %.2f, want > 0.55", shares[Highway])
	}
	if shares[Urban] > 0.15 {
		t.Errorf("urban share = %.2f, want < 0.15", shares[Urban])
	}
	if shares[Suburban] < 0.05 {
		t.Errorf("suburban share = %.2f, want > 0.05", shares[Suburban])
	}
	total := shares[Urban] + shares[Suburban] + shares[Highway]
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("shares sum to %v", total)
	}
}

// TestRouteGridMatchesAt checks every grid entry against At at its
// odometer, on the paper's route and on a two-city route whose length is
// not a multiple of the grid step, and that the grid reaches one step
// past the end.
func TestRouteGridMatchesAt(t *testing.T) {
	short, err := NewRoute(MajorCities()[:2], 400*unit.Kilometer+137*unit.Meter)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Route{DefaultRoute(), short} {
		g := r.Grid()
		if want := int(r.Total()/GridStep) + 2; g.Len() != want {
			t.Fatalf("grid of a %v route has %d entries, want %d", r.Total(), g.Len(), want)
		}
		if last := unit.Meters(g.Len()-1) * GridStep; last <= r.Total() {
			t.Errorf("last grid entry at %v, not past the end %v", last, r.Total())
		}
		for i := 0; i < g.Len(); i++ {
			wp := r.At(unit.Meters(i) * GridStep)
			if g.Region(i) != wp.Region || g.Timezone(i) != wp.Timezone {
				t.Fatalf("grid entry %d = (%v, %v), At(%v) = (%v, %v)",
					i, g.Region(i), g.Timezone(i), unit.Meters(i)*GridStep, wp.Region, wp.Timezone)
			}
		}
	}
}

func TestRouteNearCityIsUrban(t *testing.T) {
	r := DefaultRoute()
	// Find the odometer position closest to Denver.
	var best unit.Meters = math.MaxFloat64
	var bestOdo unit.Meters
	denver := LatLon{39.7392, -104.9903}
	for odo := unit.Meters(0); odo <= r.Total(); odo += unit.Kilometer {
		if d := Haversine(r.At(odo).Loc, denver); d < best {
			best, bestOdo = d, odo
		}
	}
	wp := r.At(bestOdo)
	if wp.Region != Urban || wp.City != "Denver" {
		t.Errorf("closest approach to Denver: %+v (dist %v)", wp, best)
	}
	if !wp.CityHasEdge {
		t.Error("Denver should have an edge server")
	}
}

func TestRouteDeterministic(t *testing.T) {
	a := DefaultRoute()
	b, err := NewRoute(MajorCities(), PaperRouteLength)
	if err != nil {
		t.Fatal(err)
	}
	for odo := unit.Meters(0); odo <= a.Total(); odo += 100 * unit.Kilometer {
		wa, wb := a.At(odo), b.At(odo)
		if wa != wb {
			t.Fatalf("routes diverge at %v: %+v vs %+v", odo, wa, wb)
		}
	}
}

func TestOdometerOfInvertsAt(t *testing.T) {
	r := DefaultRoute()
	for odo := unit.Meters(0); odo <= r.Total(); odo += 250 * unit.Kilometer {
		wp := r.At(odo)
		back := r.OdometerOf(wp.Loc)
		if diff := math.Abs(float64(back - odo)); diff > 25e3 {
			t.Errorf("OdometerOf(At(%v)) = %v; off by %v m", odo, back, diff)
		}
	}
}

func TestOdometerOfOffRoutePoint(t *testing.T) {
	r := DefaultRoute()
	// A point well north of the route still projects somewhere sane.
	odo := r.OdometerOf(LatLon{46.0, -100.0})
	if odo < 0 || odo > r.Total() {
		t.Errorf("projection out of range: %v", odo)
	}
}

func TestOdometerOfEndpoints(t *testing.T) {
	r := DefaultRoute()
	if got := r.OdometerOf(MajorCities()[0].Loc); got.Km() > 10 {
		t.Errorf("LA projects to %v", got)
	}
	if got := r.OdometerOf(MajorCities()[9].Loc); (r.Total() - got).Km() > 10 {
		t.Errorf("Boston projects to %v of %v", got, r.Total())
	}
}

func TestTimezoneLocationShared(t *testing.T) {
	for z := Pacific; z <= Eastern; z++ {
		loc := z.Location()
		if loc != z.Location() {
			t.Errorf("%v: Location returns a fresh value per call", z)
		}
		name, off := time.Date(2022, 8, 10, 12, 0, 0, 0, loc).Zone()
		if name != z.String() || time.Duration(off)*time.Second != z.UTCOffset() {
			t.Errorf("%v: zone %q %+ds, want %q %v", z, name, off, z.String(), z.UTCOffset())
		}
	}
}

// TestNearestCityCandidatesMatchScan pins the candidate-city table to the
// full ten-city scan: at every probed point the distance must match bit
// for bit and the index exactly, tie-breaking included.
func TestNearestCityCandidatesMatchScan(t *testing.T) {
	r := DefaultRoute()
	gcTotal := r.cumGC[len(r.cumGC)-1]
	probes := 0
	check := func(gc unit.Meters) {
		t.Helper()
		probes++
		loc := r.pointAt(gc)
		wantD, wantI := r.nearestCity(loc)
		gotD, gotI := r.nearestCityNear(Prepare(loc), gc)
		if math.Float64bits(float64(gotD)) != math.Float64bits(float64(wantD)) || gotI != wantI {
			t.Fatalf("gc %v (%v): candidates give (%v, %d), full scan (%v, %d)", gc, loc, gotD, gotI, wantD, wantI)
		}
	}
	checkOdo := func(odo unit.Meters) {
		t.Helper()
		check(r.greatCircle(odo))
	}

	// A sweep of the whole road, and every odometer at both route ends.
	for odo := unit.Meters(0); odo <= r.Total(); odo += 20 * unit.Meter {
		checkOdo(odo)
	}
	checkOdo(0)
	checkOdo(r.Total())
	checkOdo(unit.Meters(math.Nextafter(float64(r.Total()), 0)))
	// Bin edges and city vertices, with their float neighbours.
	var edges []unit.Meters
	for b := 0; b < len(r.candStart); b++ {
		edges = append(edges, unit.Meters(b)*candBin)
	}
	edges = append(edges, r.cumGC...)
	for _, g := range edges {
		check(g)
		check(unit.Meters(math.Nextafter(float64(g), math.Inf(-1))))
		check(unit.Meters(math.Nextafter(float64(g), math.Inf(1))))
	}
	// Bins with more than one candidate straddle a point equidistant from
	// two cities, where the argmin flips; sweep those densely.
	multi := 0
	for b := 0; b+1 < len(r.candStart); b++ {
		if r.candStart[b+1]-r.candStart[b] < 2 {
			continue
		}
		multi++
		g0 := unit.Meters(b) * candBin
		for g := g0; g < g0+candBin && g <= gcTotal; g += 0.25 * unit.Meter {
			check(g)
		}
	}
	if multi == 0 {
		t.Error("no bin has two candidates; the equidistant crossings are untested")
	}
	// Random odometers.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		checkOdo(unit.Meters(rng.Float64()) * r.Total())
	}

	bins := len(r.candStart) - 1
	avg := float64(len(r.candidates)) / float64(bins)
	t.Logf("%d probes; %d bins, %.3f candidates per bin, %d bins with several", probes, bins, avg, multi)
	if avg > 1.5 {
		t.Errorf("%.2f candidates per bin, want the table to prune to about one", avg)
	}
}

func TestRouteTownsAscending(t *testing.T) {
	r := DefaultRoute()
	if len(r.towns) == 0 {
		t.Fatal("route has no towns")
	}
	for i := 1; i < len(r.towns); i++ {
		if r.towns[i] <= r.towns[i-1] {
			t.Fatalf("town %d at %v not after town %d at %v", i, r.towns[i], i-1, r.towns[i-1])
		}
	}
}

// TestNearestTownMatchesScan pins the binary search to a scan of every
// town, around each town and over random odometers.
func TestNearestTownMatchesScan(t *testing.T) {
	r := DefaultRoute()
	scan := func(odo unit.Meters) unit.Meters {
		best := unit.Meters(math.Inf(1))
		for _, town := range r.towns {
			best = min(best, unit.Meters(math.Abs(float64(odo-town))))
		}
		return best
	}
	check := func(odo unit.Meters) {
		t.Helper()
		if got, want := r.nearestTown(odo), scan(odo); math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
			t.Fatalf("nearestTown(%v) = %v, scan %v", odo, got, want)
		}
	}
	for _, town := range r.towns {
		for _, d := range []unit.Meters{-townRadius, -1, 0, 1, townRadius} {
			check(town + d)
		}
		check(unit.Meters(math.Nextafter(float64(town), 0)))
	}
	check(0)
	check(r.Total())
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100000; i++ {
		check(unit.Meters(rng.Float64()) * r.Total())
	}
}

func TestDefaultRouteShared(t *testing.T) {
	const n = 8
	got := make([]*Route, n)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = DefaultRoute()
			_ = got[i].At(unit.Meters(i) * 100 * unit.Kilometer)
		}()
	}
	wg.Wait()
	for i, r := range got {
		if r != got[0] {
			t.Fatalf("caller %d got route %p, caller 0 got %p", i, r, got[0])
		}
	}
}

// haversineRef is Haversine as first written, with each half-angle sine
// evaluated twice. Haversine must stay bit-identical to it.
func haversineRef(a, b LatLon) unit.Meters {
	la1, lo1 := a.Lat*math.Pi/180, a.Lon*math.Pi/180
	la2, lo2 := b.Lat*math.Pi/180, b.Lon*math.Pi/180
	dla, dlo := la2-la1, lo2-lo1
	h := math.Sin(dla/2)*math.Sin(dla/2) + math.Cos(la1)*math.Cos(la2)*math.Sin(dlo/2)*math.Sin(dlo/2)
	return unit.Meters(2 * earthRadius * math.Asin(math.Min(1, math.Sqrt(h))))
}

func TestHaversineMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1_000_000; i++ {
		a := LatLon{Lat: rng.Float64()*180 - 90, Lon: rng.Float64()*360 - 180}
		var b LatLon
		if i%2 == 0 {
			// Within about a kilometre, as the per-tick callers ask.
			b = LatLon{Lat: a.Lat + (rng.Float64()-0.5)*0.02, Lon: a.Lon + (rng.Float64()-0.5)*0.02}
		} else {
			b = LatLon{Lat: rng.Float64()*180 - 90, Lon: rng.Float64()*360 - 180}
		}
		got, want := Haversine(a, b), haversineRef(a, b)
		if math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
			t.Fatalf("Haversine(%v, %v) = %v, reference %v", a, b, got, want)
		}
	}
}

func TestPreparedDistanceMatchesHaversine(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	special := []float64{0, math.Copysign(0, -1), 90, -90, 180, -180, 1e-300, math.NaN(), math.Inf(1)}
	for i := 0; i < 1_000_000; i++ {
		a := LatLon{Lat: rng.Float64()*180 - 90, Lon: rng.Float64()*360 - 180}
		b := LatLon{Lat: a.Lat + (rng.Float64()-0.5)*0.02, Lon: a.Lon + (rng.Float64()-0.5)*0.02}
		switch i % 4 {
		case 1:
			b = LatLon{Lat: rng.Float64()*180 - 90, Lon: rng.Float64()*360 - 180}
		case 2:
			// Antipodal, where √h rounds past 1 and is clamped.
			b = LatLon{Lat: -a.Lat, Lon: a.Lon + 180}
		case 3:
			b = LatLon{Lat: special[rng.Intn(len(special))], Lon: special[rng.Intn(len(special))]}
		}
		got, want := Prepare(a).Distance(Prepare(b)), haversineRef(a, b)
		if math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
			t.Fatalf("Prepare(%v).Distance(Prepare(%v)) = %v, reference %v", a, b, got, want)
		}
		if got := Haversine(a, b); math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
			t.Fatalf("Haversine(%v, %v) = %v, reference %v", a, b, got, want)
		}
	}
}

// odometerOfRef is OdometerOf as first written, recomputing each
// segment's projection constants on every call.
func odometerOfRef(r *Route, loc LatLon) unit.Meters {
	best := math.Inf(1)
	var bestOdo unit.Meters
	for i := 0; i+1 < len(r.cities); i++ {
		a, b := r.cities[i].Loc, r.cities[i+1].Loc
		scale := math.Cos(a.Lat * math.Pi / 180)
		ax, ay := a.Lon*scale, a.Lat
		bx, by := b.Lon*scale, b.Lat
		px, py := loc.Lon*scale, loc.Lat
		dx, dy := bx-ax, by-ay
		den := dx*dx + dy*dy
		t := 0.0
		if den > 0 {
			t = ((px-ax)*dx + (py-ay)*dy) / den
		}
		if t < 0 {
			t = 0
		} else if t > 1 {
			t = 1
		}
		proj := LatLon{Lat: a.Lat + t*(b.Lat-a.Lat), Lon: a.Lon + t*(b.Lon-a.Lon)}
		if d := float64(haversineRef(loc, proj)); d < best {
			best = d
			gc := r.cumGC[i] + unit.Meters(t*float64(r.cumGC[i+1]-r.cumGC[i]))
			bestOdo = unit.Meters(float64(gc) * r.factor)
		}
	}
	return bestOdo
}

// odometerOfPoints returns over a million points for the OdometerOf
// reference test: the route every 10 m, each with a twin jittered a few
// km off it, every city vertex with a ring of near points (where two
// segments' projections clamp to the same vertex and tie), and uniform
// points over the route's bounding box.
func odometerOfPoints(r *Route) []LatLon {
	var pts []LatLon
	rng := rand.New(rand.NewSource(11))
	minLat, maxLat, minLon, maxLon := 90.0, -90.0, 180.0, -180.0
	for odo := unit.Meters(0); odo <= r.Total(); odo += 10 * unit.Meter {
		p := r.At(odo).Loc
		minLat, maxLat = math.Min(minLat, p.Lat), math.Max(maxLat, p.Lat)
		minLon, maxLon = math.Min(minLon, p.Lon), math.Max(maxLon, p.Lon)
		pts = append(pts, p, LatLon{Lat: p.Lat + (rng.Float64()-0.5)*0.08, Lon: p.Lon + (rng.Float64()-0.5)*0.08})
	}
	for _, c := range r.cities {
		pts = append(pts, c.Loc)
		for _, rad := range []float64{1e-9, 1e-6, 1e-3, 0.05, 0.5} {
			for k := 0; k < 64; k++ {
				a := 2 * math.Pi * float64(k) / 64
				pts = append(pts, LatLon{Lat: c.Loc.Lat + rad*math.Sin(a), Lon: c.Loc.Lon + rad*math.Cos(a)})
			}
		}
	}
	for i := 0; i < 100_000; i++ {
		pts = append(pts, LatLon{Lat: minLat + rng.Float64()*(maxLat-minLat), Lon: minLon + rng.Float64()*(maxLon-minLon)})
	}
	return pts
}

func TestOdometerOfMatchesReference(t *testing.T) {
	r := DefaultRoute()
	pts := odometerOfPoints(r)
	rng := rand.New(rand.NewSource(12))
	if len(pts) < 1_000_000 {
		t.Fatalf("%d points, want at least 1M", len(pts))
	}
	// Far off the route and outside the valid ranges the bound guards.
	pts = append(pts, LatLon{Lat: 89.9, Lon: 0}, LatLon{Lat: -45, Lon: 60}, LatLon{Lat: 200, Lon: -100},
		LatLon{Lat: 40, Lon: 400}, LatLon{Lat: math.NaN(), Lon: -100}, LatLon{Lat: 40, Lon: math.Inf(1)})
	for _, p := range pts {
		got, want := r.OdometerOf(p), odometerOfRef(r, p)
		if math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
			t.Fatalf("OdometerOf(%v) = %v, reference %v", p, got, want)
		}
	}

	// A route that doubles back to its start: around the start, both
	// segments project onto the same point, so their distances tie
	// exactly and only the tie rule (lowest segment wins) separates
	// odometer 0 from the route's end.
	back, err := NewRoute([]City{{Loc: LatLon{40, -100}}, {Loc: LatLon{41, -90}}, {Loc: LatLon{40, -100}}}, 2000*unit.Kilometer)
	if err != nil {
		t.Fatal(err)
	}
	ties := 0
	for i := 0; i < 10_000; i++ {
		p := LatLon{Lat: 40 + (rng.Float64()-0.5)*2, Lon: -100 + (rng.Float64()-0.5)*2}
		got, want := back.OdometerOf(p), odometerOfRef(back, p)
		if math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
			t.Fatalf("doubled-back route: OdometerOf(%v) = %v, reference %v", p, got, want)
		}
		if want == 0 {
			ties++
		}
	}
	if ties == 0 {
		t.Fatal("no tied point on the doubled-back route")
	}
}
