// Package geo models the paper's cross-continental drive: the LA→Boston
// route through the ten major cities listed in §3, the four timezones it
// crosses, the urban/suburban/highway segmentation that §5.5 uses to
// explain speed-dependent performance, and the day-by-day drive schedule.
//
// The route is pure geography: it is identical for every campaign seed.
// Only the Drive — speed noise, urban stops — consumes campaign randomness.
package geo

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/nuwins/cellwheels/internal/simrand"
	"github.com/nuwins/cellwheels/internal/unit"
)

// LatLon is a WGS-84 coordinate in degrees.
type LatLon struct {
	Lat float64
	Lon float64
}

// String renders the coordinate as "lat,lon".
func (p LatLon) String() string { return fmt.Sprintf("%.4f,%.4f", p.Lat, p.Lon) }

const earthRadius = 6371e3 // meters

// Haversine reports the great-circle distance between two coordinates.
func Haversine(a, b LatLon) unit.Meters {
	return Prepare(a).Distance(Prepare(b))
}

// PreparedPoint is a coordinate with the part of Haversine that depends
// on it alone computed once: latitude and longitude in radians and the
// cosine of the latitude. A point that is measured against many others,
// such as a server or one tick's position, is prepared once.
type PreparedPoint struct {
	lat, lon float64 // radians
	cosLat   float64
}

// Prepare computes p's PreparedPoint.
func Prepare(p LatLon) PreparedPoint {
	la := p.Lat * math.Pi / 180
	return PreparedPoint{lat: la, lon: p.Lon * math.Pi / 180, cosLat: math.Cos(la)}
}

// Distance reports the great-circle distance between two prepared
// points. It is the one haversine formula: Haversine(a, b) is
// Prepare(a).Distance(Prepare(b)), bit for bit.
func (a PreparedPoint) Distance(b PreparedPoint) unit.Meters {
	dla, dlo := b.lat-a.lat, b.lon-a.lon
	sa, so := math.Sin(dla/2), math.Sin(dlo/2)
	h := sa*sa + a.cosLat*b.cosLat*so*so
	// min(1, √h) without math.Min, which is an assembly call on amd64;
	// NaN and −0 pass through unchanged, as they do through math.Min.
	s := math.Sqrt(h)
	if s > 1 {
		s = 1
	}
	return unit.Meters(2 * earthRadius * math.Asin(s))
}

// Timezone is one of the four US timezones the route crosses.
type Timezone int

// The route's four timezones, west to east.
const (
	Pacific Timezone = iota
	Mountain
	Central
	Eastern
	numTimezones
)

// NumTimezones is the number of timezones along the route.
const NumTimezones = int(numTimezones)

// String implements fmt.Stringer.
func (z Timezone) String() string {
	switch z {
	case Pacific:
		return "Pacific"
	case Mountain:
		return "Mountain"
	case Central:
		return "Central"
	case Eastern:
		return "Eastern"
	default:
		//lint:allow hotbox — diagnostic fallback for invalid values; never taken for the four real zones
		return fmt.Sprintf("Timezone(%d)", int(z))
	}
}

// UTCOffset reports the UTC offset under daylight-saving time, which was
// in effect during the paper's August 2022 trip.
func (z Timezone) UTCOffset() time.Duration {
	switch z {
	case Pacific:
		return -7 * time.Hour
	case Mountain:
		return -6 * time.Hour
	case Central:
		return -5 * time.Hour
	default:
		return -4 * time.Hour
	}
}

// zoneLocations holds each zone's fixed-offset *time.Location, built
// once: Location sits on the per-row logger and log-sync paths.
var zoneLocations = [NumTimezones]*time.Location{
	Pacific:  time.FixedZone(Pacific.String(), int(Pacific.UTCOffset().Seconds())),
	Mountain: time.FixedZone(Mountain.String(), int(Mountain.UTCOffset().Seconds())),
	Central:  time.FixedZone(Central.String(), int(Central.UTCOffset().Seconds())),
	Eastern:  time.FixedZone(Eastern.String(), int(Eastern.UTCOffset().Seconds())),
}

// Location returns a fixed-offset *time.Location for the zone.
func (z Timezone) Location() *time.Location {
	if z >= 0 && z < numTimezones {
		return zoneLocations[z]
	}
	return time.FixedZone(z.String(), int(z.UTCOffset().Seconds()))
}

// TimezoneAt classifies a longitude into the timezone it falls in along
// the I-15/I-80/I-90 corridor. Boundaries approximate the NV/UT, NE
// panhandle, and Indiana crossings.
func TimezoneAt(lon float64) Timezone {
	switch {
	case lon < -114.04:
		return Pacific
	case lon < -101.5:
		return Mountain
	case lon < -86.2:
		return Central
	default:
		return Eastern
	}
}

// Region is the paper's three-way segmentation of the route.
type Region int

// Region kinds. The paper's speed bins act as proxies for these: low
// speeds in cities, medium in suburbs, high on inter-state highways.
const (
	Urban Region = iota
	Suburban
	Highway
)

// String implements fmt.Stringer.
func (r Region) String() string {
	switch r {
	case Urban:
		return "urban"
	case Suburban:
		return "suburban"
	default:
		return "highway"
	}
}

// City is a major city on the route.
type City struct {
	Name    string
	Loc     LatLon
	HasEdge bool // a Verizon Wavelength edge server is deployed here (§3)
}

// MajorCities returns the ten cities of the paper's route, west to east.
// The five edge-server cities match §3: LA, Las Vegas, Denver, Chicago,
// and Boston.
func MajorCities() []City {
	return []City{
		{Name: "Los Angeles", Loc: LatLon{34.0522, -118.2437}, HasEdge: true},
		{Name: "Las Vegas", Loc: LatLon{36.1699, -115.1398}, HasEdge: true},
		{Name: "Salt Lake City", Loc: LatLon{40.7608, -111.8910}},
		{Name: "Denver", Loc: LatLon{39.7392, -104.9903}, HasEdge: true},
		{Name: "Omaha", Loc: LatLon{41.2565, -95.9345}},
		{Name: "Chicago", Loc: LatLon{41.8781, -87.6298}, HasEdge: true},
		{Name: "Indianapolis", Loc: LatLon{39.7684, -86.1581}},
		{Name: "Cleveland", Loc: LatLon{41.4993, -81.6944}},
		{Name: "Rochester", Loc: LatLon{43.1566, -77.6088}},
		{Name: "Boston", Loc: LatLon{42.3601, -71.0589}, HasEdge: true},
	}
}

// PaperRouteLength is the road distance the paper reports (Table 1).
const PaperRouteLength = 5711 * unit.Kilometer

// Classification radii.
const (
	urbanRadius    = 12 * unit.Kilometer
	suburbanRadius = 35 * unit.Kilometer
	townRadius     = 8 * unit.Kilometer
	townSpacing    = 150 * unit.Kilometer
)

// Route is the fixed LA→Boston drive path. It maps an odometer reading
// to a position, region class, timezone, and nearest city.
//
// A Route is immutable once built, so one value is safely shared by any
// number of goroutines.
type Route struct {
	cities   []City
	cityPts  []PreparedPoint // each city's Loc, prepared once
	cumGC    []unit.Meters   // cumulative great-circle distance at each city
	factor   float64         // road distance / great-circle distance
	total    unit.Meters     // road distance
	towns    []unit.Meters   // odometer positions of small towns, ascending
	townLocs []LatLon

	// The candidate-city table: candidates[candStart[b]:candStart[b+1]]
	// are, in ascending index order, the cities that can be nearest to
	// any point of great-circle bin b (see buildCandidates).
	candStart  []int32
	candidates []int32

	// segs holds OdometerOf's per-segment projection constants, one per
	// pair of consecutive cities.
	segs []odoSegment
	// odoLonLo and odoLonHi bound the longitudes at which OdometerOf
	// prunes segments (see buildSegments).
	odoLonLo, odoLonHi float64

	// grid holds At(i·GridStep)'s region and timezone for every i up to
	// one step past the end (see Grid).
	grid []gridPoint
}

// odoSegment is one route segment in OdometerOf's flat-earth projection:
// longitude is scaled by cos(latitude of the segment's start) so the
// axes are commensurate.
type odoSegment struct {
	a          LatLon
	dLat, dLon float64 // b - a, in degrees
	scale      float64
	ax, ay     float64 // projected start
	dx, dy     float64 // projected b - a
	den        float64 // dx² + dy²
	// OdometerOf's lower bound: the segment's latitude/longitude box in
	// degrees, as centre and half-width, and the cosine of the box's
	// largest |latitude|.
	latMid, latHalf, lonMid, lonHalf float64
	cosMin                           float64
	gc0, gcLen                       unit.Meters
}

// candBin is the great-circle length of one candidate-table bin.
const candBin = unit.Kilometer

// candSlack widens the candidate bound beyond the triangle inequality to
// absorb float rounding in Haversine and pointAt, which is orders of
// magnitude below a metre at continental distances.
const candSlack = 5 * unit.Meter

// NewRoute builds a route through the given cities with the given total
// road length. At least two cities are required and the road length must
// be at least the great-circle length.
func NewRoute(cities []City, roadLength unit.Meters) (*Route, error) {
	if len(cities) < 2 {
		return nil, errors.New("geo: route needs at least two cities")
	}
	cum := make([]unit.Meters, len(cities))
	for i := 1; i < len(cities); i++ {
		cum[i] = cum[i-1] + Haversine(cities[i-1].Loc, cities[i].Loc)
	}
	gc := cum[len(cum)-1]
	if gc <= 0 {
		return nil, errors.New("geo: degenerate route")
	}
	if roadLength < gc {
		return nil, fmt.Errorf("geo: road length %v below great-circle %v", roadLength, gc)
	}
	r := &Route{
		cities:  append([]City(nil), cities...),
		cityPts: make([]PreparedPoint, len(cities)),
		cumGC:   cum,
		factor:  float64(roadLength) / float64(gc),
		total:   roadLength,
	}
	for i, c := range cities {
		r.cityPts[i] = Prepare(c.Loc)
	}
	r.placeTowns()
	r.buildCandidates()
	r.buildSegments()
	r.buildGrid()
	return r, nil
}

// DefaultRoute returns the paper's LA→Boston route at its 5,711 km road
// length. The route is built once per process and shared: it is
// immutable, and building its candidate table costs milliseconds.
func DefaultRoute() *Route { return defaultRoute() }

var defaultRoute = sync.OnceValue(func() *Route {
	r, err := NewRoute(MajorCities(), PaperRouteLength)
	if err != nil {
		panic(err) // static construction cannot fail
	}
	return r
})

// placeTowns drops small towns at quasi-regular intervals. Towns are part
// of the fixed geography, so they use a route-local deterministic stream
// rather than campaign randomness.
func (r *Route) placeTowns() {
	rng := simrand.New(1815).Fork("geo/towns")
	for odo := townSpacing; odo < r.total; odo += townSpacing {
		jitter := unit.Meters(rng.Uniform(-40e3, 40e3))
		pos := odo + jitter
		if pos <= 0 || pos >= r.total {
			continue
		}
		loc := r.pointAt(r.greatCircle(pos))
		// Skip towns that fall inside a major city's suburban ring; they
		// would not change classification there.
		if d, _ := r.nearestCity(loc); d < suburbanRadius {
			continue
		}
		r.towns = append(r.towns, pos)
		r.townLocs = append(r.townLocs, loc)
	}
}

// Total reports the road length of the route.
func (r *Route) Total() unit.Meters { return r.total }

// Cities returns the route's major cities, west to east.
func (r *Route) Cities() []City { return append([]City(nil), r.cities...) }

// greatCircle maps an odometer reading to great-circle distance from the
// origin.
func (r *Route) greatCircle(odo unit.Meters) unit.Meters {
	return unit.Meters(float64(odo) / r.factor)
}

// pointAt maps a great-circle distance from the origin to a coordinate
// by linear interpolation between the surrounding cities.
func (r *Route) pointAt(gc unit.Meters) LatLon {
	last := len(r.cumGC) - 1
	if gc <= 0 {
		return r.cities[0].Loc
	}
	if gc >= r.cumGC[last] {
		return r.cities[last].Loc
	}
	seg := 0
	for i := 1; i <= last; i++ {
		if gc < r.cumGC[i] {
			seg = i - 1
			break
		}
	}
	span := r.cumGC[seg+1] - r.cumGC[seg]
	f := float64(gc-r.cumGC[seg]) / float64(span)
	a, b := r.cities[seg].Loc, r.cities[seg+1].Loc
	return LatLon{
		Lat: a.Lat + f*(b.Lat-a.Lat),
		Lon: a.Lon + f*(b.Lon-a.Lon),
	}
}

// nearestCity reports the distance to and index of the closest major
// city by scanning every city. Only route construction uses it; At asks
// nearestCityNear, which returns the same result.
func (r *Route) nearestCity(loc LatLon) (unit.Meters, int) {
	best := unit.Meters(math.Inf(1))
	bestIdx := 0
	for i, c := range r.cities {
		if d := Haversine(loc, c.Loc); d < best {
			best, bestIdx = d, i
		}
	}
	return best, bestIdx
}

// candidateBin reports the candidate-table bin of a non-negative
// great-circle distance; distances at or past the route's end fall in
// the last bin.
func (r *Route) candidateBin(gc unit.Meters) int {
	b := int(gc / candBin)
	if last := len(r.candStart) - 2; b > last {
		return last
	}
	return b
}

// nearestCityNear is nearestCity for a point of the route, prepared as
// from, at great-circle distance gc. It scans only the bin's candidates,
// which include every city that can be nearest there, in ascending index
// order with the same strict comparison, so distance, index and
// tie-breaking all match the full scan bit for bit. Both ends are
// prepared once, the cities by NewRoute, and Haversine is the Distance
// of the prepared points, so every distance is Haversine's.
func (r *Route) nearestCityNear(from PreparedPoint, gc unit.Meters) (unit.Meters, int) {
	b := r.candidateBin(gc)
	best := unit.Meters(math.Inf(1))
	bestIdx := 0
	for _, i := range r.candidates[r.candStart[b]:r.candStart[b+1]] {
		if d := from.Distance(r.cityPts[i]); d < best {
			best, bestIdx = d, int(i)
		}
	}
	return best, bestIdx
}

// buildCandidates fills the candidate-city table. For bin b, let p0 be
// the bin's first point and ρ the length of the path through the bin, so
// every point p of the bin lies within ρ of p0. By the triangle
// inequality |d(p,c) − d(p0,c)| ≤ ρ for every city c, so a city with
// d(p0,c) > min_c′ d(p0,c′) + 2ρ is farther from p than some other city
// and can never be nearest. Every other city — plus a few metres of
// slack — is kept, a superset of the argmin at every point of the bin.
func (r *Route) buildCandidates() {
	gcTotal := r.cumGC[len(r.cumGC)-1]
	bins := int(math.Ceil(float64(gcTotal / candBin)))
	r.candStart = make([]int32, 0, bins+1)
	dist := make([]unit.Meters, len(r.cities))
	for b := 0; b < bins; b++ {
		g0 := unit.Meters(b) * candBin
		g1 := min(g0+candBin, gcTotal)
		p0 := r.pointAt(g0)
		// Path length through the bin: via every city vertex inside it.
		rho, prev := unit.Meters(0), p0
		for i, c := range r.cumGC {
			if c > g0 && c < g1 {
				rho += Haversine(prev, r.cities[i].Loc)
				prev = r.cities[i].Loc
			}
		}
		p1 := r.pointAt(g1)
		rho += Haversine(prev, p1)

		nearest := unit.Meters(math.Inf(1))
		for i, c := range r.cities {
			dist[i] = Haversine(p0, c.Loc)
			nearest = min(nearest, dist[i])
		}
		r.candStart = append(r.candStart, int32(len(r.candidates)))
		for i, d := range dist {
			if d <= nearest+2*rho+candSlack {
				r.candidates = append(r.candidates, int32(i))
			}
		}
	}
	r.candStart = append(r.candStart, int32(len(r.candidates)))
}

// nearestTown reports the distance to the closest town along the route.
// The towns are sorted, so the closest is one of the two neighbours of
// odo; float subtraction is monotone, so this matches a scan of every
// town exactly.
func (r *Route) nearestTown(odo unit.Meters) unit.Meters {
	// Inlined sort.Search(len(towns), towns[i] >= odo): the closure would
	// capture odo and heap-allocate on every per-tick call.
	towns := r.towns
	i, j := 0, len(towns)
	for i < j {
		h := int(uint(i+j) >> 1)
		if towns[h] >= odo {
			j = h
		} else {
			i = h + 1
		}
	}
	best := unit.Meters(math.Inf(1))
	if i < len(towns) {
		best = towns[i] - odo
	}
	if i > 0 {
		if d := odo - towns[i-1]; d < best {
			best = d
		}
	}
	return best
}

// Waypoint describes one point along the route.
type Waypoint struct {
	Odometer     unit.Meters
	Loc          LatLon
	Region       Region
	Timezone     Timezone
	City         string // nearest major city
	CityDistance unit.Meters
	CityHasEdge  bool
}

// At maps an odometer reading (clamped to [0, Total]) to a Waypoint.
func (r *Route) At(odo unit.Meters) Waypoint {
	var wp Waypoint
	r.at(odo, &wp)
	return wp
}

// at is At writing the waypoint into wp, the drive's own state, and
// reporting wp.Loc prepared: the nearest-city scan prepares it anyway,
// so a tick's consumers get it without preparing it again.
func (r *Route) at(odo unit.Meters, wp *Waypoint) PreparedPoint {
	if odo < 0 {
		odo = 0
	}
	if odo > r.total {
		odo = r.total
	}
	gc := r.greatCircle(odo)
	loc := r.pointAt(gc)
	from := Prepare(loc)
	cityDist, cityIdx := r.nearestCityNear(from, gc)
	region := Highway
	switch {
	case cityDist < urbanRadius:
		region = Urban
	case cityDist < suburbanRadius, r.nearestTown(odo) < townRadius:
		region = Suburban
	}
	city := &r.cities[cityIdx]
	wp.Odometer = odo
	wp.Loc = loc
	wp.Region = region
	wp.Timezone = TimezoneAt(loc.Lon)
	wp.City = city.Name
	wp.CityDistance = cityDist
	wp.CityHasEdge = city.HasEdge
	return from
}

// OdometerOf maps a coordinate back to the closest odometer position on
// the route — the post-processing step that joins GPS rows from the logs
// to route positions. The inverse of At up to projection error.
//
// The result is that of a scan of every segment in ascending order that
// keeps the first strictly smaller Haversine distance to loc's projection
// onto the segment: the (distance, segment index) minimum. A cheap lower
// bound on that distance (lowerBoundSq) is taken for every segment
// first. The segment with the smallest bound is projected and measured
// exactly, and every other segment is measured only if its bound does
// not already exceed the best distance.
func (r *Route) OdometerOf(loc LatLon) unit.Meters {
	var stack [16]float64
	lbs := stack[:0]
	if len(r.segs) > len(stack) {
		lbs = make([]float64, 0, len(r.segs))
	}
	// The bound needs loc within 80° of the equator, where cos x ≥
	// 1 − x²/2 is a positive lower bound on cos(loc.Lat), and within 180°
	// of longitude of every segment's box. Elsewhere every bound is 0 and
	// every segment is measured.
	bounded := math.Abs(loc.Lat) <= 80 && loc.Lon >= r.odoLonLo && loc.Lon <= r.odoLonHi
	cosLB := 0.0
	if bounded {
		la := loc.Lat * math.Pi / 180
		cosLB = 1 - la*la/2
	}
	first := -1
	for i := range r.segs {
		lb := 0.0
		if bounded {
			lb = r.segs[i].lowerBoundSq(loc, cosLB)
		}
		lbs = append(lbs, lb)
		if first < 0 || lb < lbs[first] {
			first = i
		}
	}
	if first < 0 {
		return 0
	}
	from := Prepare(loc)
	best, bestIdx, bestT := math.Inf(1), -1, 0.0
	// Visit first, then every other segment in ascending order.
	for k := -1; k < len(r.segs); k++ {
		i := k
		if k < 0 {
			i = first
		} else if k == first {
			continue
		}
		if lim := best + float64(odoSlack); bestIdx >= 0 && lbs[i] > lim*lim {
			continue
		}
		t, proj := r.segs[i].project(loc)
		d := float64(from.Distance(Prepare(proj)))
		if d < best || d == best && i < bestIdx {
			best, bestIdx, bestT = d, i, t
		}
	}
	if bestIdx < 0 {
		return 0
	}
	s := &r.segs[bestIdx]
	gc := s.gc0 + unit.Meters(bestT*float64(s.gcLen))
	return unit.Meters(float64(gc) * r.factor)
}

// odoSlack widens OdometerOf's pruning test to absorb float rounding in
// the bound and in Haversine, which is orders of magnitude below a metre
// at continental distances.
const odoSlack = 1 * unit.Meter

// project reports the clamped projection parameter of loc onto the
// segment and the projected coordinate.
func (s *odoSegment) project(loc LatLon) (float64, LatLon) {
	px, py := loc.Lon*s.scale, loc.Lat
	t := 0.0
	if s.den > 0 {
		t = ((px-s.ax)*s.dx + (py-s.ay)*s.dy) / s.den
	}
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return t, LatLon{Lat: s.a.Lat + t*s.dLat, Lon: s.a.Lon + t*s.dLon}
}

// lowerBoundSq is the square of a lower bound on the Haversine distance
// from loc to any point of the segment's latitude/longitude box, which
// holds every projection onto the segment. Let Δφ and Δλ be the box's
// least latitude and longitude offsets from loc, both at most π. Then
// h = sin²(Δφ/2) + cos φ₁·cos φ₂·sin²(Δλ/2) is at least
// (Δφ² + cos φ₁·cos φ₂·Δλ²)/π², by sin x ≥ 2x/π on [0, π/2]; and
// d = 2R·asin(min(1, √h)) ≥ 2R·√that, by asin y ≥ y (the bound never
// exceeds 2√2·R, below the πR of a clamped √h). cosLB bounds cos φ₁
// from below, and s.cosMin bounds cos φ₂ over the box.
//
// The bound holds up to rounding, which OdometerOf's slack covers. It
// takes no branch: the box offsets are (v + |v|)/2, which is exactly
// max(v, 0).
func (s *odoSegment) lowerBoundSq(loc LatLon, cosLB float64) float64 {
	dLat := math.Abs(loc.Lat-s.latMid) - s.latHalf
	dLon := math.Abs(loc.Lon-s.lonMid) - s.lonHalf
	dLat = (dLat + math.Abs(dLat)) * 0.5
	dLon = (dLon + math.Abs(dLon)) * 0.5
	const k = (earthRadius / 90) * (earthRadius / 90) // (2R/π · π/180)²
	return k * (dLat*dLat + cosLB*s.cosMin*dLon*dLon)
}

// buildSegments precomputes OdometerOf's per-segment constants, which
// depend only on the route.
func (r *Route) buildSegments() {
	for i := 0; i+1 < len(r.cities); i++ {
		a, b := r.cities[i].Loc, r.cities[i+1].Loc
		scale := math.Cos(a.Lat * math.Pi / 180)
		ax, ay := a.Lon*scale, a.Lat
		bx, by := b.Lon*scale, b.Lat
		dx, dy := bx-ax, by-ay
		r.segs = append(r.segs, odoSegment{
			a:     a,
			dLat:  b.Lat - a.Lat,
			dLon:  b.Lon - a.Lon,
			scale: scale,
			ax:    ax, ay: ay,
			dx: dx, dy: dy,
			den:    dx*dx + dy*dy,
			latMid: (a.Lat + b.Lat) / 2, latHalf: math.Abs(b.Lat-a.Lat) / 2,
			lonMid: (a.Lon + b.Lon) / 2, lonHalf: math.Abs(b.Lon-a.Lon) / 2,
			cosMin: math.Cos(max(math.Abs(a.Lat), math.Abs(b.Lat)) * math.Pi / 180),
			gc0:    r.cumGC[i],
			gcLen:  r.cumGC[i+1] - r.cumGC[i],
		})
	}
	// A longitude within 180° of every segment's box; an empty range if
	// a city lies off the globe, so that OdometerOf never prunes there.
	r.odoLonLo, r.odoLonHi = math.Inf(-1), math.Inf(1)
	for _, c := range r.cities {
		if math.Abs(c.Loc.Lat) > 90 || math.Abs(c.Loc.Lon) > 180 {
			r.odoLonLo, r.odoLonHi = math.Inf(1), math.Inf(-1)
			return
		}
		r.odoLonLo = max(r.odoLonLo, c.Loc.Lon-180)
		r.odoLonHi = min(r.odoLonHi, c.Loc.Lon+180)
	}
}

// GridStep is the spacing of the route grid.
const GridStep = 250 * unit.Meter

// gridPoint is one route-grid entry: a Region and a Timezone, a byte each.
type gridPoint struct {
	region, timezone uint8
}

// Grid is a read-only view of a route's region/timezone grid: entry i
// holds At(i·GridStep)'s Region and Timezone. Region and timezone change
// on multi-kilometre scales, so deployment generation and the crowd's
// position draws read them here instead of interpolating the route and
// scanning for the nearest city per lookup.
type Grid struct {
	points []gridPoint
}

// Grid returns the route's grid. It covers every i up to one step past
// the end, int(Total/GridStep)+2 entries; the last lies past Total and
// repeats At(Total), as At clamps.
func (r *Route) Grid() Grid { return Grid{r.grid} }

// Len reports the number of grid entries.
func (g Grid) Len() int { return len(g.points) }

// Prefix returns the view of the first n entries.
func (g Grid) Prefix(n int) Grid { return Grid{g.points[:n]} }

// Region reports entry i's region class.
func (g Grid) Region(i int) Region { return Region(g.points[i].region) }

// Timezone reports entry i's timezone.
func (g Grid) Timezone(i int) Timezone { return Timezone(g.points[i].timezone) }

// buildGrid fills the route grid from At.
func (r *Route) buildGrid() {
	r.grid = make([]gridPoint, int(r.total/GridStep)+2)
	for i := range r.grid {
		wp := r.At(unit.Meters(i) * GridStep)
		r.grid[i] = gridPoint{region: uint8(wp.Region), timezone: uint8(wp.Timezone)}
	}
}
