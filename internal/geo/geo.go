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
	la1, lo1 := a.Lat*math.Pi/180, a.Lon*math.Pi/180
	la2, lo2 := b.Lat*math.Pi/180, b.Lon*math.Pi/180
	dla, dlo := la2-la1, lo2-lo1
	sa, so := math.Sin(dla/2), math.Sin(dlo/2)
	h := sa*sa + math.Cos(la1)*math.Cos(la2)*so*so
	return unit.Meters(2 * earthRadius * math.Asin(math.Min(1, math.Sqrt(h))))
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
	cumGC    []unit.Meters // cumulative great-circle distance at each city
	factor   float64       // road distance / great-circle distance
	total    unit.Meters   // road distance
	towns    []unit.Meters // odometer positions of small towns, ascending
	townLocs []LatLon

	// The candidate-city table: candidates[candStart[b]:candStart[b+1]]
	// are, in ascending index order, the cities that can be nearest to
	// any point of great-circle bin b (see buildCandidates).
	candStart  []int32
	candidates []int32

	// segs holds OdometerOf's per-segment projection constants, one per
	// pair of consecutive cities.
	segs []odoSegment

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
	gc0, gcLen unit.Meters
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
		cities: append([]City(nil), cities...),
		cumGC:  cum,
		factor: float64(roadLength) / float64(gc),
		total:  roadLength,
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

// nearestCityNear is nearestCity for a point of the route at great-circle
// distance gc. It scans only the bin's candidates, which include every
// city that can be nearest there, in ascending index order with the same
// strict comparison, so distance, index and tie-breaking all match the
// full scan bit for bit.
func (r *Route) nearestCityNear(loc LatLon, gc unit.Meters) (unit.Meters, int) {
	b := r.candidateBin(gc)
	best := unit.Meters(math.Inf(1))
	bestIdx := 0
	for _, i := range r.candidates[r.candStart[b]:r.candStart[b+1]] {
		if d := Haversine(loc, r.cities[i].Loc); d < best {
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
	if odo < 0 {
		odo = 0
	}
	if odo > r.total {
		odo = r.total
	}
	gc := r.greatCircle(odo)
	loc := r.pointAt(gc)
	cityDist, cityIdx := r.nearestCityNear(loc, gc)
	region := Highway
	switch {
	case cityDist < urbanRadius:
		region = Urban
	case cityDist < suburbanRadius, r.nearestTown(odo) < townRadius:
		region = Suburban
	}
	return Waypoint{
		Odometer:     odo,
		Loc:          loc,
		Region:       region,
		Timezone:     TimezoneAt(loc.Lon),
		City:         r.cities[cityIdx].Name,
		CityDistance: cityDist,
		CityHasEdge:  r.cities[cityIdx].HasEdge,
	}
}

// OdometerOf maps a coordinate back to the closest odometer position on
// the route — the post-processing step that joins GPS rows from the logs
// to route positions. The inverse of At up to projection error.
func (r *Route) OdometerOf(loc LatLon) unit.Meters {
	best := math.Inf(1)
	var bestOdo unit.Meters
	for i := range r.segs {
		s := &r.segs[i]
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
		proj := LatLon{Lat: s.a.Lat + t*s.dLat, Lon: s.a.Lon + t*s.dLon}
		if d := float64(Haversine(loc, proj)); d < best {
			best = d
			gc := s.gc0 + unit.Meters(t*float64(s.gcLen))
			bestOdo = unit.Meters(float64(gc) * r.factor)
		}
	}
	return bestOdo
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
			den:   dx*dx + dy*dy,
			gc0:   r.cumGC[i],
			gcLen: r.cumGC[i+1] - r.cumGC[i],
		})
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
